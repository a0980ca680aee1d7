.PHONY: all build test bench bench-scale bench-scale-quick perfbench-smoke examples clean doc analyze analyze-baseline determinism loc

all: build

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --skip-micro

# Large-scale throughput benchmark: >= 50k messages through the syntax
# system under the standard fault campaign; writes the `scale` section
# of BENCH.json (see docs/PERF.md).
bench-scale:
	dune exec bench/main.exe -- --scale-only

bench-scale-quick:
	dune exec bench/main.exe -- --scale-only --scale-quick

# Every perfbench workload at test size for a few seconds.  run.py
# exits 1 when a ledger, digest or metric-name check fails
# (perfbench/README.md).
perfbench-smoke:
	for w in campaign-syntax steady-syntax roaming-location; do \
	  python3 perfbench/run.py --workload $$w --size tiny --seconds 3 --trace 0 || exit 1; \
	done

# The static gate over the .cmt typed ASTs: the hot-path allocation
# ratchet (vs analysis_baseline.json), metric-name and span/stage doc
# parity, typed polymorphic compare, and the determinism rules
# (docs/LINT.md).  @check builds a .cmt for every module, executables'
# included — .cmt files are a build artifact.
analyze:
	dune build @check
	dune exec bin/analyze/main.exe -- --json ANALYSIS.json lib bin

# Conscious re-ratchet: rewrite analysis_baseline.json from the
# current tree.  Review the diff — a count going up is a regression
# you are choosing to accept.
analyze-baseline:
	dune build @check
	dune exec bin/analyze/main.exe -- --write-baseline lib bin

determinism:
	scripts/check_determinism.sh

examples:
	dune exec examples/quickstart.exe
	dune exec examples/campus_mail.exe
	dune exec examples/roaming_users.exe
	dune exec examples/marketing_blast.exe
	dune exec examples/directory_assistance.exe

# Non-test source size, the number ROADMAP.md tracks: lines of every
# .ml/.mli under lib, bin and bench.
loc:
	@find lib bin bench \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l

clean:
	dune clean
