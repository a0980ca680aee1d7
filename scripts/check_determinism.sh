#!/bin/sh
# Double-run reproducibility harness.
#
# Runs the fault campaign (mailsim faults -> LEDGER.json) and the
# benchmark snapshot (bench -> BENCH.json + TRACE.jsonl) twice, each
# under OCAMLRUNPARAM=R (randomized Hashtbl seeds), and fails unless
# every artifact is byte-identical between the two runs.  Randomized
# hashing makes any Hashtbl-iteration-order leak visible immediately;
# the companion static pass is mailsys.analyze (`make analyze`).
#
# Usage: scripts/check_determinism.sh   (from the repository root)
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"

dune build @all >/dev/null

WORK=$(mktemp -d "${TMPDIR:-/tmp}/mailsys-determinism.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

one_run() {
  dir="$1"
  mkdir -p "$dir"
  (
    cd "$dir"
    # --stable keeps the embedded metric registries free of volatile
    # (wall-clock-derived) metrics so the artifacts byte-compare.
    OCAMLRUNPARAM=R dune exec --root "$ROOT" bin/mailsim.exe -- \
      faults --seed 1 --stable --ledger-out LEDGER.json >faults.txt
    # A replicated run under the standard campaign: quorum deposit,
    # failover GetMail and recovery resync must all replay
    # byte-identically — SCALE.json carries the full ledger verdict
    # plus the replica and failover counters (docs/REPLICATION.md),
    # the SLO section, and the run writes the windowed metric
    # timeseries next to it (docs/MONITORING.md).
    OCAMLRUNPARAM=R dune exec --root "$ROOT" bin/mailsim.exe -- \
      scale --messages 2000 --replication 4 --stable \
      --json-out SCALE.json --timeseries-out TIMESERIES-scale.json >scale.txt
    # --scale-quick keeps the runs fast; --stable zeroes the scale
    # section's wall-clock-derived fields so BENCH.json (including the
    # scale benchmark's counters and critical path) byte-compares.
    OCAMLRUNPARAM=R dune exec --root "$ROOT" bench/main.exe -- \
      --skip-micro --scale-quick --stable >bench.txt
  )
}

echo "determinism: run 1 (OCAMLRUNPARAM=R)"
one_run "$WORK/run1"
echo "determinism: run 2 (OCAMLRUNPARAM=R)"
one_run "$WORK/run2"

status=0
for artifact in BENCH.json TRACE.jsonl LEDGER.json SCALE.json \
    TIMESERIES.json TIMESERIES-scale.json; do
  if cmp -s "$WORK/run1/$artifact" "$WORK/run2/$artifact"; then
    echo "determinism: $artifact byte-identical"
  else
    echo "determinism: FAIL — $artifact differs between identical seeded runs" >&2
    cmp "$WORK/run1/$artifact" "$WORK/run2/$artifact" >&2 || true
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "determinism: OK (BENCH.json, TRACE.jsonl, LEDGER.json, SCALE.json, TIMESERIES[-scale].json stable under randomized hash seeds)"
fi
exit "$status"
