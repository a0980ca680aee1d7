(* Tests for the determinism linter (bin/lint) over the fixture corpus
   in [lint_fixtures/], plus the double-run determinism regression the
   linter exists to protect. *)

let fixture name = Filename.concat "lint_fixtures" name

(* (line, rule) pairs, in canonical order. *)
let findings path =
  Lint_core.check_file path
  |> List.sort Lint_core.compare_violation
  |> List.map (fun v -> (v.Lint_core.line, v.Lint_core.rule))

let check_findings msg expected path =
  Alcotest.(check (list (pair int string))) msg expected (findings path)

(* --- R1: unsorted fold escapes ----------------------------------------- *)

let test_unsorted_fold () =
  check_findings "fold consing without a sort is flagged"
    [ (4, "unsorted-fold") ]
    (fixture "bad_unsorted_fold.ml")

let test_sorted_fold_ok () =
  check_findings "sorted escape and pure aggregation pass" []
    (fixture "ok_sorted_fold.ml")

(* --- R2: polymorphic compare/hash -------------------------------------- *)

let test_poly_compare () =
  (* Bare [compare] is no longer a syntactic finding — the type-aware
     analyzer (bin/analyze, rule A4) flags it only at types where
     polymorphic comparison is actually unsafe.  Hashtbl.hash stays. *)
  check_findings "Hashtbl.hash flagged, bare compare left to the analyzer"
    [ (7, "poly-compare") ]
    (fixture "bad_poly_compare.ml")

let test_typed_compare_ok () =
  check_findings "typed comparators and a module-local compare pass" []
    (fixture "ok_typed_compare.ml")

(* --- suppressions spanning comment blocks -------------------------------- *)

let test_multiline_allow () =
  check_findings
    "allow annotations inside multi-line comment blocks suppress" []
    (fixture "ok_multiline_allow.ml")

(* --- R3: wall clock / ambient entropy ----------------------------------- *)

let test_wall_clock () =
  check_findings "Sys.time, Unix.gettimeofday and global Random are flagged"
    [ (3, "wall-clock"); (5, "wall-clock"); (7, "wall-clock") ]
    (fixture "bad_wall_clock.ml")

let test_suppression_ok () =
  check_findings "audited allow comments (preceding or same line) suppress" []
    (fixture "ok_suppressed.ml")

let test_bad_suppression () =
  (* A reason-less allow does not suppress (the finding survives) and is
     itself reported; so is an unknown rule name. *)
  check_findings "reason-less and unknown-rule allows are reported"
    [ (4, "bad-suppression"); (5, "wall-clock"); (7, "bad-suppression") ]
    (fixture "bad_suppression.ml")

(* --- R4: stdout/exit in library code ------------------------------------ *)

let test_stdout_in_lib () =
  check_findings "print/printf/exit under a lib/ path are flagged"
    [ (4, "stdout"); (6, "stdout"); (8, "stdout") ]
    (fixture "lib/bad_stdout.ml")

let test_stdout_outside_lib_ok () =
  (* The same constructs outside lib/ are fine: executables may print. *)
  let src = fixture "lib/bad_stdout.ml" in
  let copy = Filename.concat (Filename.get_temp_dir_name ()) "cli_stdout.ml" in
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin copy in
  output_string oc body;
  close_out oc;
  check_findings "no stdout findings outside lib/" [] copy;
  Sys.remove copy

(* --- R5: missing .mli (directory-level pass) ----------------------------- *)

let test_missing_mli () =
  let mli_violations =
    Lint_core.check_paths [ "lint_fixtures" ]
    |> List.filter (fun v -> String.equal v.Lint_core.rule "missing-mli")
    |> List.map (fun v -> v.Lint_core.file)
  in
  (* Only the module without an interface and without a file-level allow
     is reported: with_interface.ml has an .mli, bad_stdout.ml carries
     an audited allow. *)
  Alcotest.(check (list string))
    "exactly the uninterfaced module"
    [ fixture "lib/no_interface.ml" ]
    mli_violations

let test_check_paths_aggregates () =
  (* The directory pass finds every per-file violation too, sorted. *)
  let vs = Lint_core.check_paths [ "lint_fixtures" ] in
  let count rule =
    List.length (List.filter (fun v -> String.equal v.Lint_core.rule rule) vs)
  in
  Alcotest.(check int) "unsorted-fold count" 1 (count "unsorted-fold");
  Alcotest.(check int) "poly-compare count" 1 (count "poly-compare");
  Alcotest.(check int) "wall-clock count" 4 (count "wall-clock");
  Alcotest.(check int) "stdout count" 3 (count "stdout");
  Alcotest.(check int) "missing-mli count" 1 (count "missing-mli");
  Alcotest.(check int) "bad-suppression count" 2 (count "bad-suppression");
  let sorted = List.sort Lint_core.compare_violation vs in
  Alcotest.(check bool) "output is canonically sorted" true (vs = sorted)

(* --- determinism regression: the property the linter protects ------------ *)

let test_double_run_identical () =
  let spec =
    {
      Mail.Scenario.default_spec with
      duration = 1500.;
      mail_count = 100;
      check_period = 80.;
      faults = Some (Netsim.Fault.parse "crash:0.002/150");
    }
  in
  let run () = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) spec in
  let o1 = run () and o2 = run () in
  let metrics o =
    Telemetry.Json.to_string
      (Telemetry.Registry.to_json o.Mail.Scenario.metrics)
  in
  let ledger o =
    Telemetry.Json.to_string (Mail.Ledger.verdict_to_json o.Mail.Scenario.ledger)
  in
  Alcotest.(check string) "metrics export byte-identical" (metrics o1) (metrics o2);
  Alcotest.(check string) "ledger verdict byte-identical" (ledger o1) (ledger o2)

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "R1: unsorted fold flagged" `Quick test_unsorted_fold;
        Alcotest.test_case "R1: sorted fold passes" `Quick test_sorted_fold_ok;
        Alcotest.test_case "R2: poly compare flagged" `Quick test_poly_compare;
        Alcotest.test_case "R2: typed compare passes" `Quick test_typed_compare_ok;
        Alcotest.test_case "R3: wall clock flagged" `Quick test_wall_clock;
        Alcotest.test_case "suppression: audited allows work" `Quick
          test_suppression_ok;
        Alcotest.test_case "suppression: multi-line comment blocks" `Quick
          test_multiline_allow;
        Alcotest.test_case "suppression: unaudited allows reported" `Quick
          test_bad_suppression;
        Alcotest.test_case "R4: stdout in lib flagged" `Quick test_stdout_in_lib;
        Alcotest.test_case "R4: stdout outside lib passes" `Quick
          test_stdout_outside_lib_ok;
        Alcotest.test_case "R5: missing mli flagged" `Quick test_missing_mli;
        Alcotest.test_case "directory pass aggregates and sorts" `Quick
          test_check_paths_aggregates;
        Alcotest.test_case "double-run: metrics and ledger identical" `Slow
          test_double_run_identical;
      ] );
  ]
