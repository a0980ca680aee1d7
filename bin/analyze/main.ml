(* mailsys.analyze CLI: run the static gate (the determinism rules,
   the hot-path allocation ratchet, metric-name and span doc parity,
   typed poly-compare — Analyze_core) over the .cmt files dune emitted
   for the given source directories.

     mailsys.analyze [options] [DIR...]        (default: lib bin)

   Options:
     --build DIR          build root holding the .cmt trees
                          (default _build/default)
     --baseline FILE      allocation baseline (default
                          analysis_baseline.json)
     --write-baseline     rewrite the baseline from the current tree
                          and exit 0 (the conscious-re-ratchet path)
     --json FILE          write the ANALYSIS.json report here
     --docs-metrics FILE  metric catalogue (default docs/METRICS.md)
     --docs-tracing FILE  span stage tables (default docs/TRACING.md)

   Requires a completed [dune build @check], which writes a .cmt for
   every module (a full build skips executables' modules that have an
   .mli).  Exits 1 when findings survive suppression, 2 on usage
   errors. *)

let usage () =
  prerr_endline
    "usage: mailsys.analyze [--build DIR] [--baseline FILE] \
     [--write-baseline] [--json FILE] [--docs-metrics FILE] \
     [--docs-tracing FILE] [DIR...]";
  exit 2

let () =
  let build = ref "_build/default" in
  let baseline_file = ref "analysis_baseline.json" in
  let write_baseline = ref false in
  let json_out = ref None in
  let metrics_doc = ref "docs/METRICS.md" in
  let tracing_doc = ref "docs/TRACING.md" in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--build" :: v :: rest -> build := v; parse rest
    | "--baseline" :: v :: rest -> baseline_file := v; parse rest
    | "--write-baseline" :: rest -> write_baseline := true; parse rest
    | "--json" :: v :: rest -> json_out := Some v; parse rest
    | "--docs-metrics" :: v :: rest -> metrics_doc := v; parse rest
    | "--docs-tracing" :: v :: rest -> tracing_doc := v; parse rest
    | s :: _ when String.length s > 1 && s.[0] = '-' ->
        Printf.eprintf "mailsys.analyze: unknown option %s\n" s;
        usage ()
    | d :: rest -> dirs := d :: !dirs; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs = match List.rev !dirs with [] -> [ "lib"; "bin" ] | ds -> ds in
  if not (Sys.file_exists !build) then begin
    Printf.eprintf
      "mailsys.analyze: build root %s not found — run `dune build` first \
       (.cmt files are a build artifact)\n"
      !build;
    exit 2
  end;
  let roots = List.map (Filename.concat !build) dirs in
  let missing = List.filter (fun p -> not (Sys.file_exists p)) roots in
  if missing <> [] then begin
    List.iter
      (Printf.eprintf
         "mailsys.analyze: no build tree at %s — run `dune build` first\n")
      missing;
    exit 2
  end;
  let cmts =
    List.fold_left (fun acc r -> Analyze_core.collect_cmts r acc) [] roots
    |> List.sort String.compare
  in
  if cmts = [] then begin
    Printf.eprintf "mailsys.analyze: no .cmt files under %s\n"
      (String.concat " " roots);
    exit 2
  end;
  let analysis =
    Analyze_core.analyze_tree ~baseline_file:!baseline_file
      ~metrics_doc:(!metrics_doc, []) ~tracing_doc:(!tracing_doc, []) cmts
  in
  if !write_baseline then begin
    let counts = Analyze_core.current_counts analysis.Analyze_core.an_facts in
    let oc = open_out !baseline_file in
    output_string oc
      (Telemetry.Json.to_string ~indent:2 (Analyze_core.baseline_to_json counts));
    output_string oc "\n";
    close_out oc;
    Printf.printf "mailsys.analyze: baseline written to %s (%d hot function(s))\n"
      !baseline_file (List.length counts);
    exit 0
  end;
  (match !json_out with
  | None -> ()
  | Some path ->
      let json =
        Analyze_core.report_to_json
          ~baseline:analysis.Analyze_core.an_baseline
          ~findings:analysis.Analyze_core.an_findings
          ~facts_list:analysis.Analyze_core.an_facts
      in
      let oc = open_out path in
      output_string oc (Telemetry.Json.to_string ~indent:2 json);
      output_string oc "\n";
      close_out oc);
  List.iter
    (fun (name, now, base) ->
      Printf.printf
        "mailsys.analyze: note: %s improved to %d allocation site(s) \
         (baseline %d) — ratchet down with `make analyze-baseline`\n"
        name now base)
    analysis.Analyze_core.an_improvements;
  match analysis.Analyze_core.an_findings with
  | [] ->
      Printf.printf "mailsys.analyze: clean (%s; %d compilation unit(s))\n"
        (String.concat " " dirs)
        (List.length analysis.Analyze_core.an_facts);
      exit 0
  | findings ->
      List.iter
        (fun v -> Format.printf "%a@." Analyze_core.pp_violation v)
        findings;
      Printf.eprintf "mailsys.analyze: %d finding(s)\n" (List.length findings);
      exit 1
