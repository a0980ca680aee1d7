(* Tests for per-message span tracing: the Tracer collector, trace
   reassembly, the critical-path analyzer, and the end-to-end
   propagation through all three mail-system designs. *)

module Span = Telemetry.Span
module Tracer = Telemetry.Tracer

(* --- collector ---------------------------------------------------------- *)

let test_span_lifecycle () =
  let tr = Tracer.create () in
  let s = Tracer.span tr ~name:"stage" ~start:1. () in
  Alcotest.(check bool) "open" false (Span.is_finished s);
  Alcotest.(check bool) "no duration yet" true (Span.duration s = None);
  Span.finish s ~at:3.;
  Span.finish s ~at:99.;
  Alcotest.(check (float 1e-9)) "first finish wins" 2.
    (Option.get (Span.duration s));
  Span.set_attr s "k" "v1";
  Span.set_attr s "k" "v2";
  Alcotest.(check (option string)) "attr overridden" (Some "v2") (Span.attr s "k");
  Alcotest.(check (option string)) "missing attr" None (Span.attr s "nope")

(* [n] two-span traces: a root and one child each. *)
let two_span_traces tr n =
  for i = 1 to n do
    let start = float_of_int i in
    let root = Tracer.span tr ~name:(Printf.sprintf "r%d" i) ~start () in
    ignore (Tracer.span tr ~parent:root ~name:"child" ~start ~finish:start ())
  done

let test_tracer_capacity_bounds () =
  (* Past capacity the tracer thins whole traces out, never single
     spans, keeps the survivors oldest first, and [total] keeps
     counting. *)
  let tr = Tracer.create ~capacity:5 () in
  two_span_traces tr 8;
  let retained = Tracer.spans tr in
  let n = List.length retained in
  Alcotest.(check bool) "bounded by capacity" true (n <= 5);
  Alcotest.(check bool) "something kept" true (n > 0);
  Alcotest.(check int) "total counts all" 16 (Tracer.total tr);
  Alcotest.(check int) "dropped = total - retained" (16 - n) (Tracer.dropped tr);
  Alcotest.(check bool) "kept spans form whole traces" true
    (List.for_all
       (fun (_, spans) -> List.length spans = 2 && Tracer.is_connected spans)
       (Tracer.traces tr));
  Alcotest.(check (list int)) "oldest first"
    (List.sort Int.compare (List.map (fun (s : Span.t) -> s.Span.span_id) retained))
    (List.map (fun (s : Span.t) -> s.Span.span_id) retained);
  Alcotest.(check int) "count sees retained only" (n / 2)
    (Tracer.count ~name:"child" tr);
  (* A thinned trace stays out: its later spans are counted, not kept. *)
  let gone =
    List.find (fun id -> not (Tracer.keeps tr id)) (List.init 8 Fun.id)
  in
  ignore (Tracer.span tr ~trace:gone ~name:"late" ~start:9. ());
  Alcotest.(check int) "late span of a thinned trace dropped" 0
    (Tracer.count ~name:"late" tr);
  Alcotest.(check int) "late span counted" 17 (Tracer.total tr);
  Tracer.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Tracer.spans tr));
  Alcotest.(check int) "total reset" 0 (Tracer.total tr);
  (* Up to capacity nothing is thinned. *)
  let full = Tracer.create ~capacity:4 () in
  two_span_traces full 2;
  Alcotest.(check int) "at capacity all kept" 4 (List.length (Tracer.spans full));
  Alcotest.(check int) "no drops" 0 (Tracer.dropped full)

let test_tracer_pinned_survive () =
  (* Pinned traces are never thinned: one pinned before the overflow
     and three pinned into an already-thinned, full buffer (how a
     fault campaign's windows arrive at run end) all stay. *)
  let tr = Tracer.create ~capacity:6 () in
  let pin_span name start =
    let trace = Tracer.open_trace tr in
    Tracer.pin tr trace;
    ignore (Tracer.span tr ~trace ~name ~start ~finish:start ())
  in
  pin_span "early" 0.;
  two_span_traces tr 20;
  List.iter (fun i -> pin_span "late" (float_of_int (20 + i))) [ 1; 2; 3 ];
  let n = List.length (Tracer.spans tr) in
  Alcotest.(check bool) "bounded by capacity" true (n <= 6);
  Alcotest.(check int) "early pin kept" 1 (Tracer.count ~name:"early" tr);
  Alcotest.(check int) "late pins kept" 3 (Tracer.count ~name:"late" tr);
  Alcotest.(check int) "total counts all" 44 (Tracer.total tr);
  Alcotest.(check bool) "unpinned survivors are whole" true
    (List.for_all
       (fun (_, spans) ->
         match spans with
         | [ (s : Span.t) ] -> s.Span.name = "early" || s.Span.name = "late"
         | _ -> List.length spans = 2 && Tracer.is_connected spans)
       (Tracer.traces tr))

(* A tracer op: open a trace, or add a child span to the [k]-th trace
   opened so far (modulo their count). *)
type op = Open | Child of int

let run_ops tr ops =
  let roots = ref [||] in
  List.iteri
    (fun i op ->
      let start = float_of_int i in
      match op with
      | Open ->
          let trace = Tracer.open_trace tr in
          let root = Tracer.span tr ~trace ~name:"root" ~start () in
          roots := Array.append !roots [| root |]
      | Child k ->
          let n = Array.length !roots in
          if n > 0 then begin
            let root = !roots.(k mod n) in
            if Tracer.keeps tr root.Span.trace_id then
              ignore
                (Tracer.span tr ~parent:root ~name:"child" ~start ~finish:start ())
          end)
    ops

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (frequency [ (1, return Open); (3, map (fun k -> Child k) (int_bound 50)) ]))

let print_ops ops =
  String.concat " "
    (List.map (function Open -> "O" | Child k -> Printf.sprintf "c%d" k) ops)

(* Span ids differ once thinning skips children, so traces compare by
   trace, name and start. *)
let span_key (s : Span.t) = (s.Span.trace_id, s.Span.name, s.Span.start)

let prop_tracer_whole_traces =
  QCheck.Test.make ~name:"tracer retains whole traces within capacity" ~count:300
    QCheck.(pair (make ~print:print_ops gen_ops) (int_range 1 24))
    (fun (ops, capacity) ->
      let bounded = Tracer.create ~capacity () in
      run_ops bounded ops;
      let reference = Tracer.create ~capacity:10_000 () in
      run_ops reference ops;
      let again = Tracer.create ~capacity () in
      run_ops again ops;
      let keys tr = List.map (fun s -> (span_key s, s.Span.span_id)) (Tracer.spans tr) in
      let retained = Tracer.spans bounded in
      List.length retained <= capacity
      && List.for_all
           (fun (id, spans) ->
             List.map span_key spans = List.map span_key (Tracer.trace_spans reference id))
           (Tracer.traces bounded)
      && (Tracer.total reference > capacity || keys bounded = keys reference)
      && keys bounded = keys again
      && Tracer.total bounded = Tracer.total again)

let test_reassembly () =
  let tr = Tracer.create () in
  let root = Tracer.span tr ~name:"root" ~start:0. () in
  let a = Tracer.span tr ~parent:root ~name:"a" ~start:1. ~finish:2. () in
  let _a1 = Tracer.span tr ~parent:a ~name:"a1" ~start:1.5 ~finish:1.8 () in
  let _b = Tracer.span tr ~parent:root ~name:"b" ~start:3. ~finish:4. () in
  let other = Tracer.span tr ~name:"other-root" ~start:0. () in
  Alcotest.(check bool) "distinct traces" true
    (other.Span.trace_id <> root.Span.trace_id);
  Alcotest.(check int) "two traces" 2 (List.length (Tracer.trace_ids tr));
  let spans = Tracer.trace_spans tr root.Span.trace_id in
  Alcotest.(check int) "four spans in trace" 4 (List.length spans);
  Alcotest.(check bool) "single connected tree" true (Tracer.is_connected spans);
  (match Tracer.trees tr root.Span.trace_id with
  | [ t ] ->
      Alcotest.(check string) "root on top" "root" t.Tracer.span.Span.name;
      Alcotest.(check (list string)) "children ordered by start" [ "a"; "b" ]
        (List.map (fun c -> c.Tracer.span.Span.name) t.Tracer.children)
  | l -> Alcotest.failf "expected one tree, got %d" (List.length l));
  (* A span whose parent is not in the list becomes a root. *)
  let orphan = { a with Span.parent = Some 99999; span_id = 424242 } in
  Alcotest.(check bool) "orphan breaks connectivity" false
    (Tracer.is_connected (orphan :: spans))

let test_exports () =
  let tr = Tracer.create () in
  let root = Tracer.span tr ~name:"message" ~start:0. ~finish:10. () in
  ignore
    (Tracer.span tr ~parent:root ~name:"submit" ~start:0. ~finish:1.
       ~attrs:[ ("server", "S1") ] ());
  let lines = String.split_on_char '\n' (String.trim (Tracer.to_jsonl tr)) in
  Alcotest.(check int) "one line per span" 2 (List.length lines);
  List.iter
    (fun line ->
      match Telemetry.Json.of_string line with
      | Telemetry.Json.Obj fields ->
          Alcotest.(check bool) "has trace field" true
            (List.mem_assoc "trace" fields)
      | _ -> Alcotest.fail "span line is not an object")
    lines;
  match Tracer.to_chrome tr with
  | Telemetry.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Telemetry.Json.List events ->
          Alcotest.(check int) "one event per span" 2 (List.length events);
          List.iter
            (fun ev ->
              Alcotest.(check (option string)) "complete event"
                (Some "X")
                (match Telemetry.Json.member "ph" ev with
                | Some (Telemetry.Json.String s) -> Some s
                | _ -> None))
            events
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "chrome export is not an object"

(* --- critical path ------------------------------------------------------ *)

let test_critical_path_synthetic () =
  let tr = Tracer.create () in
  let mk total_wait =
    let root = Tracer.span tr ~name:"message" ~start:0. ~finish:(10. +. total_wait) () in
    ignore (Tracer.span tr ~parent:root ~name:"submit" ~start:0. ~finish:10. ());
    (* two queue waits per trace: the analyzer sums same-name spans *)
    ignore
      (Tracer.span tr ~parent:root ~name:"queue_wait" ~start:10.
         ~finish:(10. +. (total_wait /. 2.)) ());
    ignore
      (Tracer.span tr ~parent:root ~name:"queue_wait" ~start:12.
         ~finish:(12. +. (total_wait /. 2.)) ())
  in
  mk 2.;
  mk 4.;
  mk 6.;
  (* an unfinished root counts as a trace but not a complete one *)
  ignore (Tracer.span tr ~name:"message" ~start:0. ());
  (* a foreign trace family is not selected *)
  ignore (Tracer.span tr ~name:"getmail.check" ~start:0. ~finish:1. ());
  let r = Telemetry.Critical_path.analyze tr in
  Alcotest.(check string) "root name" "message" r.Telemetry.Critical_path.root;
  Alcotest.(check int) "traces" 4 r.Telemetry.Critical_path.traces;
  Alcotest.(check int) "complete" 3 r.Telemetry.Critical_path.complete;
  let stage name =
    List.find
      (fun s -> String.equal s.Telemetry.Critical_path.stage name)
      r.Telemetry.Critical_path.stages
  in
  let qw = stage "queue_wait" in
  Alcotest.(check int) "queue_wait traces" 3 qw.Telemetry.Critical_path.traces;
  Alcotest.(check int) "queue_wait spans" 6 qw.Telemetry.Critical_path.spans;
  Alcotest.(check (float 1e-9)) "queue_wait mean of per-trace sums" 4.
    qw.Telemetry.Critical_path.mean;
  Alcotest.(check (float 1e-9)) "queue_wait p50" 4. qw.Telemetry.Critical_path.p50;
  Alcotest.(check (float 1e-9)) "queue_wait max" 6. qw.Telemetry.Critical_path.max;
  let total = stage "total" in
  Alcotest.(check (float 1e-9)) "total p50" 14. total.Telemetry.Critical_path.p50;
  Alcotest.(check (float 1e-9)) "total p90 interpolates" 15.6
    total.Telemetry.Critical_path.p90;
  (* JSON export keeps the stage list *)
  match Telemetry.Critical_path.to_json r with
  | Telemetry.Json.Obj fields -> (
      match List.assoc "stages" fields with
      | Telemetry.Json.List l ->
          Alcotest.(check int) "stages exported"
            (List.length r.Telemetry.Critical_path.stages)
            (List.length l)
      | _ -> Alcotest.fail "stages is not a list")
  | _ -> Alcotest.fail "report is not an object"

(* --- end-to-end through the designs ------------------------------------- *)

let small_spec =
  {
    Mail.Scenario.default_spec with
    duration = 2000.;
    mail_count = 120;
    check_period = 80.;
  }

let hier_site seed =
  let rng = Dsim.Rng.create seed in
  let g = Netsim.Topology.hierarchical ~rng Netsim.Topology.default_hierarchy in
  let hosts = Netsim.Graph.nodes_of_kind g Netsim.Graph.Host in
  let servers = Netsim.Graph.nodes_of_kind g Netsim.Graph.Server in
  { Netsim.Topology.graph = g; hosts = List.map (fun h -> (h, 10)) hosts; servers }

let message_traces tracer =
  List.filter
    (fun (_, spans) ->
      List.exists
        (fun (s : Span.t) -> s.Span.parent = None && s.Span.name = "message")
        spans)
    (Tracer.traces tracer)

let stage_names spans =
  List.sort_uniq String.compare (List.map (fun (s : Span.t) -> s.Span.name) spans)

let check_message_traces ~label (o : Mail.Scenario.outcome) =
  let traces = message_traces o.Mail.Scenario.tracer in
  Alcotest.(check bool) (label ^ ": non-empty trace") true (traces <> []);
  (* Every reassembled message trace is one connected span tree
     covering the full lifecycle: submit → queue-wait → deposit →
     retrieval poll (plus the mailbox dwell). *)
  let full =
    List.filter
      (fun (_, spans) ->
        Tracer.is_connected spans
        && List.for_all
             (fun stage -> List.mem stage (stage_names spans))
             [ "submit"; "queue_wait"; "deposit"; "getmail.poll"; "mailbox.wait" ])
      traces
  in
  Alcotest.(check bool) (label ^ ": >=1 full connected lifecycle tree") true
    (full <> []);
  List.iter
    (fun (_, spans) ->
      Alcotest.(check bool) (label ^ ": trace connected") true
        (Tracer.is_connected spans))
    traces

let test_syntax_end_to_end () =
  let config =
    { Mail.Syntax_system.default_config with service_rate = Some 1.0 }
  in
  let o = Mail.Scenario.run_syntax ~config (Netsim.Topology.paper_fig1 ()) small_spec in
  check_message_traces ~label:"syntax" o;
  (* every injected message opened a trace, and all were retrieved *)
  Alcotest.(check int) "one message trace per submission" 120
    (List.length (message_traces o.Mail.Scenario.tracer));
  List.iter
    (fun (_, spans) ->
      let root =
        List.find (fun (s : Span.t) -> s.Span.parent = None) spans
      in
      Alcotest.(check bool) "message trace complete" true (Span.is_finished root))
    (message_traces o.Mail.Scenario.tracer);
  (* under the service model, queue waits reconstructed from spans
     agree with the pipeline's summary statistics *)
  let r = Telemetry.Critical_path.analyze o.Mail.Scenario.tracer in
  let qw =
    List.find
      (fun s -> s.Telemetry.Critical_path.stage = "queue_wait")
      r.Telemetry.Critical_path.stages
  in
  Alcotest.(check bool) "queue_wait observed" true
    (qw.Telemetry.Critical_path.spans > 0);
  let gauge name = Telemetry.Registry.get_gauge o.Mail.Scenario.metrics name in
  Alcotest.(check (float 1e-9)) "trace_spans gauge matches tracer"
    (float_of_int (Tracer.total o.Mail.Scenario.tracer))
    (gauge "trace_spans")

let test_all_designs_trace () =
  let syn = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) small_spec in
  check_message_traces ~label:"syntax" syn;
  let loc = Mail.Scenario.run_location ~roam_probability:0.2 (hier_site 11) small_spec in
  check_message_traces ~label:"location" loc;
  let att = Mail.Scenario.run_attribute ~roam_probability:0.1 (hier_site 11) small_spec in
  check_message_traces ~label:"attribute" att

let test_sampled_trace_completes_for_any_user () =
  (* Regression: under [span_sample > 1] a sampled message must get
     its mailbox.wait span and a finished root whichever user's check
     retrieves it (checks used to be sampled by user id, and an
     unsampled check left the message trace open). *)
  let config = { Mail.Syntax_system.default_config with span_sample = 4 } in
  let sys = Mail.Syntax_system.create ~config (hier_site 7) in
  let users = Array.of_list (Mail.Syntax_system.users sys) in
  let n = Array.length users in
  for i = 0 to 199 do
    ignore
      (Mail.Syntax_system.submit_at sys
         ~at:(float_of_int i)
         ~sender:users.(i mod n)
         ~recipient:users.((i * 7 + 3) mod n)
         ())
  done;
  Mail.Syntax_system.quiesce sys;
  Array.iter (fun u -> ignore (Mail.Syntax_system.check_mail sys u)) users;
  let r = Telemetry.Critical_path.analyze (Mail.Syntax_system.tracer sys) in
  Alcotest.(check int) "one trace per sampled message" 50
    r.Telemetry.Critical_path.traces;
  Alcotest.(check int) "every sampled trace complete"
    r.Telemetry.Critical_path.traces r.Telemetry.Critical_path.complete

let test_getmail_one_poll_per_check () =
  (* §3.1.2c: under no failures the retrieval traces must show ~1 poll
     per check — the claim behind [final_polls_per_check], asserted
     here from the reassembled spans instead of the counters. *)
  let o = Mail.Scenario.run_syntax (Netsim.Topology.paper_fig1 ()) small_spec in
  let checks = ref 0 and polls = ref 0 in
  List.iter
    (fun (_, spans) ->
      match
        List.find_opt
          (fun (s : Span.t) -> s.Span.parent = None && s.Span.name = "getmail.check")
          spans
      with
      | None -> ()
      | Some root ->
          incr checks;
          Alcotest.(check bool) "check span finished" true (Span.is_finished root);
          let in_trace =
            List.filter (fun (s : Span.t) -> s.Span.name = "getmail.poll") spans
          in
          polls := !polls + List.length in_trace;
          (* the root's attributes summarise its own children *)
          Alcotest.(check (option string)) "polls attr matches children"
            (Some (string_of_int (List.length in_trace)))
            (Span.attr root "polls");
          Alcotest.(check (option string)) "no failed polls" (Some "0")
            (Span.attr root "failed_polls"))
    (Tracer.traces o.Mail.Scenario.tracer);
  Alcotest.(check bool) "checks traced" true (!checks > 0);
  (* trace-derived ratio equals the counter-derived one... *)
  Alcotest.(check int) "poll spans = polls counter"
    (Telemetry.Registry.get_counter o.Mail.Scenario.metrics "polls")
    !polls;
  Alcotest.(check int) "check traces = checks counter"
    (Telemetry.Registry.get_counter o.Mail.Scenario.metrics "checks")
    !checks;
  let per_check = float_of_int !polls /. float_of_int !checks in
  Alcotest.(check (float 1e-9)) "agrees with final_polls_per_check"
    o.Mail.Scenario.final_polls_per_check per_check;
  (* ...and shows the paper's headline number. *)
  Alcotest.(check bool) "~1 poll per check" true
    (per_check >= 1.0 && per_check < 1.15)

let suite =
  [
    ( "tracing",
      [
        Alcotest.test_case "span lifecycle" `Quick test_span_lifecycle;
        Alcotest.test_case "tracer ring-buffer bounds" `Quick
          test_tracer_capacity_bounds;
        Alcotest.test_case "pinned traces survive thinning" `Quick
          test_tracer_pinned_survive;
        QCheck_alcotest.to_alcotest prop_tracer_whole_traces;
        Alcotest.test_case "trace reassembly" `Quick test_reassembly;
        Alcotest.test_case "JSONL and Chrome exports" `Quick test_exports;
        Alcotest.test_case "critical-path analyzer" `Quick
          test_critical_path_synthetic;
        Alcotest.test_case "syntax end-to-end trace" `Slow test_syntax_end_to_end;
        Alcotest.test_case "all designs produce lifecycle traces" `Slow
          test_all_designs_trace;
        Alcotest.test_case "sampled trace completes for any user" `Quick
          test_sampled_trace_completes_for_any_user;
        Alcotest.test_case "3.1.2c: one poll span per check" `Slow
          test_getmail_one_poll_per_check;
      ] );
  ]
