(* Unit tests of the shared delivery pipeline with stub callbacks —
   isolating the §3.1.2 machinery (now including the quorum
   replication rounds) from any full system. *)

let nm u = Naming.Name.make ~region:"r0" ~host:"H1" ~user:u

(* A two-host / two-server line: H1 - S1 - S2 - H2. *)
let tiny_world ?tracer ?ledger () =
  let g = Netsim.Graph.create () in
  let h1 = Netsim.Graph.add_node ~label:"H1" ~kind:Netsim.Graph.Host ~region:"r0" g in
  let s1 = Netsim.Graph.add_node ~label:"S1" ~kind:Netsim.Graph.Server ~region:"r0" g in
  let s2 = Netsim.Graph.add_node ~label:"S2" ~kind:Netsim.Graph.Server ~region:"r0" g in
  let h2 = Netsim.Graph.add_node ~label:"H2" ~kind:Netsim.Graph.Host ~region:"r0" g in
  Netsim.Graph.add_edge g h1 s1 1.;
  Netsim.Graph.add_edge g s1 s2 1.;
  Netsim.Graph.add_edge g s2 h2 1.;
  let engine = Dsim.Engine.create () in
  let counters = Dsim.Stats.Counter.create () in
  let pipeline_ref = ref None in
  let the_pipeline () = Option.get !pipeline_ref in
  let storage =
    Mail.Replica_group.create ~counters
      ~chain_of:(fun _ -> [ s2; s1 ])
      ~is_up:(fun node -> Netsim.Net.is_up (Mail.Pipeline.net (the_pipeline ())) node)
      ()
  in
  Mail.Replica_group.add_holder storage ~node:s1 ~region:"r0";
  Mail.Replica_group.add_holder storage ~node:s2 ~region:"r0";
  let deposits = ref [] in
  let acks = ref [] in
  let intern = Naming.Intern.create () in
  let callbacks =
    {
      Mail.Pipeline.region_servers = (fun r -> if r = "r0" then [ s1; s2 ] else []);
      uid_of = Naming.Intern.intern intern;
      name_of_uid = Naming.Intern.name intern;
      canonical_uid = Fun.id;
      authority_of_uid = (fun _ -> [ s2; s1 ]);
      notify_target_uid = (fun _ -> Some h2);
      submit_servers = (fun _ -> [ s1; s2 ]);
      on_deposit =
        (fun m ~on ~ack ->
          deposits := (m.Mail.Message.id, on) :: !deposits;
          acks := (m.Mail.Message.id, ack) :: !acks);
      cached_authority = (fun ~at:_ _ -> None);
      on_forward_resolved = (fun ~at:_ _ _ -> ());
      on_undeliverable = (fun _ ~reason:_ -> ());
      on_redirected = (fun _ ~old_name:_ -> ());
      on_ctrl = (fun _ ~time:_ ~src:_ () -> ());
    }
  in
  let pipeline =
    Mail.Pipeline.create ~engine ~graph:g ~counters ?tracer ?ledger ~storage
      {
        Mail.Pipeline.default_pipeline_config with
        retry_timeout = 20.;
        resubmit_timeout = 200.;
        max_retries = 20;
      }
      callbacks
  in
  pipeline_ref := Some pipeline;
  (engine, pipeline, counters, deposits, acks, (h1, s1, s2, h2))

let agent h1 =
  Mail.User_agent.create ~name:(nm "alice") ~host:h1 ~authority:[ 1; 2 ] ()

let msg id = Mail.Message.create ~id ~sender:(nm "alice") ~recipient:(nm "bob") ~submitted_at:0. ()

let test_deposit_on_first_active () =
  let engine, pipeline, counters, deposits, acks, (h1, _, s2, _) = tiny_world () in
  let m = msg 1 in
  Mail.Pipeline.submit pipeline ~sender_agent:(agent h1) ~msg:m;
  Dsim.Engine.run engine;
  Alcotest.(check bool) "deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check (list (pair int int))) "on the authority head" [ (1, s2) ] !deposits;
  Alcotest.(check bool) "acked at quorum" true
    (!acks = [ (1, Mail.Pipeline.Quorum) ]);
  Alcotest.(check int) "both chain members hold a copy" 2
    (Dsim.Stats.Counter.get counters "replica_copy_writes");
  Alcotest.(check int) "notified" 1 (Dsim.Stats.Counter.get counters "notifications");
  Alcotest.(check int) "no pendings left" 0 (Mail.Pipeline.pending_count pipeline)

let test_deposit_falls_back () =
  let engine, pipeline, _, deposits, acks, (h1, s1, s2, _) = tiny_world () in
  Netsim.Net.set_down (Mail.Pipeline.net pipeline) s2;
  let m = msg 2 in
  Mail.Pipeline.submit pipeline ~sender_agent:(agent h1) ~msg:m;
  Dsim.Engine.run engine;
  Alcotest.(check bool) "deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check (list (pair int int))) "on the live secondary" [ (2, s1) ] !deposits;
  (* The quorum of the 2-chain is 2 and the primary stayed down, so
     the round exhausts its budget and acks degraded — the mail is
     stored, just under-replicated. *)
  Alcotest.(check bool) "acked degraded" true (!acks = [ (2, Mail.Pipeline.Degraded) ])

let test_retry_after_recovery () =
  let engine, pipeline, counters, _, _, (h1, s1, s2, _) = tiny_world () in
  (* Both servers down at submit: the submit is deferred; recovery at
     t=100 lets the deferred submission complete. *)
  Netsim.Net.set_down (Mail.Pipeline.net pipeline) s1;
  Netsim.Net.set_down (Mail.Pipeline.net pipeline) s2;
  let m = msg 3 in
  Mail.Pipeline.submit pipeline ~sender_agent:(agent h1) ~msg:m;
  ignore
    (Dsim.Engine.schedule_at engine 100. (fun () ->
         Netsim.Net.set_up (Mail.Pipeline.net pipeline) s1;
         Netsim.Net.set_up (Mail.Pipeline.net pipeline) s2));
  Dsim.Engine.run engine;
  Alcotest.(check bool) "eventually deposited" true (Mail.Message.is_deposited m);
  Alcotest.(check bool) "submission was deferred" true
    (Dsim.Stats.Counter.get counters "submit_deferred" > 0)

let test_unresolvable_region_counted () =
  let tracer = Telemetry.Tracer.create () in
  let ledger = Mail.Ledger.create () in
  let engine, pipeline, counters, _, _, (h1, _, _, _) = tiny_world ~tracer ~ledger () in
  let m =
    Mail.Message.create ~id:4 ~sender:(nm "alice")
      ~recipient:(Naming.Name.make ~region:"mars" ~host:"x" ~user:"marvin")
      ~submitted_at:0. ()
  in
  Mail.Pipeline.submit pipeline ~sender_agent:(agent h1) ~msg:m;
  Dsim.Engine.run ~until:150. engine;
  Alcotest.(check bool) "unresolvable counted" true
    (Dsim.Stats.Counter.get counters "unresolvable" > 0);
  Alcotest.(check bool) "not deposited" false (Mail.Message.is_deposited m);
  (* The reason lands on the message's root span and in the ledger. *)
  let root = Option.get (Mail.Message.span m) in
  Alcotest.(check string) "root span" "message" root.Telemetry.Span.name;
  Alcotest.(check bool) "root span finished" true (Telemetry.Span.is_finished root);
  Alcotest.(check (option string)) "outcome attribute" (Some "unknown region")
    (Telemetry.Span.attr root "outcome");
  let v = Mail.Ledger.check ledger in
  Alcotest.(check int) "ledger counts it undeliverable" 1 v.Mail.Ledger.undeliverable;
  Alcotest.(check int) "nothing lost" 0 v.Mail.Ledger.lost

let test_retransmitted_deposit_reacked () =
  (* A finished round must re-acknowledge retransmitted Deposits from
     the completed table instead of reopening replication. *)
  let engine, pipeline, counters, deposits, _, (h1, s1, s2, _) = tiny_world () in
  let m = msg 5 in
  Mail.Pipeline.submit pipeline ~sender_agent:(agent h1) ~msg:m;
  Dsim.Engine.run engine;
  let sends_before = Dsim.Stats.Counter.get counters "replica_replicate_sends" in
  ignore
    (Netsim.Net.send (Mail.Pipeline.net pipeline) ~src:s1 ~dst:s2
       (Mail.Pipeline.Deposit m));
  Dsim.Engine.run engine;
  Alcotest.(check int) "round not reopened" sends_before
    (Dsim.Stats.Counter.get counters "replica_replicate_sends");
  Alcotest.(check int) "on_deposit fired once" 1 (List.length !deposits)

let test_ctrl_dispatch () =
  let g = Netsim.Graph.create () in
  let a = Netsim.Graph.add_node ~kind:Netsim.Graph.Server ~region:"r0" g in
  let b = Netsim.Graph.add_node ~kind:Netsim.Graph.Server ~region:"r0" g in
  Netsim.Graph.add_edge g a b 1.;
  let engine = Dsim.Engine.create () in
  let counters = Dsim.Stats.Counter.create () in
  let got = ref None in
  let storage =
    Mail.Replica_group.create ~counters
      ~chain_of:(fun _ -> [ a ])
      ~is_up:(fun _ -> true)
      ()
  in
  Mail.Replica_group.add_holder storage ~node:a ~region:"r0";
  Mail.Replica_group.add_holder storage ~node:b ~region:"r0";
  let intern = Naming.Intern.create () in
  let callbacks =
    {
      Mail.Pipeline.region_servers = (fun _ -> [ a; b ]);
      uid_of = Naming.Intern.intern intern;
      name_of_uid = Naming.Intern.name intern;
      canonical_uid = Fun.id;
      authority_of_uid = (fun _ -> [ a ]);
      notify_target_uid = (fun _ -> None);
      submit_servers = (fun _ -> [ a ]);
      on_deposit = (fun _ ~on:_ ~ack:_ -> ());
      cached_authority = (fun ~at:_ _ -> None);
      on_forward_resolved = (fun ~at:_ _ _ -> ());
      on_undeliverable = (fun _ ~reason:_ -> ());
      on_redirected = (fun _ ~old_name:_ -> ());
      on_ctrl = (fun node ~time:_ ~src payload -> got := Some (node, src, payload));
    }
  in
  let pipeline =
    Mail.Pipeline.create ~engine ~graph:g ~counters ~storage Mail.Pipeline.default_pipeline_config callbacks
  in
  ignore (Netsim.Net.send (Mail.Pipeline.net pipeline) ~src:a ~dst:b (Mail.Pipeline.Ctrl "ping"));
  Dsim.Engine.run engine;
  Alcotest.(check bool) "ctrl delivered" true (!got = Some (b, a, "ping"))

let suite =
  [
    ( "pipeline",
      [
        Alcotest.test_case "deposit on first active" `Quick test_deposit_on_first_active;
        Alcotest.test_case "fallback to secondary" `Quick test_deposit_falls_back;
        Alcotest.test_case "retry after recovery" `Quick test_retry_after_recovery;
        Alcotest.test_case "unresolvable region" `Quick test_unresolvable_region_counted;
        Alcotest.test_case "retransmitted deposit re-acked" `Quick
          test_retransmitted_deposit_reacked;
        Alcotest.test_case "ctrl dispatch" `Quick test_ctrl_dispatch;
      ] );
  ]
