type ('ctrl, 'd) t = {
  who : string;
  resolver : ('ctrl, 'd) resolver;
  state : 'd;
  engine : Dsim.Engine.t;
  pipeline : 'ctrl Pipeline.t;
  storage : Replica_group.t;
  region_servers : (string, Netsim.Graph.node list) Hashtbl.t;
  agents : (Naming.Name.t, User_agent.t) Hashtbl.t;
  intern : Naming.Intern.t;
      (* user names -> dense ids; the pipeline, storage and redirect
         hot paths all key on the id *)
  mutable agents_by_uid : User_agent.t option array;
  spaces : (string, Naming.Name_space.t) Hashtbl.t;
  redirects : (Naming.Name.t, Naming.Name.t) Hashtbl.t;
  redirects_uid : (int, int) Hashtbl.t;  (* mirror of [redirects], by id *)
  counters : Dsim.Stats.Counter.t;
  metrics : Telemetry.Registry.t;
  tracer : Telemetry.Tracer.t;
  ledger : Ledger.t;
  mutable next_id : Message.id;
  mutable submitted : Message.t list;
}

and ('ctrl, 'd) resolver = {
  authority_of_uid : ('ctrl, 'd) t -> int -> Netsim.Graph.node list;
  notify_target_uid : ('ctrl, 'd) t -> int -> Netsim.Graph.node option;
  submit_servers : ('ctrl, 'd) t -> User_agent.t -> Netsim.Graph.node list;
  cached_authority :
    ('ctrl, 'd) t -> at:Netsim.Graph.node -> Naming.Name.t ->
    Netsim.Graph.node list option;
  on_forward_resolved :
    ('ctrl, 'd) t -> at:Netsim.Graph.node -> Naming.Name.t ->
    Netsim.Graph.node list -> unit;
  on_undeliverable : ('ctrl, 'd) t -> Message.t -> reason:string -> unit;
  on_redirected : ('ctrl, 'd) t -> Message.t -> old_name:Naming.Name.t -> unit;
  on_ctrl :
    ('ctrl, 'd) t -> Netsim.Graph.node -> time:float -> src:Netsim.Graph.node ->
    'ctrl -> unit;
  after_check : ('ctrl, 'd) t -> User_agent.t -> User_agent.check_stats -> unit;
}

let region_of graph v =
  let r = Netsim.Graph.region graph v in
  if String.equal r "" then "r0" else r

module Ops = struct
  let state t = t.state
  let engine t = t.engine
  let pipeline t = t.pipeline
  let net t = Pipeline.net t.pipeline
  let graph t = Netsim.Net.graph (net t)
  let now t = Dsim.Engine.now t.engine
  let counters t = t.counters
  let count ?by t key = Dsim.Stats.Counter.incr ?by t.counters key
  let metrics t = t.metrics
  let tracer t = t.tracer
  let ledger t = t.ledger
  let submitted t = t.submitted
  let storage t = t.storage
  let server_nodes t = Replica_group.nodes t.storage

  let region_servers t region =
    Option.value ~default:[] (Hashtbl.find_opt t.region_servers region)

  let region_of_node t v = region_of (graph t) v

  let by_distance t host servers =
    let tree = Netsim.Shortest_path.dijkstra (graph t) host in
    let d = Netsim.Shortest_path.distance tree in
    List.sort (fun a b -> Float.compare (d a) (d b)) servers

  let space t region = Hashtbl.find_opt t.spaces region
  let iter_spaces t f = Hashtbl.iter (fun _ sp -> f sp) t.spaces

  (* --- users ------------------------------------------------------------ *)

  let users t =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.agents []
    |> List.sort Naming.Name.compare

  let find_agent t name = Hashtbl.find_opt t.agents name

  let agent t name =
    match find_agent t name with
    | Some a -> a
    | None ->
        invalid_arg
          (Printf.sprintf "%s: unknown user %s" t.who (Naming.Name.to_string name))

  let iter_agents t f = Hashtbl.iter f t.agents
  let uid_of t name = Naming.Intern.intern t.intern name
  let name_of_uid t uid = Naming.Intern.name t.intern uid

  let set_agent_uid t uid a =
    let n = Array.length t.agents_by_uid in
    if uid >= n then begin
      let arr = Array.make (max (2 * n) (uid + 1)) None in
      Array.blit t.agents_by_uid 0 arr 0 n;
      t.agents_by_uid <- arr
    end;
    t.agents_by_uid.(uid) <- a

  let agent_by_uid t uid =
    if uid >= 0 && uid < Array.length t.agents_by_uid then t.agents_by_uid.(uid)
    else None

  let uids t =
    let acc = ref [] in
    for uid = Array.length t.agents_by_uid - 1 downto 0 do
      (match t.agents_by_uid.(uid) with
      | Some _ -> acc := uid :: !acc
      | None -> ())
    done;
    !acc

  let rec canonical_uid t uid =
    match Hashtbl.find_opt t.redirects_uid uid with
    | Some target ->
        count t "redirects";
        canonical_uid t target
    | None -> uid

  let add_agent t name ~host ~authority =
    let uid = uid_of t name in
    let a = User_agent.create ~uid ~name ~host ~authority () in
    Hashtbl.replace t.agents name a;
    set_agent_uid t uid (Some a);
    match space t (Naming.Name.region name) with
    | Some sp ->
        Naming.Name_space.register sp name;
        Naming.Name_space.assign_context sp
          (Naming.Name_space.context_of sp name)
          authority
    | None -> ()

  let remove_agent t name =
    Hashtbl.remove t.agents name;
    set_agent_uid t (uid_of t name) None;
    match space t (Naming.Name.region name) with
    | Some sp -> Naming.Name_space.unregister sp name
    | None -> ()

  let migrate t name ~new_host ~authority =
    (* Names are only locally unique: if the user token is taken on the
       destination host, uniquify it (the "temporary inconvenience" of a
       §3.1.4 rename). *)
    let new_name =
      let region = region_of_node t new_host in
      let host = Netsim.Graph.label (graph t) new_host in
      let base = Naming.Name.user name in
      let rec pick i =
        let user = if i = 0 then base else Printf.sprintf "%s-m%d" base i in
        let n = Naming.Name.make ~region ~host ~user in
        if Hashtbl.mem t.agents n || Hashtbl.mem t.redirects n then pick (i + 1) else n
      in
      pick 0
    in
    (* Add at the new location, then delete at the old one, leaving a
       redirection. *)
    add_agent t new_name ~host:new_host ~authority:(authority new_name);
    remove_agent t name;
    Hashtbl.replace t.redirects name new_name;
    Hashtbl.replace t.redirects_uid (uid_of t name) (uid_of t new_name);
    count t "migrations";
    new_name

  let redirect_target t name = Hashtbl.find_opt t.redirects name

  (* --- mail -------------------------------------------------------------- *)

  let new_message t ~sender ~recipient ~subject ~body ~parts ~at =
    let id = t.next_id in
    t.next_id <- id + 1;
    let msg =
      Message.create ~id ~sender ~recipient ~recipient_uid:(uid_of t recipient)
        ~subject ~body ~parts ~submitted_at:at ()
    in
    t.submitted <- msg :: t.submitted;
    msg

  let submit_at t ~at ~sender ~recipient ?(subject = "") ?(body = "") ?(parts = []) () =
    let sender_agent = agent t sender in
    if not (Hashtbl.mem t.agents recipient || Hashtbl.mem t.redirects recipient) then
      invalid_arg
        (Printf.sprintf "%s.submit: unknown recipient %s" t.who
           (Naming.Name.to_string recipient));
    let msg = new_message t ~sender ~recipient ~subject ~body ~parts ~at in
    ignore
      (Dsim.Engine.schedule_at ~category:"mail.submit" t.engine at (fun () ->
           Pipeline.submit t.pipeline ~sender_agent ~msg));
    msg

  let view t = Replica_group.view t.storage

  let check_mail t name =
    let a = agent t name in
    let stats =
      User_agent.get_mail ~tracer:t.tracer ~ledger:t.ledger a ~view:(view t)
        ~now:(now t)
    in
    count t "checks";
    count ~by:stats.User_agent.polls t "polls";
    count ~by:stats.User_agent.failed_polls t "failed_polls";
    count ~by:stats.User_agent.retrieved t "retrieved";
    t.resolver.after_check t a stats;
    stats

  let check_mail_at t ~at name =
    ignore
      (Dsim.Engine.schedule_at ~category:"mail.check" t.engine at (fun () ->
           ignore (check_mail t name)))

  let compact t =
    let prunable = Pipeline.prunable t.pipeline ~ledger:t.ledger in
    let dropped =
      Hashtbl.fold
        (fun _ a acc -> acc + User_agent.compact a prunable)
        t.agents
        (Pipeline.compact t.pipeline prunable
        + Replica_group.compact t.storage prunable)
    in
    if dropped > 0 then count ~by:dropped t "compacted";
    dropped

  let publish_health t =
    Pipeline.publish_gauges t.pipeline t.metrics;
    Replica_group.publish_gauges t.storage ~users:(fun () -> uids t) t.metrics

  let run_until t horizon = Dsim.Engine.run ~until:horizon t.engine

  let quiesce ?(step = 1000.) ?(max_steps = 10000) t =
    let rec go n =
      if n < max_steps && Dsim.Engine.pending t.engine > 0 then begin
        Dsim.Engine.run ~until:(now t +. step) t.engine;
        go (n + 1)
      end
    in
    go 0
end

open Ops

(* Users u0 … u(n-1) on every site host, hosts in site order: the
   order fixes the interned ids. *)
let populate t (site : Netsim.Topology.mail_site) ~users_per_host authority =
  List.iter
    (fun (host, _population) ->
      let region = region_of_node t host in
      let host_label = Netsim.Graph.label (graph t) host in
      for slot = 0 to users_per_host - 1 do
        let name =
          Naming.Name.make ~region ~host:host_label ~user:(Printf.sprintf "u%d" slot)
        in
        add_agent t name ~host ~authority:(authority t ~host ~slot name)
      done)
    site.hosts

let create ~who ~design ~scheme ~mailbox_policy ~retry_timeout ~resubmit_timeout
    ~max_retries ~bandwidth ~service_rate ~loss_rate ~span_sample ~users_per_host
    ~authority r state (site : Netsim.Topology.mail_site) =
  let engine = Dsim.Engine.create () in
  let counters = Dsim.Stats.Counter.create () in
  let tracer = Telemetry.Tracer.create () in
  let metrics = Telemetry.Registry.create ~labels:[ ("design", design) ] () in
  let ledger = Ledger.create () in
  Telemetry.Probe.attach_engine metrics engine;
  let intern = Naming.Intern.create ~capacity:256 () in
  let region_servers = Hashtbl.create 4 in
  let spaces = Hashtbl.create 4 in
  let t_ref = ref None in
  let the_t () = match !t_ref with Some t -> t | None -> assert false in
  (* The replica group owns every mailbox holder; chain/liveness are
     late-bound through the system so reconfiguration and migration
     stay visible to it. *)
  let storage =
    Replica_group.create ~mailbox_policy ~ledger ~tracer ~metrics ~counters
      ~chain_of:(fun uid ->
        let t = the_t () in
        r.authority_of_uid t (canonical_uid t uid))
      ~is_up:(fun node -> Netsim.Net.is_up (net (the_t ())) node)
      ()
  in
  let add_space v =
    let region = region_of site.graph v in
    if not (Hashtbl.mem spaces region) then
      Hashtbl.replace spaces region (Naming.Name_space.create scheme);
    region
  in
  List.iter
    (fun node ->
      let region = add_space node in
      Replica_group.add_holder storage ~node ~region;
      let existing = Option.value ~default:[] (Hashtbl.find_opt region_servers region) in
      Hashtbl.replace region_servers region (existing @ [ node ]))
    site.servers;
  List.iter (fun (host, _) -> ignore (add_space host)) site.hosts;
  let callbacks =
    {
      Pipeline.region_servers = (fun region -> Ops.region_servers (the_t ()) region);
      uid_of = (fun name -> Naming.Intern.intern intern name);
      name_of_uid = (fun uid -> Naming.Intern.name intern uid);
      canonical_uid = (fun uid -> canonical_uid (the_t ()) uid);
      authority_of_uid = (fun uid -> r.authority_of_uid (the_t ()) uid);
      notify_target_uid = (fun uid -> r.notify_target_uid (the_t ()) uid);
      submit_servers = (fun a -> r.submit_servers (the_t ()) a);
      on_deposit = (fun _ ~on:_ ~ack:_ -> ());
      cached_authority = (fun ~at name -> r.cached_authority (the_t ()) ~at name);
      on_forward_resolved =
        (fun ~at name authority -> r.on_forward_resolved (the_t ()) ~at name authority);
      on_undeliverable = (fun msg ~reason -> r.on_undeliverable (the_t ()) msg ~reason);
      on_redirected = (fun msg ~old_name -> r.on_redirected (the_t ()) msg ~old_name);
      on_ctrl = (fun node ~time ~src c -> r.on_ctrl (the_t ()) node ~time ~src c);
    }
  in
  let route_anchors =
    (* Anchor routing on the infrastructure: every node that is not a
       user host (servers, gateways, interior switches). *)
    let is_host = Array.make (Netsim.Graph.node_count site.graph) false in
    List.iter (fun (h, _) -> is_host.(h) <- true) site.hosts;
    List.filter
      (fun v -> not is_host.(v))
      (List.init (Netsim.Graph.node_count site.graph) Fun.id)
  in
  let pipeline =
    Pipeline.create ~engine ~graph:site.graph ~counters ~metrics ~tracer
      ?bandwidth ~loss_rate ~ledger ~route_anchors ~storage
      {
        Pipeline.default_pipeline_config with
        retry_timeout;
        resubmit_timeout;
        max_retries;
        service_rate;
        service_seed = 0;
        span_sample;
      }
      callbacks
  in
  let t =
    {
      who;
      resolver = r;
      state;
      engine;
      pipeline;
      storage;
      region_servers;
      agents = Hashtbl.create 64;
      intern;
      agents_by_uid = Array.make 256 None;
      spaces;
      redirects = Hashtbl.create 4;
      redirects_uid = Hashtbl.create 4;
      counters;
      metrics;
      tracer;
      ledger;
      next_id = 0;
      submitted = [];
    }
  in
  t_ref := Some t;
  Netsim.Net.on_status_change (net t) (fun ~time node up ->
      if up && Replica_group.mem_holder storage node then
        Replica_group.note_recovery storage ~node ~at:time);
  populate t site ~users_per_host authority;
  t
