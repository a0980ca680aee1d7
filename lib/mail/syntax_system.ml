type wire = unit Pipeline.wire

type config = {
  replication : int;
  users_per_host : int;
  retry_timeout : float;
  resubmit_timeout : float;
  max_retries : int;
  mailbox_policy : Mailbox.policy;
  cache_capacity : int option;
  bandwidth : float option;
  service_rate : float option;
  loss_rate : float;
  span_sample : int;
}

let default_config =
  {
    replication = 3;
    users_per_host = 5;
    retry_timeout = 50.;
    resubmit_timeout = 400.;
    max_retries = 50;
    mailbox_policy = Mailbox.Delete_on_retrieve;
    cache_capacity = None;
    bandwidth = None;
    service_rate = None;
    loss_rate = 0.;
    span_sample = 1;
  }

type state = {
  config : config;
  caches : (Netsim.Graph.node, Netsim.Graph.node list Naming.Cache.t) Hashtbl.t;
  bounced : (Message.id, unit) Hashtbl.t;
}

type t = (unit, state) Design_core.t

include Design_core.Ops

let authority_of t name =
  match find_agent t name with
  | Some a -> User_agent.authority a
  | None -> []

(* --- submission ------------------------------------------------------ *)

let submit t ~sender ~recipient ?subject ?body ?parts () =
  submit_at t ~at:(now t) ~sender ~recipient ?subject ?body ?parts ()

let cache_of s node =
  match s.config.cache_capacity with
  | None -> None
  | Some capacity -> (
      match Hashtbl.find_opt s.caches node with
      | Some c -> Some c
      | None ->
          let c = Naming.Cache.create ~capacity () in
          Hashtbl.replace s.caches node c;
          Some c)

let resolution_cache_stats t =
  Hashtbl.fold
    (fun _ c (h, m) -> (h + Naming.Cache.hits c, m + Naming.Cache.misses c))
    (state t).caches (0, 0)

let bounce_prefix = "DELIVERY FAILURE: "

(* §4.2: undeliverable mail is "returned with proper error messages".
   The bounce lands in the original sender's own mailbox; bounces are
   never bounced again. *)
let bounce t (msg : Message.t) ~reason =
  let bounced = (state t).bounced in
  let already_bounce =
    String.length msg.Message.subject >= String.length bounce_prefix
    && String.equal
         (String.sub msg.Message.subject 0 (String.length bounce_prefix))
         bounce_prefix
  in
  if (not already_bounce) && not (Hashtbl.mem bounced msg.Message.id) then begin
    Hashtbl.replace bounced msg.Message.id ();
    match find_agent t msg.Message.sender with
    | None -> count t "bounce_undeliverable"
    | Some sender_agent ->
        count t "bounces";
        let bounce_msg =
          new_message t ~sender:msg.Message.sender ~recipient:msg.Message.sender
            ~subject:(bounce_prefix ^ msg.Message.subject)
            ~body:
              (Printf.sprintf "message to %s could not be delivered: %s"
                 (Naming.Name.to_string msg.Message.recipient)
                 reason)
            ~parts:[] ~at:(now t)
        in
        Pipeline.submit (pipeline t) ~sender_agent ~msg:bounce_msg
  end

(* §3.1.2c: "some policy of message archiving and clean-up must be
   implemented to protect the servers' storage from being used up". *)
let schedule_cleanup t ~period ~until ~max_age =
  if period <= 0. then invalid_arg "Syntax_system.schedule_cleanup: period <= 0";
  let rec arm at =
    if at <= until then
      ignore
        (Dsim.Engine.schedule_at ~category:"mail.cleanup" (engine t) at (fun () ->
             let dropped =
               Replica_group.cleanup_all (storage t) ~now:(now t) ~max_age
             in
             if dropped > 0 then count ~by:dropped t "archive_dropped";
             arm (at +. period)))
  in
  arm (now t +. period)

(* --- reconfiguration (§3.1.3a) ------------------------------------------ *)

let nearest_servers t ~host ~n =
  List.filteri (fun i _ -> i < n) (by_distance t host (server_nodes t))

let add_user t ~host ~user =
  if not (Netsim.Graph.mem_node (graph t) host) then
    invalid_arg "Syntax_system.add_user: unknown host";
  let name =
    Naming.Name.make ~region:(region_of_node t host)
      ~host:(Netsim.Graph.label (graph t) host)
      ~user
  in
  if Option.is_some (find_agent t name) then
    invalid_arg
      (Printf.sprintf "Syntax_system.add_user: %s already exists"
         (Naming.Name.to_string name));
  let authority = nearest_servers t ~host ~n:(state t).config.replication in
  let authority = if authority = [] then server_nodes t else authority in
  add_agent t name ~host ~authority;
  count t "users_added";
  name

let invalidate_caches t name =
  Hashtbl.iter (fun _ cache -> Naming.Cache.invalidate cache name) (state t).caches

let remove_user t name =
  ignore (agent t name);
  remove_agent t name;
  invalidate_caches t name;
  count t "users_removed"

(* --- migration (§3.1.4) ------------------------------------------------ *)

let migrate_user t name ~new_host =
  ignore (agent t name);
  if not (Netsim.Graph.mem_node (graph t) new_host) then
    invalid_arg "Syntax_system.migrate_user: unknown host";
  let authority _ = nearest_servers t ~host:new_host ~n:(state t).config.replication in
  let new_name = migrate t name ~new_host ~authority in
  (* stale cached resolutions for the old name must not survive *)
  invalidate_caches t name;
  new_name

let queue_wait_stats t = Pipeline.queue_wait_stats (pipeline t)
let server_utilisation t node = Pipeline.server_utilisation (pipeline t) node

(* --- construction ------------------------------------------------------ *)

(* Design 1 resolves through the user's own agent: its authority chain
   was fixed by the balancer (or the nearest servers) when the name was
   registered, and alerts go to the host the name is bound to. *)
let resolver : (unit, state) Design_core.resolver =
  {
    authority_of_uid =
      (fun t uid ->
        match agent_by_uid t uid with Some a -> User_agent.authority a | None -> []);
    notify_target_uid = (fun t uid -> Option.map User_agent.host (agent_by_uid t uid));
    submit_servers = (fun _ a -> User_agent.authority a);
    cached_authority =
      (fun t ~at name ->
        match cache_of (state t) at with
        | Some cache -> Naming.Cache.find cache name
        | None -> None);
    on_forward_resolved =
      (fun t ~at name authority ->
        match cache_of (state t) at with
        | Some cache when authority <> [] -> Naming.Cache.add cache name authority
        | Some _ | None -> ());
    on_undeliverable = bounce;
    on_redirected =
      (fun t msg ~old_name:_ ->
        (* §3.1.4: tell the sender about the rename so future mail
           skips the redirection. *)
        count t "rename_notices";
        match find_agent t msg.Message.sender with
        | Some sender_agent ->
            ignore
              (Netsim.Net.send (net t)
                 ~src:(List.hd (User_agent.authority sender_agent))
                 ~dst:(User_agent.host sender_agent)
                 (Pipeline.Notify (msg.Message.sender, msg.Message.id)))
        | None -> ());
    on_ctrl = (fun _ _ ~time:_ ~src:_ () -> ());
    after_check = (fun _ _ _ -> ());
  }

let create ?(config = default_config) (site : Netsim.Topology.mail_site) =
  if config.replication <= 0 then invalid_arg "Syntax_system.create: replication <= 0";
  if config.users_per_host <= 0 then
    invalid_arg "Syntax_system.create: users_per_host <= 0";
  (* Authority chains: balanced primary assignment + §3.1.1 secondary
     assignment ({!Loadbalance.Replicas}), load-spread so one crash
     cannot dump all failover traffic on a single neighbour.  The
     effective replication factor is capped here, explicitly — assign
     itself refuses infeasible chain lengths. *)
  let problem = Loadbalance.Assignment.problem_of_site site in
  let assignment, _stats = Loadbalance.Balancer.run problem in
  let effective_replication = min config.replication (List.length site.servers) in
  let replicas =
    Loadbalance.Replicas.assign ~replication:effective_replication problem
      assignment
  in
  let host_index =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i h -> Hashtbl.replace tbl h i) problem.Loadbalance.Assignment.hosts;
    tbl
  in
  Design_core.create ~who:"Syntax_system" ~design:"syntax"
    ~scheme:Naming.Name_space.By_host
    ~mailbox_policy:config.mailbox_policy ~retry_timeout:config.retry_timeout
    ~resubmit_timeout:config.resubmit_timeout ~max_retries:config.max_retries
    ~bandwidth:config.bandwidth ~service_rate:config.service_rate
    ~loss_rate:config.loss_rate ~span_sample:config.span_sample
    ~users_per_host:config.users_per_host
    ~authority:(fun _ ~host ~slot _ ->
      Loadbalance.Replicas.chain_for replicas ~host:(Hashtbl.find host_index host)
        ~user_slot:slot)
    resolver
    { config; caches = Hashtbl.create 8; bounced = Hashtbl.create 8 }
    site
