type ctrl =
  | Location_update of Naming.Name.t * Netsim.Graph.node * bool
      (* name, current host, and whether the receiving server should
         fan the update out to its regional peers. *)

type wire = ctrl Pipeline.wire

type config = {
  replication : int;
  users_per_host : int;
  hash_groups : int;
  retry_timeout : float;
  resubmit_timeout : float;
  max_retries : int;
  mailbox_policy : Mailbox.policy;
  bandwidth : float option;
  service_rate : float option;
  loss_rate : float;
  span_sample : int;
}

let default_config =
  {
    replication = 3;
    users_per_host = 5;
    hash_groups = 8;
    retry_timeout = 50.;
    resubmit_timeout = 400.;
    max_retries = 50;
    mailbox_policy = Mailbox.Delete_on_retrieve;
    bandwidth = None;
    service_rate = None;
    loss_rate = 0.;
    span_sample = 1;
  }

type state = {
  config : config;
  nearest : Netsim.Graph.node list option array;
      (* per node: its region's servers by static distance, filled on
         first use — sound because the graph and the region servers are
         fixed after [create]. *)
  primary_hosts : (Naming.Name.t, Netsim.Graph.node) Hashtbl.t;
  locations : (Naming.Name.t, Netsim.Graph.node) Hashtbl.t;
      (* the regionally shared current-location table; gossip messages
         carry its updates for traffic accounting. *)
  mutable groups : int;
  retrieval_costs : Dsim.Stats.Summary.t;
}

type t = (ctrl, state) Design_core.t

include Design_core.Ops

(* Authority servers of a name: rotate the region's server list by the
   name's hash group — host-independent by construction. *)
let authority_of t name =
  match region_servers t (Naming.Name.region name) with
  | [] -> []
  | servers ->
      let s = state t in
      let arr = Array.of_list servers in
      let n = Array.length arr in
      let g = Naming.Name_space.hash_group ~groups:s.groups name in
      let start = g mod n in
      List.init (min s.config.replication n) (fun i -> arr.((start + i) mod n))

let authority_or_all t name =
  match authority_of t name with [] -> server_nodes t | authority -> authority

let primary_host t name =
  match Hashtbl.find_opt (state t).primary_hosts name with
  | Some h -> h
  | None ->
      invalid_arg
        (Printf.sprintf "Location_system: unknown user %s" (Naming.Name.to_string name))

let current_location t name =
  match Hashtbl.find_opt (state t).locations name with
  | Some h -> h
  | None -> primary_host t name

(* Servers of the host's region ordered by distance from it —
   "a user always contacts the nearest active server". *)
let nearest_servers t host =
  let nearest = (state t).nearest in
  match nearest.(host) with
  | Some servers -> servers
  | None ->
      let servers =
        match region_servers t (region_of_node t host) with
        | [] -> []
        | servers -> by_distance t host servers
      in
      nearest.(host) <- Some servers;
      servers

(* --- operations -------------------------------------------------------- *)

(* §3.2.2c: the user's host talks to the nearest server, which relays
   the polls to the authority servers.  The relay is the nearest server
   by static distance whether or not it is up: this is a cost model of
   the relay path, not a delivery attempt.  The communication cost of
   one retrieval is the host↔relay round trip plus the relay's round
   trips to each polled authority server; a roamed user far from their
   hash group pays visibly more ("remote access is usually slow and
   imposes large overhead"). *)
let record_retrieval_cost t a (stats : User_agent.check_stats) =
  let host = User_agent.host a in
  match nearest_servers t host with
  | [] -> ()
  | relay :: _ ->
      let d_host_relay = Netsim.Net.distance (net t) host relay in
      let polled =
        (* approximate the polled set: the first [polls] servers of
           the authority list *)
        List.filteri (fun i _ -> i < stats.User_agent.polls) (User_agent.authority a)
      in
      let d_polls =
        List.fold_left
          (fun acc srv -> acc +. (2. *. Netsim.Net.distance (net t) relay srv))
          0. polled
      in
      if relay <> host && List.mem relay polled then count t "relay_is_authority";
      if not (List.mem relay (User_agent.authority a)) then count t "relay_checks";
      Dsim.Stats.Summary.add (state t).retrieval_costs ((2. *. d_host_relay) +. d_polls)

let retrieval_cost_stats t = (state t).retrieval_costs

let login t name ~host =
  let a = agent t name in
  let region = Naming.Name.region name in
  if not (String.equal (region_of_node t host) region) then
    invalid_arg
      (Printf.sprintf "Location_system.login: host %s is outside region %s"
         (Netsim.Graph.label (graph t) host)
         region);
  User_agent.set_host a host;
  Hashtbl.replace (state t).locations name host;
  count t "logins";
  (* Inform the nearest active server; it gossips the new location to
     its regional peers so any of them can route the alert signal. *)
  (match List.find_opt (fun s -> Netsim.Net.is_up (net t) s) (nearest_servers t host) with
  | None -> count t "login_unserved"
  | Some nearest ->
      ignore
        (Netsim.Net.send (net t) ~src:host ~dst:nearest
           (Pipeline.Ctrl (Location_update (name, host, true)))));
  (* §3.2.2c: logging on triggers retrieval of pending mail. *)
  check_mail t name

let submit_at t ~at ~sender ~recipient ?subject ?body () =
  submit_at t ~at ~sender ~recipient ?subject ?body ()

let submit t ~sender ~recipient ?subject ?body () =
  submit_at t ~at:(now t) ~sender ~recipient ?subject ?body ()

(* --- reconfiguration and migration ------------------------------------- *)

let rebalance_hash t ~groups =
  if groups <= 0 then invalid_arg "Location_system.rebalance_hash: groups <= 0";
  let s = state t in
  let moved = ref 0 in
  let old_groups = s.groups in
  iter_agents t (fun name a ->
      let before = authority_of t name in
      s.groups <- groups;
      let after = authority_of t name in
      s.groups <- old_groups;
      if before <> after then begin
        incr moved;
        User_agent.set_authority a after
      end);
  s.groups <- groups;
  iter_spaces t (fun sp ->
      match Naming.Name_space.scheme sp with
      | Naming.Name_space.By_hash _ ->
          ignore (Naming.Name_space.rebalance_hash sp ~k:groups)
      | Naming.Name_space.By_region | Naming.Name_space.By_host -> ());
  count ~by:!moved t "hash_moves";
  !moved

let migrate_region t name ~new_host =
  ignore (agent t name);
  if not (Netsim.Graph.mem_node (graph t) new_host) then
    invalid_arg "Location_system.migrate_region: unknown host";
  if String.equal (region_of_node t new_host) (Naming.Name.region name) then
    invalid_arg "Location_system.migrate_region: same-region move is free, use login";
  let s = state t in
  let new_name = migrate t name ~new_host ~authority:(authority_or_all t) in
  Hashtbl.replace s.primary_hosts new_name new_host;
  Hashtbl.remove s.locations name;
  Hashtbl.remove s.primary_hosts name;
  new_name

(* --- construction ------------------------------------------------------- *)

(* Design 2 resolves through the (region, user) hash group, alerts the
   user's current location, and lets senders submit to the servers
   nearest their current host; regional servers gossip locations. *)
let resolver : (ctrl, state) Design_core.resolver =
  {
    authority_of_uid = (fun t uid -> authority_of t (name_of_uid t uid));
    notify_target_uid =
      (fun t uid ->
        match agent_by_uid t uid with
        | Some a -> Some (current_location t (User_agent.name a))
        | None -> None);
    submit_servers = (fun t a -> nearest_servers t (User_agent.host a));
    cached_authority = (fun _ ~at:_ _ -> None);
    on_forward_resolved = (fun _ ~at:_ _ _ -> ());
    on_undeliverable = (fun t _ ~reason:_ -> count t "undeliverable");
    on_redirected = (fun t _ ~old_name:_ -> count t "rename_notices");
    on_ctrl =
      (fun t node ~time:_ ~src:_ (Location_update (name, host, fan_out)) ->
        Hashtbl.replace (state t).locations name host;
        count t "location_updates";
        if fan_out then
          (* Only the first (nearest) server gossips to its peers. *)
          List.iter
            (fun peer ->
              if peer <> node then begin
                count t "location_gossip";
                ignore
                  (Netsim.Net.send (net t) ~src:node ~dst:peer
                     (Pipeline.Ctrl (Location_update (name, host, false))))
              end)
            (region_servers t (region_of_node t node)));
    after_check = record_retrieval_cost;
  }

let create ?(config = default_config) ?(design_label = "location")
    (site : Netsim.Topology.mail_site) =
  if config.replication <= 0 then invalid_arg "Location_system.create: replication <= 0";
  if config.hash_groups <= 0 then invalid_arg "Location_system.create: hash_groups <= 0";
  let primary_hosts = Hashtbl.create 64 in
  Design_core.create ~who:"Location_system" ~design:design_label
    ~scheme:(Naming.Name_space.By_hash config.hash_groups)
    ~mailbox_policy:config.mailbox_policy ~retry_timeout:config.retry_timeout
    ~resubmit_timeout:config.resubmit_timeout ~max_retries:config.max_retries
    ~bandwidth:config.bandwidth ~service_rate:config.service_rate
    ~loss_rate:config.loss_rate ~span_sample:config.span_sample
    ~users_per_host:config.users_per_host
    ~authority:(fun t ~host ~slot:_ name ->
      Hashtbl.replace primary_hosts name host;
      authority_or_all t name)
    resolver
    {
      config;
      nearest = Array.make (Netsim.Graph.node_count site.graph) None;
      primary_hosts;
      locations = Hashtbl.create 64;
      groups = config.hash_groups;
      retrieval_costs = Dsim.Stats.Summary.create ();
    }
    site
