(* One repetition of one benchmark workload.

   Builds the workload's site and mail system from its seeds, drives
   it through the real [Mail.Scenario.drive], checks the delivery
   ledger and prints one JSON object on stdout: host timings, the
   modelled (virtual-time) outcome and a digest of the deterministic
   simulation.  With [--mode traced] it drives the same simulation
   through a timing wrapper of [System.S] plus a per-window engine
   probe, then times unit calls into each layer on the drained
   system, and adds the per-layer ledger.  run.py repeats this in
   fresh processes and aggregates; README.md documents every field.

   Usage:
     mailbench.exe --workload NAME --seed N [--topo-seed N] [--fault-seed N]
                   [--mode untraced|traced] [--size full|tiny]
                   [--windows-out FILE] *)

let clock = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type design = Syntax | Location

type workload = {
  name : string;
  design : design;
  regions : int;
  messages : int;
  check_period : float;
  campaign : bool;  (** arm [Netsim.Fault.standard]. *)
  sampling : float option;  (** timeseries + standard monitors. *)
  roam : float;  (** login probability before each check. *)
}

(* Every workload shares the region shape (16 hosts, 4 servers,
   2 gateways, average degree 8), 20 users per host, replication 4 and
   a 5000-unit horizon; they differ in what they make the layers do.
   Why each exists is in README.md. *)
let hosts_per_region = 16
let servers_per_region = 4
let gateways_per_region = 2
let degree = 8.0
let replication = 4
let duration = 5000.

let workloads =
  [
    {
      name = "campaign-syntax";
      design = Syntax;
      regions = 30;
      messages = 16_000;
      check_period = 1000.;
      campaign = true;
      sampling = Some 250.;
      roam = 0.;
    };
    {
      name = "steady-syntax";
      design = Syntax;
      regions = 30;
      messages = 16_000;
      check_period = 250.;
      campaign = false;
      sampling = None;
      roam = 0.;
    };
    {
      name = "roaming-location";
      design = Location;
      regions = 8;
      messages = 8_000;
      check_period = 500.;
      campaign = false;
      sampling = None;
      roam = 0.2;
    };
  ]

type size = Full | Tiny

(* [Tiny] keeps each workload's character (campaign, sampling, roaming)
   at a size the benchmark's own tests can run in well under a second. *)
let sized size w =
  match size with Full -> w | Tiny -> { w with regions = 3; messages = w.messages / 16 }

let users_per_host = function Full -> 20 | Tiny -> 5

(* ------------------------------------------------------------------ *)
(* Timing wrapper and probe state (traced mode only)                   *)
(* ------------------------------------------------------------------ *)

let inject_s = ref 0.
let compact_s = ref 0.
let drain_s = ref 0.
let publish_s = ref 0.

let timed acc f =
  let t0 = clock () in
  let r = f () in
  acc := !acc +. (clock () -. t0);
  r

(* The real system, with the calls [Scenario.drive] makes into the
   mail layer timed from outside. *)
module Timed (M : Mail.System.S) : Mail.System.S with type t = M.t = struct
  include M

  let submit_at t ~at ~sender ~recipient () =
    timed inject_s (fun () -> M.submit_at t ~at ~sender ~recipient ())

  let compact t = timed compact_s (fun () -> M.compact t)
  let quiesce ?step ?max_steps t = timed drain_s (fun () -> M.quiesce ?step ?max_steps t)
  let publish_health t = timed publish_s (fun () -> M.publish_health t)
end

(* GC phase time from the runtime's own event ring, read in-process. *)
module Gc_phases = struct
  let minor_ns = ref 0L
  let major_ns = ref 0L
  let lost = ref 0
  let minor_start = ref 0L
  let major_start = ref 0L
  let ts = Runtime_events.Timestamp.to_int64

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        match phase with
        | Runtime_events.EV_MINOR -> minor_start := ts t
        | Runtime_events.EV_MAJOR_SLICE -> major_start := ts t
        | _ -> ())
      ~runtime_end:(fun _ t phase ->
        match phase with
        | Runtime_events.EV_MINOR ->
            minor_ns := Int64.add !minor_ns (Int64.sub (ts t) !minor_start)
        | Runtime_events.EV_MAJOR_SLICE ->
            major_ns := Int64.add !major_ns (Int64.sub (ts t) !major_start)
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor = ref None

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    Option.iter
      (fun c -> ignore (Runtime_events.read_poll c callbacks None))
      !cursor

  let seconds r = Int64.to_float !r /. 1e9
end

let probe_category = "perfbench.probe"

(* One record per probe window: host milliseconds, engine events per
   category and GC phase time spent inside the window. *)
type window = {
  w_vt : float;
  w_host_ms : float;
  w_events : (string * int) list;
  w_minor_ms : float;
  w_major_ms : float;
}

let windows : window list ref = ref []

(* The probe fires [probe_ticks] times over the horizon; the first tick
   opens the series, so a run records [probe_ticks - 1] windows. *)
let probe_ticks = 1250

let arm_probe engine =
  let last_t = ref nan in
  let last_prof = ref [] in
  let last_minor = ref 0. and last_major = ref 0. in
  Dsim.Engine.every ~category:probe_category engine
    ~period:(duration /. float_of_int probe_ticks)
    ~until:duration
    (fun () ->
      let t = clock () in
      Gc_phases.poll ();
      let prof = Dsim.Engine.profile engine in
      let minor = Gc_phases.seconds Gc_phases.minor_ns in
      let major = Gc_phases.seconds Gc_phases.major_ns in
      if Float.is_finite !last_t then begin
        let before name =
          Option.value ~default:0 (List.assoc_opt name !last_prof)
        in
        let delta =
          List.filter_map
            (fun (name, n) ->
              let d = n - before name in
              if d > 0 && name <> probe_category then Some (name, d) else None)
            prof
        in
        windows :=
          {
            w_vt = Dsim.Engine.now engine;
            w_host_ms = (t -. !last_t) *. 1e3;
            w_events = delta;
            w_minor_ms = (minor -. !last_minor) *. 1e3;
            w_major_ms = (major -. !last_major) *. 1e3;
          }
          :: !windows
      end;
      last_t := t;
      last_prof := prof;
      last_minor := minor;
      last_major := major)

(* ------------------------------------------------------------------ *)
(* Unit-cost probes, run on the drained system                          *)
(* ------------------------------------------------------------------ *)

(* Host nanoseconds per operation of [f], which performs [ops] of
   them; batches are sized to last tens of milliseconds, far above the
   clock's microsecond resolution. *)
let ns_per ~ops f =
  let t0 = clock () in
  f ();
  (clock () -. t0) *. 1e9 /. float_of_int ops

(* Host nanoseconds per call of [op i] for i = 0, 1, …, calling it in
   batches until at least 50 ms have passed: cheap and costly
   operations alike get a batch well above the clock's resolution. *)
let ns_per_call ?(batch = 64) op =
  let t0 = clock () in
  let n = ref 0 in
  while clock () -. t0 < 0.05 do
    for _ = 1 to batch do
      op !n;
      incr n
    done
  done;
  (clock () -. t0) *. 1e9 /. float_of_int !n

let sink = ref 0

let unit_step () =
  let engine = Dsim.Engine.create ~capacity:1024 () in
  let cat = Dsim.Engine.category engine "perfbench.unit" in
  let noop () = () in
  let batch = 1024 and rounds = 400 in
  ns_per ~ops:(batch * rounds) (fun () ->
      for _ = 1 to rounds do
        let base = Dsim.Engine.now engine in
        for i = 1 to batch do
          ignore
            (Dsim.Engine.schedule_at_cat engine cat
               (base +. (float_of_int ((i * 7919) land 1023) *. 1e-3))
               noop)
        done;
        for _ = 1 to batch do
          ignore (Dsim.Engine.step engine)
        done
      done)

let unit_heap () =
  let batch = 1024 and rounds = 400 in
  let rng = Dsim.Rng.create 17 in
  let prios = Array.init batch (fun _ -> Dsim.Rng.float rng 1000.) in
  let heap = Dsim.Heap.Arena.create ~capacity:batch ~dummy:0 () in
  ns_per ~ops:(batch * rounds) (fun () ->
      for _ = 1 to rounds do
        Array.iteri
          (fun i p -> ignore (Dsim.Heap.Arena.push heap ~prio:p ~tag:i i))
          prios;
        for _ = 1 to batch do
          sink := !sink + Dsim.Heap.Arena.top heap;
          Dsim.Heap.Arena.drop heap
        done
      done)

let infra graph =
  Netsim.Graph.nodes_of_kind graph Netsim.Graph.Server
  @ Netsim.Graph.nodes_of_kind graph Netsim.Graph.Gateway
  |> Array.of_list

let first_hop net ~src ~dst =
  match Netsim.Net.first_hop net ~src ~dst with
  | Some v -> sink := !sink + v
  | None -> ()

(* A warm routing query: (anchor, any node) pairs whose trees are
   already cached. *)
let unit_route_warm net =
  let graph = Netsim.Net.graph net in
  let anchors = infra graph in
  let nodes = Array.of_list (Netsim.Graph.nodes graph) in
  let rng = Dsim.Rng.create 23 in
  let pairs =
    Array.init 4096 (fun _ -> (Dsim.Rng.choice rng anchors, Dsim.Rng.choice rng nodes))
  in
  let query i =
    let src, dst = pairs.(i land 4095) in
    first_hop net ~src ~dst
  in
  for i = 0 to 4095 do
    query i
  done;
  ns_per_call query

(* A query that must first catch its tree up on a flip suffix: the
   last [suffix] link windows of the standard campaign compiled for
   this topology (the campaign workload's own flips), each cut and
   restored, then one query per anchor tree.  The timed part is only
   the queries. *)
let unit_route_catchup ~campaign ~seed net servers =
  let graph = Netsim.Net.graph net in
  let sched = Netsim.Fault.compile ~salt:seed ~graph ~servers ~horizon:duration campaign in
  let links =
    List.filter_map
      (fun (w : Netsim.Fault.window) ->
        match w.target with Netsim.Fault.Link (u, v) -> Some (u, v) | Node _ -> None)
      sched.Netsim.Fault.windows
  in
  let suffix = 32 in
  let links =
    List.filteri (fun i _ -> i >= List.length links - suffix) links
  in
  let anchors = infra graph in
  let dst = List.hd (Netsim.Graph.nodes_of_kind graph Netsim.Graph.Host) in
  Array.iter (fun src -> first_hop net ~src ~dst) anchors;
  let rounds = 20 in
  let total = ref 0. in
  for _ = 1 to rounds do
    List.iter
      (fun (u, v) ->
        Netsim.Net.set_link_down net u v;
        Netsim.Net.set_link_up net u v)
      links;
    let t0 = clock () in
    Array.iter (fun src -> first_hop net ~src ~dst) anchors;
    total := !total +. (clock () -. t0)
  done;
  !total *. 1e9 /. float_of_int (rounds * Array.length anchors)

let sample_users users n = Array.init n (fun i -> users.(i mod Array.length users))

(* Replica-group copy write and GetMail fetch: one fresh message per
   user, written on the head of the user's chain, then fetched back. *)
let unit_replica (type s) (module M : Mail.System.S with type t = s) (sys : s) users =
  let storage = M.storage sys in
  let n = 20_000 in
  let at = M.now sys in
  let targets =
    Array.map
      (fun name ->
        (name, Mail.User_agent.uid (M.agent sys name), List.hd (M.authority_of sys name)))
      (sample_users users n)
  in
  let msgs =
    Array.mapi
      (fun i (name, uid, _) ->
        Mail.Message.create ~id:(1_000_000_000 + i) ~sender:name ~recipient:name
          ~recipient_uid:uid ~submitted_at:at ())
      targets
  in
  let write =
    ns_per ~ops:n (fun () ->
        Array.iteri
          (fun i (_, _, on) -> ignore (Mail.Replica_group.write storage ~on msgs.(i) ~at))
          targets)
  in
  let fetch =
    ns_per ~ops:n (fun () ->
        Array.iter
          (fun (name, uid, on) ->
            sink := !sink + List.length (Mail.Replica_group.fetch storage ~on ~uid name ~at))
          targets)
  in
  (write, fetch)

(* One GetMail round per user on the drained system: no mail waits, so
   this is the cost of the poll path itself. *)
let unit_check (type s) (module M : Mail.System.S with type t = s) (sys : s) users =
  ns_per_call (fun i ->
      sink := !sink + (M.check_mail sys users.(i mod Array.length users)).Mail.User_agent.polls)

let unit_hash_group users =
  ns_per_call (fun i ->
      sink := !sink + Naming.Name_space.hash_group ~groups:8 users.(i mod Array.length users))

let unit_snapshot (type s) (module M : Mail.System.S with type t = s) (sys : s) =
  ns_per_call ~batch:1 (fun _ -> Mail.System.snapshot_metrics (module M) sys)

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)
(* ------------------------------------------------------------------ *)

let hosts_by_region graph =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Netsim.Graph.nodes_in_region graph r
      |> List.filter (fun v -> Netsim.Graph.kind graph v = Netsim.Graph.Host)
      |> Array.of_list
      |> Hashtbl.replace tbl r)
    (Netsim.Graph.regions graph);
  tbl

(* The roaming input of design 2: before each check the user logs in
   from a random host of their region with probability [prob].  The
   decisions come from the benchmark's own stream, seeded from the
   workload seed, not from the simulator. *)
let roaming ~seed ~prob sys =
  let rng = Dsim.Rng.create (seed lxor 0x5eed) in
  let hosts = hosts_by_region (Mail.Location_system.graph sys) in
  fun ~rng:_ name ->
    if Dsim.Rng.bernoulli rng prob then
      ignore
        (Mail.Location_system.login sys name
           ~host:(Dsim.Rng.choice rng (Hashtbl.find hosts (Naming.Name.region name))))

let unit_login sys users =
  let hosts = hosts_by_region (Mail.Location_system.graph sys) in
  ns_per_call ~batch:8 (fun i ->
      let name = users.(i mod Array.length users) in
      let region = Hashtbl.find hosts (Naming.Name.region name) in
      ignore (Mail.Location_system.login sys name ~host:region.(i mod Array.length region)))

let build_site size ~topo_seed w =
  let spec =
    Netsim.Topology.sized_hierarchy ~regions:w.regions ~hosts_per_region
      ~servers_per_region ~gateways_per_region ~degree ()
  in
  Netsim.Topology.scale_site ~rng:(Dsim.Rng.create topo_seed)
    ~users_per_host:(users_per_host size) spec

(* The standard campaign with its schedule pinned to [fault_seed]:
   [Fault.compile] mixes the campaign seed with the scenario seed, so
   the campaign seed is pre-mixed to cancel it.  The fault schedule is
   then a committed input like the topology, and [--seed] varies the
   traffic (and roaming) alone. *)
let campaign ~seed ~fault_seed =
  { Netsim.Fault.standard with seed = fault_seed lxor (seed * 0x9e3779b9) }

let scenario_spec ~seed ~fault_seed w =
  {
    Mail.Scenario.default_spec with
    seed;
    duration;
    mail_count = w.messages;
    check_period = w.check_period;
    faults = (if w.campaign then Some (campaign ~seed ~fault_seed) else None);
    sampling = w.sampling;
    monitors = (if w.sampling = None then [] else Telemetry.Monitor.standard);
  }

(* A digest of the fault windows [Scenario.drive] compiles for [spec]
   ("none" without a campaign).  It must not depend on [--seed]: the
   benchmark's tests check that, so a change to how [Fault.compile]
   mixes its seeds cannot unpin the schedule unnoticed. *)
let fault_schedule_digest (spec : Mail.Scenario.spec) ~graph ~servers =
  match spec.faults with
  | None -> "none"
  | Some campaign ->
      let sched =
        Netsim.Fault.compile ~salt:spec.seed ~graph ~servers ~horizon:spec.duration campaign
      in
      List.map
        (fun (w : Netsim.Fault.window) ->
          let target =
            match w.target with
            | Netsim.Fault.Node n -> string_of_int n
            | Link (u, v) -> Printf.sprintf "%d-%d" u v
          in
          Printf.sprintf "%s %s %h %h" w.kind target w.start w.duration)
        sched.Netsim.Fault.windows
      |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* The engine categories every workload reports (0 when absent), so
   each prints the same per-layer names; anything else lands in
   [other]. *)
let known_categories =
  [
    "event";
    "fault";
    "mail.submit";
    "pipeline.replicate";
    "pipeline.resubmit";
    "pipeline.retry";
    "pipeline.submit";
    "scenario.check";
    "scenario.compact";
    "scenario.sample";
  ]

let timer_categories = [ "pipeline.replicate"; "pipeline.resubmit"; "pipeline.retry" ]

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let write_windows file =
  let oc = open_out file in
  List.iter
    (fun w ->
      let j =
        Telemetry.Json.Obj
          [
            ("vt", Float w.w_vt);
            ("host_ms", Float w.w_host_ms);
            ("minor_ms", Float w.w_minor_ms);
            ("major_ms", Float w.w_major_ms);
            ("events", Obj (List.map (fun (c, n) -> (c, Telemetry.Json.Int n)) w.w_events));
          ]
      in
      output_string oc (Telemetry.Json.to_string j);
      output_char oc '\n')
    (List.rev !windows);
  close_out oc

type options = {
  workload : workload;
  seed : int;
  topo_seed : int;
  fault_seed : int;
  traced : bool;
  size : size;
  windows_out : string option;
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Drive [sys] through the real scenario driver — wrapped and probed
   when traced — and describe the outcome.  [login_probe] is the
   design-2 unit probe (absent on design 1). *)
let measure (type s) (module M : Mail.System.S with type t = s) (sys : s) ?on_check_tick
    ?login_probe ~topology_s ~create_s opts =
  let open Telemetry.Json in
  let spec = scenario_spec ~seed:opts.seed ~fault_seed:opts.fault_seed opts.workload in
  if opts.traced then begin
    Gc_phases.start ();
    arm_probe (M.engine sys)
  end;
  let gc0 = Gc.quick_stat () in
  let t0 = clock () in
  let o =
    if opts.traced then
      let module T = Timed (M) in
      Mail.Scenario.drive ?on_check_tick (module T) sys spec
    else Mail.Scenario.drive ?on_check_tick (module M) sys spec
  in
  let run_s = clock () -. t0 in
  let gc1 = Gc.quick_stat () in
  let engine = M.engine sys in
  let probe_events, profile =
    List.partition (fun (c, _) -> c = probe_category) (Dsim.Engine.profile engine)
  in
  let events = List.fold_left (fun acc (_, n) -> acc + n) 0 profile in
  let fired c = Option.value ~default:0 (List.assoc_opt c profile) in
  let v = o.Mail.Scenario.ledger in
  let reg = o.Mail.Scenario.metrics in
  let counter = Telemetry.Registry.get_counter reg in
  let logins = Dsim.Stats.Counter.get (M.counters sys) "logins" in
  let hist = Telemetry.Registry.histogram reg "delivery_latency" in
  let net = M.net sys in
  let submitted = v.Mail.Ledger.submitted in
  let failed = submitted - v.Mail.Ledger.delivered + v.Mail.Ledger.spurious_bounces in
  let route =
    [
      ("recomputes", Netsim.Net.route_recomputes net);
      ("hits", Netsim.Net.route_cache_hits net);
      ("invalidations", Netsim.Net.route_invalidations net);
      ("hops", Netsim.Net.hops_traversed net);
    ]
  in
  let replica_names =
    [
      "replica_copy_writes";
      "replica_quorum_acks";
      "replica_degraded_acks";
      "replica_failovers";
      "replica_resyncs";
      "replica_purges";
    ]
  in
  let mail_names = [ "checks"; "polls"; "failed_polls"; "retries"; "resubmissions" ] in
  let ints l = Obj (List.map (fun (k, n) -> (k, Int n)) l) in
  let counters l = ints (List.map (fun k -> (k, counter k)) l) in
  (* Everything the simulation decided, and nothing the host did: two
     runs of one seed must agree on this byte for byte. *)
  let digest =
    Obj
      [
        ("events", ints profile);
        ("ledger", Mail.Ledger.verdict_to_json v);
        ( "delivery_latency",
          Obj
            [
              ("count", Int (Telemetry.Registry.hist_count hist));
              ("mean", Float (Telemetry.Registry.hist_mean hist));
              ("max", Float (Telemetry.Registry.hist_max hist));
              ("p50", Float (Telemetry.Registry.percentile hist 50.));
              ("p99", Float (Telemetry.Registry.percentile hist 99.));
            ] );
        ("route", ints route);
        ("replica", counters replica_names);
        ("mail", counters mail_names);
        ("logins", Int logins);
        ("availability", Float o.Mail.Scenario.availability);
      ]
    |> to_string |> Digest.string |> Digest.to_hex
  in
  let modelled =
    [
      ("delivery_p50_vt", Float (Telemetry.Registry.percentile hist 50.));
      ("delivery_p99_vt", Float (Telemetry.Registry.percentile hist 99.));
      ("availability", Float o.Mail.Scenario.availability);
      ("polls_per_check", Float o.Mail.Scenario.final_polls_per_check);
      ( "delivered_share",
        Float (ratio (v.Mail.Ledger.delivered - v.Mail.Ledger.spurious_bounces) submitted) );
    ]
  in
  let layers () =
    Gc_phases.poll ();
    let host_ms =
      Array.of_list (List.map (fun w -> w.w_host_ms) !windows)
    in
    Array.sort Float.compare host_ms;
    Option.iter write_windows opts.windows_out;
    let users = Array.of_list (M.users sys) in
    let hits = Netsim.Net.route_cache_hits net
    and recomputes = Netsim.Net.route_recomputes net in
    let retries = counter "retries" and resubmissions = counter "resubmissions" in
    let categories =
      List.map (fun c -> ("dsim.events." ^ c, Int (fired c))) known_categories
      @ [
          ( "dsim.events.other",
            Int
              (List.fold_left
                 (fun acc (c, n) -> if List.mem c known_categories then acc else acc + n)
                 0 profile) );
        ]
    in
    let counts =
      [
        ("dsim.events_per_msg", Float (ratio events submitted));
        ( "dsim.timer_share",
          Float (ratio (List.fold_left (fun acc c -> acc + fired c) 0 timer_categories) events) );
        ("netsim.route_recomputes", Int recomputes);
        ("netsim.route_hits", Int hits);
        ("netsim.route_invalidations", Int (Netsim.Net.route_invalidations net));
        ("netsim.route_hit_rate", Float (ratio hits (hits + recomputes)));
        ("netsim.hops_per_msg", Float (ratio (Netsim.Net.hops_traversed net) submitted));
        ("netsim.topology_s", Float topology_s);
        ("mail.pipeline.retries", Int retries);
        ("mail.pipeline.retry_useful_ratio", Float (ratio retries (fired "pipeline.retry")));
        ("mail.pipeline.resubmissions", Int resubmissions);
        ( "mail.pipeline.resubmit_useful_ratio",
          Float (ratio resubmissions (fired "pipeline.resubmit")) );
        ("mail.replica.copy_writes_per_msg", Float (ratio (counter "replica_copy_writes") submitted));
        ("mail.replica.quorum_acks", Int (counter "replica_quorum_acks"));
        ("mail.replica.degraded_acks", Int (counter "replica_degraded_acks"));
        ("mail.replica.failovers", Int (counter "replica_failovers"));
        ("mail.replica.resyncs", Int (counter "replica_resyncs"));
        ("mail.replica.purges", Int (counter "replica_purges"));
        ("mail.getmail.checks", Int (counter "checks"));
        ("mail.getmail.polls", Int (counter "polls"));
        ("mail.getmail.failed_polls", Int (counter "failed_polls"));
        ("mail.location.logins", Int logins);
        ("mail.create_s", Float create_s);
        ("mail.inject_s", Float !inject_s);
        ("mail.compact_s", Float !compact_s);
        ("mail.drain_s", Float !drain_s);
        ("telemetry.publish_s", Float !publish_s);
        ( "telemetry.windows",
          Int
            (match o.Mail.Scenario.timeseries with
            | Some ts -> Telemetry.Timeseries.window_count ts
            | None -> 0) );
        ( "telemetry.alerts",
          Int
            (match o.Mail.Scenario.monitor with
            | Some m -> List.length (Telemetry.Monitor.alerts m)
            | None -> 0) );
        ("telemetry.trace_spans", Int (Telemetry.Tracer.total o.Mail.Scenario.tracer));
        ("telemetry.trace_dropped", Int (Telemetry.Tracer.dropped o.Mail.Scenario.tracer));
        ( "telemetry.cp_traces",
          Int (Telemetry.Critical_path.analyze o.Mail.Scenario.tracer).Telemetry.Critical_path.traces );
        ( "gc.minor_words_per_event",
          Float ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int events) );
        ( "gc.promoted_words_per_event",
          Float ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. float_of_int events) );
        ("gc.minor_collections", Int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("gc.major_collections", Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ( "gc.top_heap_mb",
          Float (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
        ("gc.minor_s", Float (Gc_phases.seconds Gc_phases.minor_ns));
        ("gc.major_s", Float (Gc_phases.seconds Gc_phases.major_ns));
        ("trace.window_ms_p50", Float (percentile host_ms 50.));
        ("trace.window_ms_p99", Float (percentile host_ms 99.));
      ]
    in
    (* Unit costs last: they mutate the drained system. *)
    let write, fetch = unit_replica (module M) sys users in
    let units =
      [
        ("dsim.unit_ns.step", Float (unit_step ()));
        ("dsim.unit_ns.heap", Float (unit_heap ()));
        ("netsim.unit_ns.route_warm", Float (unit_route_warm net));
        ( "netsim.unit_ns.route_catchup",
          Float
            (unit_route_catchup
               ~campaign:(campaign ~seed:opts.seed ~fault_seed:opts.fault_seed)
               ~seed:opts.seed net (M.server_nodes sys)) );
        ("mail.replica.unit_ns.write", Float write);
        ("mail.replica.unit_ns.fetch", Float fetch);
        ("mail.getmail.unit_ns.check", Float (unit_check (module M) sys users));
        ( "mail.location.unit_ns.login",
          Float (match login_probe with Some f -> f users | None -> 0.) );
        ("naming.unit_ns.hash_group", Float (unit_hash_group users));
        ("telemetry.unit_ns.snapshot", Float (unit_snapshot (module M) sys));
      ]
    in
    [
      ("gc_lost_events", Int !Gc_phases.lost);
      ("probe_events", Int (List.fold_left (fun acc (_, n) -> acc + n) 0 probe_events));
      ("layers", Obj (categories @ counts @ units));
    ]
  in
  let gc = Gc.get () in
  Obj
    ([
       ("workload", String opts.workload.name);
       ("seed", Int opts.seed);
       ("topo_seed", Int opts.topo_seed);
       ("fault_seed", Int opts.fault_seed);
       ("mode", String (if opts.traced then "traced" else "untraced"));
       ("topology_s", Float topology_s);
       ("create_s", Float create_s);
       ("setup_s", Float (topology_s +. create_s));
       ("run_s", Float run_s);
       ("submitted", Int submitted);
       ("settled", Int (v.Mail.Ledger.delivered + v.Mail.Ledger.undeliverable));
       ("failed", Int failed);
       ("ledger_ok", Bool v.Mail.Ledger.ok);
       ("events", Int events);
       ("delivery_samples", Int (Telemetry.Registry.hist_count hist));
       ("digest", String digest);
       ( "fault_schedule",
         String
           (fault_schedule_digest spec ~graph:(M.graph sys) ~servers:(M.server_nodes sys)) );
       ("modelled", Obj modelled);
       ( "runtime",
         Obj
           [
             ("ocaml", String Sys.ocaml_version);
             ("minor_heap_words", Int gc.Gc.minor_heap_size);
             ("space_overhead", Int gc.Gc.space_overhead);
           ] );
     ]
    @ if opts.traced then layers () else [])

let run opts =
  let w = opts.workload in
  let t0 = clock () in
  let site = build_site opts.size ~topo_seed:opts.topo_seed w in
  let topology_s = clock () -. t0 in
  let users_per_host = users_per_host opts.size in
  let t1 = clock () in
  match w.design with
  | Syntax ->
      let config =
        { Mail.Syntax_system.default_config with replication; users_per_host }
      in
      let sys = Mail.Syntax_system.create ~config site in
      let create_s = clock () -. t1 in
      measure (module Mail.System.Syntax) sys ~topology_s ~create_s opts
  | Location ->
      let config =
        { Mail.Location_system.default_config with replication; users_per_host }
      in
      let sys = Mail.Location_system.create ~config site in
      let create_s = clock () -. t1 in
      measure (module Mail.System.Location) sys
        ~on_check_tick:(roaming ~seed:opts.seed ~prob:w.roam sys)
        ~login_probe:(unit_login sys) ~topology_s ~create_s opts

let () =
  let workload = ref "" and seed = ref 1 in
  let topo_seed = ref 4242 and fault_seed = ref Netsim.Fault.standard.seed in
  let mode = ref "untraced" and size = ref "full" and windows_out = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N scenario seed (arrivals, senders, recipients, roaming)");
      ("--topo-seed", Arg.Set_int topo_seed, "N topology seed (default 4242)");
      ("--fault-seed", Arg.Set_int fault_seed, "N fault-schedule seed (default 5)");
      ("--mode", Arg.Set_string mode, "untraced|traced");
      ("--size", Arg.Set_string size, "full|tiny");
      ("--windows-out", Arg.String (fun f -> windows_out := Some f), "FILE per-window probe records (traced)");
    ]
  in
  let usage = "mailbench.exe --workload NAME --seed N [options]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("mailbench: " ^ msg);
    exit 2
  in
  let workload =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        fail
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map (fun w -> w.name) workloads)))
  in
  let traced =
    match !mode with "untraced" -> false | "traced" -> true | m -> fail ("unknown mode " ^ m)
  in
  let size =
    match !size with "full" -> Full | "tiny" -> Tiny | s -> fail ("unknown size " ^ s)
  in
  let opts =
    {
      workload = sized size workload;
      seed = !seed;
      topo_seed = !topo_seed;
      fault_seed = !fault_seed;
      traced;
      size;
      windows_out = !windows_out;
    }
  in
  print_endline (Telemetry.Json.to_string (run opts))
