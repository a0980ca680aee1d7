module type S = System_intf.S

module Syntax : S with type t = Syntax_system.t = struct
  include Syntax_system

  let design = "syntax"

  (* Optional arguments do not erase during signature inclusion, so the
     richer submit functions are shadowed with exact-arity wrappers. *)
  let submit t ~sender ~recipient () = Syntax_system.submit t ~sender ~recipient ()

  let submit_at t ~at ~sender ~recipient () =
    Syntax_system.submit_at t ~at ~sender ~recipient ()
end

module Location : S with type t = Location_system.t = struct
  include Location_system

  let design = "location"

  let submit t ~sender ~recipient () =
    Location_system.submit t ~sender ~recipient ()

  let submit_at t ~at ~sender ~recipient () =
    Location_system.submit_at t ~at ~sender ~recipient ()
end

module Attribute : S with type t = Attribute_system.t = struct
  type t = Attribute_system.t
  type wire = Location_system.wire

  let design = "attribute"
  let base = Attribute_system.base
  let engine t = Location_system.engine (base t)
  let net t = Location_system.net (base t)
  let graph t = Location_system.graph (base t)
  let now t = Location_system.now (base t)
  let users t = Location_system.users (base t)
  let agent t name = Location_system.agent (base t) name
  let server_nodes t = Location_system.server_nodes (base t)
  let storage t = Location_system.storage (base t)
  let authority_of t name = Location_system.authority_of (base t) name
  let counters t = Location_system.counters (base t)
  let metrics t = Attribute_system.metrics t
  let tracer t = Location_system.tracer (base t)
  let ledger t = Location_system.ledger (base t)
  let submitted t = Location_system.submitted (base t)
  let view t = Location_system.view (base t)

  let submit t ~sender ~recipient () =
    Location_system.submit (base t) ~sender ~recipient ()

  let submit_at t ~at ~sender ~recipient () =
    Location_system.submit_at (base t) ~at ~sender ~recipient ()

  let check_mail t name = Location_system.check_mail (base t) name
  let run_until t horizon = Location_system.run_until (base t) horizon
  let quiesce ?step ?max_steps t = Location_system.quiesce ?step ?max_steps (base t)
  let compact t = Location_system.compact (base t)

  (* Safe to delegate: the attribute registry IS the base registry
     (Attribute_system.metrics reads through [base]). *)
  let publish_health t = Location_system.publish_health (base t)
end

(* --- packing ------------------------------------------------------------ *)

type t = Packed : (module S with type t = 'a) * 'a -> t

let design (Packed ((module M), _)) = M.design
let metrics (Packed ((module M), sys)) = M.metrics sys
let tracer (Packed ((module M), sys)) = M.tracer sys
let counters (Packed ((module M), sys)) = M.counters sys
let now (Packed ((module M), sys)) = M.now sys
let users (Packed ((module M), sys)) = M.users sys
let submitted (Packed ((module M), sys)) = M.submitted sys
let ledger (Packed ((module M), sys)) = M.ledger sys
let compact (Packed ((module M), sys)) = M.compact sys

(* --- metric snapshotting ------------------------------------------------ *)

let core_counters =
  [
    "checks";
    "polls";
    "failed_polls";
    "retrieved";
    "submitted";
    "deposits";
    "retries";
    "resubmissions";
    "notifications";
    "redirects";
    "migrations";
    "replica_copy_writes";
    "replica_replicate_sends";
    "replica_quorum_acks";
    "replica_degraded_acks";
    "replica_unavailable_acks";
    "replica_purges";
    "replica_resyncs";
    "replica_failovers";
  ]

let snapshot_metrics (type a) (module M : S with type t = a) (sys : a) =
  let reg = M.metrics sys in
  let counters = M.counters sys in
  (* Core tallies are promoted under their own metric names — and set
     unconditionally, so every design's registry exposes all of them
     even when a tally never fired. *)
  List.iter
    (fun k -> Telemetry.Registry.set_counter reg k (Dsim.Stats.Counter.get counters k))
    core_counters;
  (* Everything else is design-specific and routed through one shared
     metric name, labelled by event, to keep names comparable. *)
  Telemetry.Probe.sync_counters ~only:core_counters ~rest_as:"system_events" reg
    counters;
  (* The delivery / end-to-end latency histograms are fed at deposit
     and fetch time by the replica group ([Replica_group.create]'s
     [?metrics]: each latency observed exactly once, the moment it
     becomes known), so the snapshot has no per-message work to do —
     per-window timeseries sampling stays cheap no matter how many
     messages the run has accumulated. *)
  let net = M.net sys in
  let set name v = Telemetry.Registry.set_gauge (Telemetry.Registry.gauge reg name) v in
  set "messages_sent" (float_of_int (Netsim.Net.messages_sent net));
  set "messages_delivered" (float_of_int (Netsim.Net.messages_delivered net));
  set "messages_dropped" (float_of_int (Netsim.Net.messages_dropped net));
  set "link_hops" (float_of_int (Netsim.Net.hops_traversed net));
  (* Route-cache observables: each recompute is one full Dijkstra run,
     each hit a query the cache absorbed — the pair quantifies what
     scoped invalidation saves under a fault campaign. *)
  Telemetry.Registry.set_counter reg "route_tree_recompute"
    (Netsim.Net.route_recomputes net);
  Telemetry.Registry.set_counter reg "route_cache_hit"
    (Netsim.Net.route_cache_hits net);
  Telemetry.Registry.set_counter reg "route_invalidation"
    (Netsim.Net.route_invalidations net);
  set "storage_bytes" (float_of_int (Replica_group.storage_bytes (M.storage sys)));
  (* Instantaneous health gauges (pipeline backlog, chain health) and
     the span-loss signal: sampled here so every timeseries window —
     not just the end-of-run snapshot — carries a fresh reading. *)
  M.publish_health sys;
  Telemetry.Registry.set_counter reg "trace_dropped"
    (Telemetry.Tracer.dropped (M.tracer sys));
  Telemetry.Probe.sync_engine_profile reg (M.engine sys)

let snapshot (Packed ((module M), sys)) = snapshot_metrics (module M) sys
