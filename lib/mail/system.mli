(** The three designs behind one interface.

    {!S} (= {!System_intf.S}) is the shared surface; [Syntax],
    [Location] and [Attribute] are its instances, and {!t} packs an
    instance with a value of its type so heterogeneous code (drivers,
    report tables) can hold "some mail system" without a type
    parameter. *)

module type S = System_intf.S

module Syntax : S with type t = Syntax_system.t
module Location : S with type t = Location_system.t

module Attribute : S with type t = Attribute_system.t
(** Delegates mail operations to {!Attribute_system.base}; its metrics
    registry carries [design="attribute"]. *)

(** {1 Packed systems} *)

type t = Packed : (module S with type t = 'a) * 'a -> t

val design : t -> string
val metrics : t -> Telemetry.Registry.t

val tracer : t -> Telemetry.Tracer.t
(** The packed system's span collector (see {!System_intf.S.tracer}). *)

val counters : t -> Dsim.Stats.Counter.t
val now : t -> float
val users : t -> Naming.Name.t list
val submitted : t -> Message.t list

val ledger : t -> Ledger.t
(** The packed system's delivery-invariant ledger
    (see {!System_intf.S.ledger}). *)

val compact : t -> int
(** Prune settled-message bookkeeping (see {!System_intf.S.compact}). *)

(** {1 Metric snapshotting} *)

val core_counters : string list
(** The tallies every design promotes to first-class metrics (own
    name, no [event] label): checks, polls, failed_polls, retrieved,
    submitted, deposits, retries, resubmissions, notifications,
    redirects, migrations. *)

val snapshot_metrics : (module S with type t = 'a) -> 'a -> unit
(** Bring the system's registry up to date with the run so far:
    promote {!core_counters} (creating them at 0 when a design never
    fired one), route every other raw tally to
    [system_events{event=<key>}], rebuild the ["delivery_latency"] and
    ["end_to_end_latency"] histograms from the submitted messages,
    refresh the network/storage gauges ([messages_sent],
    [messages_delivered], [messages_dropped], [link_hops],
    [storage_bytes]), the route-cache counters
    ([route_tree_recompute], [route_cache_hit], [route_invalidation]),
    the instantaneous health gauges
    ({!System_intf.S.publish_health}: pipeline backlog and replica
    chain health), the [trace_dropped] span-loss counter and the
    engine profile.  Idempotent — safe to call repeatedly as a run
    progresses, which is exactly what the per-window timeseries
    sampler does. *)

val snapshot : t -> unit
(** {!snapshot_metrics} on a packed system. *)
