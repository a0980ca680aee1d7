(** The common surface of the three mail-system designs.

    All three designs (§3.1 syntax-directed, §3.2 location-independent,
    §3.3 attribute-based) expose the same driving surface: an engine,
    a network, named users with agents, servers, submission, mailbox
    checks and quiescing.  [S] captures that surface once so scenario
    drivers and evaluation exist once instead of per-design
    ({!Scenario.drive}, {!Evaluation.of_system}); packing lives in
    {!System}. *)

(* lint: allow missing-mli — interface-only module: it declares module types, and an .mli would have to repeat it verbatim *)

module type S = sig
  type t

  type wire
  (** The design's network payload type (kept abstract by packing). *)

  val design : string
  (** Short label for metrics and reports: ["syntax"], ["location"],
      ["attribute"]. *)

  (** {1 Access} *)

  val engine : t -> Dsim.Engine.t
  val net : t -> wire Netsim.Net.t
  val graph : t -> Netsim.Graph.t
  val now : t -> float
  val users : t -> Naming.Name.t list
  val agent : t -> Naming.Name.t -> User_agent.t
  val server_nodes : t -> Netsim.Graph.node list

  val storage : t -> Replica_group.t
  (** The system's replicated mailbox storage: every server node is a
      holder inside this group, and all mailbox access (deposit
      copies, GetMail drains, recovery resync) goes through it. *)

  val authority_of : t -> Naming.Name.t -> Netsim.Graph.node list
  (** A user's current ordered authority chain (primary first) — the
      replication set of the quorum deposit. *)

  val counters : t -> Dsim.Stats.Counter.t
  (** Raw internal tallies; prefer {!metrics} for anything public. *)

  val metrics : t -> Telemetry.Registry.t
  (** The run's typed metric registry (base label
      [design=<design>]). *)

  val tracer : t -> Telemetry.Tracer.t
  (** The run's span collector: per-message lifecycle traces from the
      pipeline plus per-check retrieval traces (root spans ["message"]
      and ["getmail.check"]). *)

  val submitted : t -> Message.t list
  val view : t -> User_agent.server_view

  val ledger : t -> Ledger.t
  (** The run's delivery-invariant ledger (§3.1.2c): the pipeline
      records submits/deposits/bounces into it, the agents record
      fetches/retrievals.  Check it after quiescing. *)

  (** {1 Operation} *)

  val submit :
    t -> sender:Naming.Name.t -> recipient:Naming.Name.t -> unit -> Message.t

  val submit_at :
    t ->
    at:float ->
    sender:Naming.Name.t ->
    recipient:Naming.Name.t ->
    unit ->
    Message.t

  val check_mail : t -> Naming.Name.t -> User_agent.check_stats
  val run_until : t -> float -> unit
  val quiesce : ?step:float -> ?max_steps:int -> t -> unit

  val compact : t -> int
  (** Prune dedup/bookkeeping state (pipeline tables, agent seen-sets)
      for messages the ledger has confirmed settled; returns the
      number of entries dropped.  Keeps long-running simulations
      memory-bounded; safe to call at any time. *)

  val publish_health : t -> unit
  (** Publish the instantaneous health gauges the per-window monitors
      read — pipeline backlog ({!Pipeline.publish_gauges}) and replica
      chain health ({!Replica_group.publish_gauges}) — into
      {!metrics}.  Called by [System.snapshot_metrics], so every
      timeseries window carries a fresh reading. *)
end
