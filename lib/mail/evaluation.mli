(** The §4 evaluation criteria, made measurable.

    The paper's four axes map to concrete quantities a simulation run
    produces: {e efficiency} (delivery/retrieval latency, polls per
    check, forwarding hops), {e reliability} (deposited vs undelivered
    mail, failed polls absorbed), {e cost} (network messages, link
    hops, server storage), and {e flexibility} (migrations, redirects
    and hash-rebalance moves executed during the run). *)

type report = {
  (* reliability *)
  submitted : int;
  deposited : int;
  retrieved : int;
  undelivered : int;  (** submitted but never deposited. *)
  unretrieved : int;  (** deposited but never fetched. *)
  duplicates_suppressed : int;  (** deposits beyond one per message. *)
  (* efficiency *)
  mean_delivery_latency : float;  (** submission → deposit; [nan] if none. *)
  max_delivery_latency : float;
  mean_end_to_end_latency : float;  (** submission → retrieval. *)
  mean_forward_hops : float;
  checks : int;
  polls : int;
  failed_polls : int;
  polls_per_check : float;  (** the paper's headline ≈ 1 metric. *)
  (* cost *)
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  link_hops : int;
  storage_bytes : int;
  notifications : int;
  (* flexibility *)
  migrations : int;
  redirects : int;
  retries : int;
  resubmissions : int;
}

val of_run :
  messages:Message.t list ->
  counters:Dsim.Stats.Counter.t ->
  messages_sent:int ->
  messages_delivered:int ->
  messages_dropped:int ->
  link_hops:int ->
  storage_bytes:int ->
  report
(** Assemble a report from a finished run's raw artefacts. *)

val of_system : (module System_intf.S with type t = 'a) -> 'a -> report
(** Assemble the report from any design through the shared
    {!System_intf.S} surface — the single implementation behind the
    per-design conveniences below. *)

val of_syntax : Syntax_system.t -> report
val of_location : Location_system.t -> report

val pp : Format.formatter -> report -> unit
