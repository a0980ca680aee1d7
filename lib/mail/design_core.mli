(** The design-independent half of a mail system.

    Designs 1 (§3.1, syntax-directed) and 2 (§3.2, location-independent)
    share one delivery substrate: the deposit/forward {!Pipeline},
    replicated authority servers ({!Replica_group}), GetMail retrieval
    (§3.1.2c) and migration by rename-with-redirect (§3.1.4).  They
    differ only in how a name maps to its authority servers and where
    its user currently is.  This module owns the shared state and
    operations once; a design is a {!resolver} over it plus whatever
    state its naming scheme needs (['d]). *)

type ('ctrl, 'd) t
(** A running system with control payload ['ctrl] and design state
    ['d]. *)

(** What a design supplies: the {!Pipeline.callbacks} that differ
    between designs, each given the running system, plus a hook run
    after every GetMail check.  The replica group's chain for a uid is
    [authority_of_uid] of its canonical (redirect-followed) uid. *)
type ('ctrl, 'd) resolver = {
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

val create :
  who:string ->
  design:string ->
  scheme:Naming.Name_space.scheme ->
  mailbox_policy:Mailbox.policy ->
  retry_timeout:float ->
  resubmit_timeout:float ->
  max_retries:int ->
  bandwidth:float option ->
  service_rate:float option ->
  loss_rate:float ->
  span_sample:int ->
  users_per_host:int ->
  authority:(('ctrl, 'd) t -> host:Netsim.Graph.node -> slot:int -> Naming.Name.t ->
             Netsim.Graph.node list) ->
  ('ctrl, 'd) resolver ->
  'd ->
  Netsim.Topology.mail_site ->
  ('ctrl, 'd) t
(** Build the engine, telemetry (registry base label
    [design=<design>]), ledger, one storage holder per site server, one
    [scheme] name space per region holding a server or a host, and the
    pipeline routed over the infrastructure nodes; the settings mean
    what they do in {!Syntax_system.config}.  Then add users
    [u0 … u(users_per_host-1)] on every site host, hosts in site
    order, each with the chain [authority] returns.  [who] prefixes
    error messages. *)

(** The shared operations.  A design [include]s this module, so the
    entries of its own interface that match these are the core's. *)
module Ops : sig
  val state : ('ctrl, 'd) t -> 'd
  val engine : ('ctrl, 'd) t -> Dsim.Engine.t
  val pipeline : ('ctrl, 'd) t -> 'ctrl Pipeline.t
  val net : ('ctrl, 'd) t -> 'ctrl Pipeline.wire Netsim.Net.t
  val graph : ('ctrl, 'd) t -> Netsim.Graph.t
  val now : ('ctrl, 'd) t -> float
  val counters : ('ctrl, 'd) t -> Dsim.Stats.Counter.t
  val count : ?by:int -> ('ctrl, 'd) t -> string -> unit
  val metrics : ('ctrl, 'd) t -> Telemetry.Registry.t
  val tracer : ('ctrl, 'd) t -> Telemetry.Tracer.t
  val ledger : ('ctrl, 'd) t -> Ledger.t
  val submitted : ('ctrl, 'd) t -> Message.t list
  val storage : ('ctrl, 'd) t -> Replica_group.t
  val server_nodes : ('ctrl, 'd) t -> Netsim.Graph.node list

  val region_servers : ('ctrl, 'd) t -> string -> Netsim.Graph.node list
  (** The servers of a region in site order ([] for none). *)

  val region_of_node : ('ctrl, 'd) t -> Netsim.Graph.node -> string
  (** The node's region; [""] reads as ["r0"]. *)

  val by_distance :
    ('ctrl, 'd) t -> Netsim.Graph.node -> Netsim.Graph.node list -> Netsim.Graph.node list
  (** [by_distance t host servers]: nearest first by static (zero-load)
      distance over the site graph; ties keep list order. *)

  val space : ('ctrl, 'd) t -> string -> Naming.Name_space.t option
  val iter_spaces : ('ctrl, 'd) t -> (Naming.Name_space.t -> unit) -> unit

  (** {1 Users} *)

  val users : ('ctrl, 'd) t -> Naming.Name.t list
  val agent : ('ctrl, 'd) t -> Naming.Name.t -> User_agent.t
  val find_agent : ('ctrl, 'd) t -> Naming.Name.t -> User_agent.t option
  val agent_by_uid : ('ctrl, 'd) t -> int -> User_agent.t option
  val name_of_uid : ('ctrl, 'd) t -> int -> Naming.Name.t
  val iter_agents : ('ctrl, 'd) t -> (Naming.Name.t -> User_agent.t -> unit) -> unit

  val add_agent :
    ('ctrl, 'd) t -> Naming.Name.t -> host:Netsim.Graph.node ->
    authority:Netsim.Graph.node list -> unit
  (** Create the user's agent and register the name, with [authority]
      as its context's servers, in its region's space. *)

  val remove_agent : ('ctrl, 'd) t -> Naming.Name.t -> unit
  (** Drop the agent and unregister the name. *)

  val migrate :
    ('ctrl, 'd) t ->
    Naming.Name.t ->
    new_host:Netsim.Graph.node ->
    authority:(Naming.Name.t -> Netsim.Graph.node list) ->
    Naming.Name.t
  (** §3.1.4 rename: add the user at [new_host] under its old user
      token (uniquified with [-mN] if taken), with [authority] of the
      new name; drop the old name and redirect it to the new one
      (counter ["migrations"]).  Returns the new name. *)

  val redirect_target : ('ctrl, 'd) t -> Naming.Name.t -> Naming.Name.t option

  (** {1 Mail} *)

  val new_message :
    ('ctrl, 'd) t ->
    sender:Naming.Name.t ->
    recipient:Naming.Name.t ->
    subject:string ->
    body:string ->
    parts:Content.part list ->
    at:float ->
    Message.t
  (** A message with the next id, recorded in {!submitted}. *)

  val submit_at :
    ('ctrl, 'd) t ->
    at:float ->
    sender:Naming.Name.t ->
    recipient:Naming.Name.t ->
    ?subject:string ->
    ?body:string ->
    ?parts:Content.part list ->
    unit ->
    Message.t
  (** @raise Invalid_argument on an unknown sender, or a recipient
      that is neither a user nor redirected. *)

  val view : ('ctrl, 'd) t -> User_agent.server_view
  val check_mail : ('ctrl, 'd) t -> Naming.Name.t -> User_agent.check_stats
  val check_mail_at : ('ctrl, 'd) t -> at:float -> Naming.Name.t -> unit
  val compact : ('ctrl, 'd) t -> int
  val publish_health : ('ctrl, 'd) t -> unit
  val run_until : ('ctrl, 'd) t -> float -> unit
  val quiesce : ?step:float -> ?max_steps:int -> ('ctrl, 'd) t -> unit
end
