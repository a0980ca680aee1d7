(** Partitioned, replicated name space (§2).

    "The name space is partitioned into some easily manageable
    subspaces referred to as contexts and distributed among servers so
    that no server needs the complete knowledge of all names."

    A name space registers user names, groups them into contexts
    according to a partition scheme, and assigns each context an
    ordered list of authority servers (replicas).  Server identifiers
    are abstract integers supplied by the caller (they are
    {!Netsim.Graph.node}s in the full system). *)

type server = int

(** How names are grouped into contexts. *)
type scheme =
  | By_region  (** one context per region (coarse). *)
  | By_host  (** one context per (region, host) pair — design 1. *)
  | By_hash of int  (** [By_hash k]: k contexts per region, selected by
                        hashing the (region, user) pair — design 2;
                        deliberately host-independent. *)

type t

val create : scheme -> t

val scheme : t -> scheme

val context_of : t -> Name.t -> string
(** Context identifier a name belongs to (pure function of the scheme
    and the name). *)

val register : t -> Name.t -> unit
(** Add a name.  @raise Invalid_argument if already registered. *)

val unregister : t -> Name.t -> unit
(** Remove a name; unknown names are a no-op. *)

val mem : t -> Name.t -> bool
val names : t -> Name.t list
(** Sorted. *)

val names_in_context : t -> string -> Name.t list
val contexts : t -> string list
(** Contexts with at least one registered name, sorted. *)

val assign_context : t -> string -> server list -> unit
(** Set the ordered authority-server replica list for a context. *)

val servers_of_context : t -> string -> server list
(** Empty when unassigned. *)

val rebalance_hash : t -> k:int -> int
(** Switch a [By_hash _] space to [By_hash k]; returns how many
    registered names changed context (the reconfiguration cost of
    §3.2.3c "reallocation of load can be done by changing the hashing
    functions").
    @raise Invalid_argument when the current scheme is not [By_hash _]
    or [k <= 0]. *)

val hash_group : groups:int -> Name.t -> int
(** The FNV-1a based (region, user) hash used by [By_hash];
    exposed for the design-2 resolver and its tests. *)
