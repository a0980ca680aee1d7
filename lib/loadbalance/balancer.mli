(** The §3.1.1 server-assignment algorithm: initialization followed by
    iterative load balancing.

    Initialization assigns every host's whole population to its
    nearest server by zero-load communication time.  Balancing then
    repeatedly scans the hosts; for each host it finds the
    cheapest server [S_min] and the dearest currently-used server
    [S_max] under the *current* loads, trial-moves users from [S_max]
    to [S_min], and keeps the move only if the global objective
    [Σ A_ij·TC_ij] strictly improves (the paper's "undo the previous
    action" step).  Every accepted move strictly decreases a
    lower-bounded objective, so the loop terminates. *)

type stats = {
  passes : int;  (** scans over the host list. *)
  users_moved : int;  (** accepted moves, in users. *)
  rejected_moves : int;  (** trial moves undone. *)
  cost_before : float;
  cost_after : float;
  converged : bool;  (** false only if [max_passes] was hit. *)
}

val pp_stats : Format.formatter -> stats -> unit

val initialize : Assignment.problem -> Assignment.t
(** Nearest-server initial assignment (ties to the lowest server
    index). *)

val balance :
  ?max_passes:int -> ?batch:bool -> Assignment.problem -> Assignment.t -> stats
(** Balance in place.  [batch] enables the paper's speed-up of moving
    several users at once (half of the source allocation, falling back
    to a single user when the large move does not improve).  Default
    [max_passes] 10000, [batch] false. *)

val run : ?batch:bool -> Assignment.problem -> Assignment.t * stats
(** [initialize] + [balance]. *)

val max_utilization : Assignment.problem -> Assignment.t -> float
val load_imbalance : Assignment.problem -> Assignment.t -> float
(** Max minus min utilisation over servers — 0 means perfectly even. *)
