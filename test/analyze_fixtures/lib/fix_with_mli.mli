(** Fixture interface for {!Fix_with_mli}. *)

val double : int -> int
