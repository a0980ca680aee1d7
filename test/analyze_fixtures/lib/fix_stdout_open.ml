(* lint: allow missing-mli — fixture file; R4 is what is under test *)
(* Fixture: R4 stdout — the same channel reached through [open Printf]
   and through a module alias, which only a resolved path shows. *)

open Printf

let shout n = printf "%d\n" n

module P = Printf

let aliased n = P.printf "%d\n" n
