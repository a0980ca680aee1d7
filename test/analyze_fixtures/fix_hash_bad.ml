(* Fixture: poly-compare — Hashtbl.hash is flagged at any type.  Bare
   [compare] is flagged only at an unsafe type (fix_poly_bad.ml), so
   the sort at int below must NOT be flagged. *)

let sorted (xs : int list) = List.sort compare xs

let bucket x = Hashtbl.hash x mod 16
