(* Fixture: R4 pass — outside lib/ the constructs lib/fix_stdout_bad.ml
   is flagged for are fine: executables own stdout and the exit code. *)

let shout () = print_endline "loud"

let format_shout n = Printf.printf "%d\n" n

let bail () = exit 1
