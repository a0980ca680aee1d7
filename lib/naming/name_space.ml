type server = int

type scheme = By_region | By_host | By_hash of int

module NameSet = Set.Make (Name)

type t = {
  mutable scheme : scheme;
  mutable names : NameSet.t;
  assignments : (string, server list) Hashtbl.t;
}

(* FNV-1a over the bytes of a string, folded into [0, groups). The
   host component is deliberately excluded so that names stay in the
   same context when a user's primary host changes within a region
   (design 2 requirement). *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let hash_group ~groups name =
  if groups <= 0 then invalid_arg "Name_space.hash_group: groups <= 0";
  let key = Name.region name ^ "\x00" ^ Name.user name in
  let h = fnv1a key in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int groups))

let create scheme = { scheme; names = NameSet.empty; assignments = Hashtbl.create 16 }

let scheme t = t.scheme

let context_of t name =
  match t.scheme with
  | By_region -> Name.region name
  | By_host -> Name.region name ^ "/" ^ Name.host name
  | By_hash k -> Printf.sprintf "%s/g%d" (Name.region name) (hash_group ~groups:k name)

let register t name =
  if NameSet.mem name t.names then
    invalid_arg (Printf.sprintf "Name_space.register: %s already registered" (Name.to_string name));
  t.names <- NameSet.add name t.names

let unregister t name = t.names <- NameSet.remove name t.names

let mem t name = NameSet.mem name t.names

let names t = NameSet.elements t.names

let names_in_context t ctx =
  List.filter (fun n -> String.equal (context_of t n) ctx) (names t)

let contexts t =
  names t |> List.map (context_of t) |> List.sort_uniq String.compare

let assign_context t ctx servers = Hashtbl.replace t.assignments ctx servers

let servers_of_context t ctx =
  match Hashtbl.find_opt t.assignments ctx with Some l -> l | None -> []

let rebalance_hash t ~k =
  if k <= 0 then invalid_arg "Name_space.rebalance_hash: k <= 0";
  match t.scheme with
  | By_region | By_host ->
      invalid_arg "Name_space.rebalance_hash: scheme is not By_hash"
  | By_hash _ ->
      let old_ctx = List.map (fun n -> (n, context_of t n)) (names t) in
      t.scheme <- By_hash k;
      List.length
        (List.filter (fun (n, c) -> not (String.equal (context_of t n) c)) old_ctx)
