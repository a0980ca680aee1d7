(* Tests for the partitioned name space. *)

let n r h u = Naming.Name.make ~region:r ~host:h ~user:u

let test_register_and_membership () =
  let sp = Naming.Name_space.create Naming.Name_space.By_host in
  let a = n "east" "vax1" "alice" in
  Naming.Name_space.register sp a;
  Alcotest.(check bool) "mem" true (Naming.Name_space.mem sp a);
  Alcotest.(check int) "names" 1 (List.length (Naming.Name_space.names sp));
  (try
     Naming.Name_space.register sp a;
     Alcotest.fail "duplicate registration accepted"
   with Invalid_argument _ -> ());
  Naming.Name_space.unregister sp a;
  Alcotest.(check bool) "gone" false (Naming.Name_space.mem sp a);
  (* unregistering twice is fine *)
  Naming.Name_space.unregister sp a

let test_context_by_region () =
  let sp = Naming.Name_space.create Naming.Name_space.By_region in
  Alcotest.(check string) "context" "east"
    (Naming.Name_space.context_of sp (n "east" "h1" "u1"));
  Alcotest.(check string) "same for other host" "east"
    (Naming.Name_space.context_of sp (n "east" "h2" "u2"))

let test_context_by_host () =
  let sp = Naming.Name_space.create Naming.Name_space.By_host in
  Alcotest.(check string) "context" "east/h1"
    (Naming.Name_space.context_of sp (n "east" "h1" "u1"));
  Alcotest.(check bool) "hosts differ" true
    (Naming.Name_space.context_of sp (n "east" "h1" "u")
    <> Naming.Name_space.context_of sp (n "east" "h2" "u"))

let test_hash_host_independent () =
  (* Design 2's key property: the hash context ignores the host. *)
  let sp = Naming.Name_space.create (Naming.Name_space.By_hash 8) in
  let c1 = Naming.Name_space.context_of sp (n "east" "h1" "alice") in
  let c2 = Naming.Name_space.context_of sp (n "east" "h2" "alice") in
  Alcotest.(check string) "host does not matter" c1 c2;
  (* but region and user do *)
  let c3 = Naming.Name_space.context_of sp (n "west" "h1" "alice") in
  Alcotest.(check bool) "region matters" true
    (String.length c3 > 0 && not (String.equal (String.sub c1 0 4) (String.sub c3 0 4)))

let test_hash_group_range () =
  for groups = 1 to 16 do
    for i = 0 to 100 do
      let g =
        Naming.Name_space.hash_group ~groups (n "r" "h" (Printf.sprintf "u%d" i))
      in
      if g < 0 || g >= groups then Alcotest.failf "group %d out of range" g
    done
  done

let test_assignments () =
  let sp = Naming.Name_space.create Naming.Name_space.By_host in
  let a = n "east" "h1" "u1" in
  Naming.Name_space.register sp a;
  let servers () =
    Naming.Name_space.servers_of_context sp (Naming.Name_space.context_of sp a)
  in
  Alcotest.(check (list int)) "unassigned" [] (servers ());
  Naming.Name_space.assign_context sp (Naming.Name_space.context_of sp a) [ 3; 7 ];
  Alcotest.(check (list int)) "assigned" [ 3; 7 ] (servers ())

let test_contexts_listing () =
  let sp = Naming.Name_space.create Naming.Name_space.By_host in
  Naming.Name_space.register sp (n "east" "h1" "u1");
  Naming.Name_space.register sp (n "east" "h1" "u2");
  Naming.Name_space.register sp (n "east" "h2" "u1");
  Alcotest.(check (list string)) "contexts" [ "east/h1"; "east/h2" ]
    (Naming.Name_space.contexts sp);
  Alcotest.(check int) "names in context" 2
    (List.length (Naming.Name_space.names_in_context sp "east/h1"))

let test_rebalance_hash () =
  let sp = Naming.Name_space.create (Naming.Name_space.By_hash 4) in
  for i = 0 to 99 do
    Naming.Name_space.register sp (n "east" "h" (Printf.sprintf "user%d" i))
  done;
  let moved = Naming.Name_space.rebalance_hash sp ~k:5 in
  Alcotest.(check bool) "some move" true (moved > 0);
  Alcotest.(check bool) "not all move" true (moved < 100);
  (match Naming.Name_space.scheme sp with
  | Naming.Name_space.By_hash 5 -> ()
  | _ -> Alcotest.fail "scheme not updated");
  (* identity rebalance moves nothing *)
  Alcotest.(check int) "identity" 0 (Naming.Name_space.rebalance_hash sp ~k:5)

let test_rebalance_wrong_scheme () =
  let sp = Naming.Name_space.create Naming.Name_space.By_host in
  try
    ignore (Naming.Name_space.rebalance_hash sp ~k:4);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_hash_deterministic =
  QCheck.Test.make ~name:"hash_group is deterministic" ~count:200
    QCheck.(pair (int_range 1 32) small_string)
    (fun (groups, s) ->
      let user = if Naming.Name.valid_token s then s else "fallback" in
      let nm = n "r" "h" user in
      Naming.Name_space.hash_group ~groups nm = Naming.Name_space.hash_group ~groups nm)

let test_hash_spread () =
  (* 400 users over 8 groups: no group should be empty or hold more
     than half of all users. *)
  let counts = Array.make 8 0 in
  for i = 0 to 399 do
    let g = Naming.Name_space.hash_group ~groups:8 (n "r" "h" (Printf.sprintf "u%d" i)) in
    counts.(g) <- counts.(g) + 1
  done;
  Array.iteri
    (fun i c ->
      if c = 0 then Alcotest.failf "group %d empty" i;
      if c > 200 then Alcotest.failf "group %d overloaded: %d" i c)
    counts

let suite =
  [
    ( "name_space",
      [
        Alcotest.test_case "register/membership" `Quick test_register_and_membership;
        Alcotest.test_case "By_region contexts" `Quick test_context_by_region;
        Alcotest.test_case "By_host contexts" `Quick test_context_by_host;
        Alcotest.test_case "hash context ignores host" `Quick test_hash_host_independent;
        Alcotest.test_case "hash group in range" `Quick test_hash_group_range;
        Alcotest.test_case "authority assignments" `Quick test_assignments;
        Alcotest.test_case "contexts listing" `Quick test_contexts_listing;
        Alcotest.test_case "rebalance hash counts moves" `Quick test_rebalance_hash;
        Alcotest.test_case "rebalance wrong scheme" `Quick test_rebalance_wrong_scheme;
        QCheck_alcotest.to_alcotest prop_hash_deterministic;
        Alcotest.test_case "hash spreads load" `Quick test_hash_spread;
      ] );
  ]
