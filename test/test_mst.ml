(* Tests for Edge_id and Kruskal, cross-checked against the Prim
   oracle in prim.ml. *)

let test_edge_id_normalises () =
  let e = Mst.Edge_id.make 5 2 3. in
  Alcotest.(check int) "lo" 2 e.Mst.Edge_id.lo;
  Alcotest.(check int) "hi" 5 e.Mst.Edge_id.hi;
  try
    ignore (Mst.Edge_id.make 4 4 1.);
    Alcotest.fail "self loop accepted"
  with Invalid_argument _ -> ()

let test_edge_id_order () =
  let a = Mst.Edge_id.make 0 1 1. in
  let b = Mst.Edge_id.make 0 2 1. in
  let c = Mst.Edge_id.make 1 2 1. in
  let d = Mst.Edge_id.make 0 1 2. in
  Alcotest.(check bool) "weight first" true (Mst.Edge_id.compare a d < 0);
  Alcotest.(check bool) "ties by lo then hi" true
    (Mst.Edge_id.compare a b < 0 && Mst.Edge_id.compare b c < 0);
  Alcotest.(check bool) "equal" true (Mst.Edge_id.equal a (Mst.Edge_id.make 1 0 1.))

let test_edge_id_less_with_infinity () =
  let a = Some (Mst.Edge_id.make 0 1 1.) in
  Alcotest.(check bool) "finite < inf" true (Mst.Edge_id.less a None);
  Alcotest.(check bool) "inf not < finite" false (Mst.Edge_id.less None a);
  Alcotest.(check bool) "inf not < inf" false (Mst.Edge_id.less None None)

let known_graph () =
  (* classic example: MST weight = 1+2+2+3 = 8 over 5 nodes *)
  let g = Netsim.Graph.create () in
  let n () = Netsim.Graph.add_node g in
  let a = n () and b = n () and c = n () and d = n () and e = n () in
  List.iter
    (fun (u, v, w) -> Netsim.Graph.add_edge g u v w)
    [
      (a, b, 1.); (a, c, 5.); (b, c, 2.); (b, d, 4.); (c, d, 3.); (c, e, 2.); (d, e, 6.);
    ];
  g

let test_kruskal_known () =
  let r = Mst.Kruskal.run (known_graph ()) in
  Alcotest.(check (float 1e-9)) "weight" 8. r.Mst.Kruskal.total_weight;
  Alcotest.(check int) "edges" 4 (List.length r.Mst.Kruskal.edges);
  Alcotest.(check int) "one component" 1 r.Mst.Kruskal.components

let test_kruskal_forest () =
  let g = Netsim.Graph.create () in
  let a = Netsim.Graph.add_node g and b = Netsim.Graph.add_node g in
  let c = Netsim.Graph.add_node g and d = Netsim.Graph.add_node g in
  Netsim.Graph.add_edge g a b 1.;
  Netsim.Graph.add_edge g c d 2.;
  let r = Mst.Kruskal.run g in
  Alcotest.(check int) "two components" 2 r.Mst.Kruskal.components;
  Alcotest.(check (float 1e-9)) "forest weight" 3. r.Mst.Kruskal.total_weight

let test_kruskal_empty_and_single () =
  let empty = Mst.Kruskal.run (Netsim.Graph.create ()) in
  Alcotest.(check int) "empty components" 0 empty.Mst.Kruskal.components;
  let g = Netsim.Graph.create () in
  ignore (Netsim.Graph.add_node g);
  let single = Mst.Kruskal.run g in
  Alcotest.(check int) "single node" 1 single.Mst.Kruskal.components;
  Alcotest.(check int) "no edges" 0 (List.length single.Mst.Kruskal.edges)

let test_prim_known () =
  let r = Prim.run (known_graph ()) in
  Alcotest.(check (float 1e-9)) "weight" 8. r.Mst.Kruskal.total_weight;
  Alcotest.(check int) "edges" 4 (List.length r.Mst.Kruskal.edges)

let prop_prim_equals_kruskal =
  QCheck.Test.make ~name:"Prim and Kruskal produce the identical tree" ~count:60
    QCheck.(int_range 2 40)
    (fun n ->
      let rng = Dsim.Rng.create (n * 17) in
      let g =
        Netsim.Topology.random_connected ~rng ~n ~extra_edges:n ~min_weight:1.
          ~max_weight:10.
      in
      let k = Mst.Kruskal.run g and p = Prim.run g in
      k.Mst.Kruskal.edges = p.Mst.Kruskal.edges)

let prop_mst_edge_count =
  QCheck.Test.make ~name:"spanning tree has n-1 edges on connected graphs" ~count:60
    QCheck.(int_range 1 40)
    (fun n ->
      let rng = Dsim.Rng.create (n * 23) in
      let g =
        Netsim.Topology.random_connected ~rng ~n ~extra_edges:(2 * n) ~min_weight:1.
          ~max_weight:10.
      in
      List.length (Mst.Kruskal.run g).Mst.Kruskal.edges = n - 1)

(* Cut property spot check: for any tree edge removed, it is the
   cheapest edge crossing the two induced sides. *)
let prop_cut_property =
  QCheck.Test.make ~name:"every tree edge is a minimum crossing edge" ~count:20
    QCheck.(int_range 3 20)
    (fun n ->
      let rng = Dsim.Rng.create (n * 29) in
      let g =
        Netsim.Topology.random_connected ~rng ~n ~extra_edges:n ~min_weight:1.
          ~max_weight:10.
      in
      let tree = (Mst.Kruskal.run g).Mst.Kruskal.edges in
      List.for_all
        (fun (u, v, w) ->
          (* sides via union-find over remaining tree edges *)
          let parent = Array.init (Netsim.Graph.node_count g) Fun.id in
          let rec find x = if parent.(x) = x then x else (parent.(x) <- find parent.(x); parent.(x)) in
          List.iter
            (fun (a, b, w') ->
              if not (a = u && b = v && w = w') then begin
                let ra = find a and rb = find b in
                if ra <> rb then parent.(ra) <- rb
              end)
            tree;
          (* all graph edges crossing the cut must weigh >= w (by Edge_id order) *)
          List.for_all
            (fun (a, b, w') ->
              find a = find b
              || Mst.Edge_id.compare (Mst.Edge_id.make u v w) (Mst.Edge_id.make a b w')
                 <= 0)
            (Netsim.Graph.edges g))
        tree)

let suite =
  [
    ( "mst",
      [
        Alcotest.test_case "edge id normalises" `Quick test_edge_id_normalises;
        Alcotest.test_case "edge id order" `Quick test_edge_id_order;
        Alcotest.test_case "edge id with infinity" `Quick test_edge_id_less_with_infinity;
        Alcotest.test_case "kruskal known graph" `Quick test_kruskal_known;
        Alcotest.test_case "kruskal forest" `Quick test_kruskal_forest;
        Alcotest.test_case "kruskal degenerate" `Quick test_kruskal_empty_and_single;
        Alcotest.test_case "prim known graph" `Quick test_prim_known;
        QCheck_alcotest.to_alcotest prop_prim_equals_kruskal;
        QCheck_alcotest.to_alcotest prop_mst_edge_count;
        QCheck_alcotest.to_alcotest prop_cut_property;
      ] );
  ]
