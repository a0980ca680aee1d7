type labels = (string * string) list

let normalise_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Registry: duplicate label key %S" a)
        else check rest
    | _ -> ()
  in
  check sorted;
  sorted

type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Reservoirs are seeded deterministically so percentile readouts are
   reproducible run-to-run. *)
let reservoir_seed = 0x7e1e

type histogram = {
  lo : float;
  hi : float;
  buckets : int;
  mutable hist : Dsim.Stats.Histogram.t;
  mutable reservoir : Dsim.Stats.Reservoir.t;
  mutable summary : Dsim.Stats.Summary.t;
}

type metric = C of counter | G of gauge | H of histogram

type key = string * labels

type t = {
  base : labels;
  tbl : (key, metric) Hashtbl.t;
  (* Metric names whose values are wall-clock (or otherwise not
     reproducible run-to-run); excluded from JSON artifacts by default
     so BENCH.json stays byte-identical across identical seeds. *)
  volatile : (string, unit) Hashtbl.t;
}

let create ?(labels = []) () =
  {
    base = normalise_labels labels;
    tbl = Hashtbl.create 32;
    volatile = Hashtbl.create 4;
  }

let mark_volatile t name = Hashtbl.replace t.volatile name ()
let is_volatile t name = Hashtbl.mem t.volatile name

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let find_or_create t name labels make expect =
  let key = (name, normalise_labels labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> (
      match expect m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Registry: %S already registered as a %s" name
               (kind_name m)))
  | None ->
      let m, v = make () in
      Hashtbl.replace t.tbl key m;
      v

(* --- counters ----------------------------------------------------------- *)

let counter ?(labels = []) t name =
  find_or_create t name labels
    (fun () ->
      let c = { c = 0 } in
      (C c, c))
    (function C c -> Some c | _ -> None)

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let set_counter ?labels t name v = (counter ?labels t name).c <- v

let get_counter ?(labels = []) t name =
  match Hashtbl.find_opt t.tbl (name, normalise_labels labels) with
  | Some (C c) -> c.c
  | _ -> 0

(* --- gauges ------------------------------------------------------------- *)

let gauge ?(labels = []) t name =
  find_or_create t name labels
    (fun () ->
      let g = { g = 0. } in
      (G g, g))
    (function G g -> Some g | _ -> None)

let set_gauge g v = g.g <- v
let add_gauge g v = g.g <- g.g +. v

let get_gauge ?(labels = []) t name =
  match Hashtbl.find_opt t.tbl (name, normalise_labels labels) with
  | Some (G g) -> g.g
  | _ -> nan

(* --- histograms --------------------------------------------------------- *)

let default_lo = 0.
let default_hi = 1000.
let default_buckets = 40

let make_histogram ~lo ~hi ~buckets =
  {
    lo;
    hi;
    buckets;
    hist = Dsim.Stats.Histogram.create ~lo ~hi ~buckets;
    reservoir = Dsim.Stats.Reservoir.create (Dsim.Rng.create reservoir_seed);
    summary = Dsim.Stats.Summary.create ();
  }

let histogram ?(labels = []) ?(lo = default_lo) ?(hi = default_hi)
    ?(buckets = default_buckets) t name =
  find_or_create t name labels
    (fun () ->
      let h = make_histogram ~lo ~hi ~buckets in
      (H h, h))
    (function H h -> Some h | _ -> None)

let observe h x =
  Dsim.Stats.Histogram.add h.hist x;
  Dsim.Stats.Reservoir.add h.reservoir x;
  Dsim.Stats.Summary.add h.summary x

let clear_histogram h =
  h.hist <- Dsim.Stats.Histogram.create ~lo:h.lo ~hi:h.hi ~buckets:h.buckets;
  h.reservoir <- Dsim.Stats.Reservoir.create (Dsim.Rng.create reservoir_seed);
  h.summary <- Dsim.Stats.Summary.create ()

let hist_count h = Dsim.Stats.Summary.count h.summary
let hist_mean h = Dsim.Stats.Summary.mean h.summary
let hist_min h = if hist_count h = 0 then nan else Dsim.Stats.Summary.min h.summary
let hist_max h = if hist_count h = 0 then nan else Dsim.Stats.Summary.max h.summary
let percentile h p = Dsim.Stats.Reservoir.percentile h.reservoir p
let hist_overflow h = Dsim.Stats.Histogram.overflow h.hist
let hist_underflow h = Dsim.Stats.Histogram.underflow h.hist

(* --- whole-registry ----------------------------------------------------- *)

let metric_names t =
  Hashtbl.fold (fun (name, _) _ acc -> name :: acc) t.tbl []
  |> List.sort_uniq String.compare

(* Base labels folded into each metric's own labels; the metric's own
   binding wins on a key collision. *)
let full_labels t labels =
  let own_keys = List.map fst labels in
  labels @ List.filter (fun (k, _) -> not (List.mem k own_keys)) t.base
  |> normalise_labels

let compare_label (k1, v1) (k2, v2) =
  match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c

let rec compare_labels a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys -> (
      match compare_label x y with 0 -> compare_labels xs ys | c -> c)

(* Bindings in deterministic (name, labels) order — hash order must not
   influence merge results (gauge last-write-wins, reservoir insertion)
   or serialisation. *)
let sorted_bindings t =
  Hashtbl.fold (fun key m acc -> (key, m) :: acc) t.tbl []
  |> List.sort (fun ((n1, l1), _) ((n2, l2), _) ->
         match String.compare n1 n2 with 0 -> compare_labels l1 l2 | c -> c)

let merge a b =
  let out = create () in
  let absorb src =
    List.iter
      (fun ((name, labels), m) ->
        let labels = full_labels src labels in
        match m with
        | C c ->
            let tgt = counter ~labels out name in
            tgt.c <- tgt.c + c.c
        | G g ->
            let tgt = gauge ~labels out name in
            tgt.g <- g.g
        | H h ->
            let tgt =
              histogram ~labels ~lo:h.lo ~hi:h.hi ~buckets:h.buckets out name
            in
            if tgt.lo <> h.lo || tgt.hi <> h.hi || tgt.buckets <> h.buckets then
              invalid_arg
                (Printf.sprintf
                   "Registry.merge: histogram %S has incompatible buckets" name);
            tgt.hist <- Dsim.Stats.Histogram.merge tgt.hist h.hist;
            Array.iter
              (Dsim.Stats.Reservoir.add tgt.reservoir)
              (Dsim.Stats.Reservoir.values h.reservoir);
            tgt.summary <- Dsim.Stats.Summary.merge tgt.summary h.summary)
      (sorted_bindings src);
    Hashtbl.iter (fun name () -> mark_volatile out name) src.volatile
  in
  absorb a;
  absorb b;
  out

(* --- serialisation ------------------------------------------------------ *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let sorted_metrics t =
  List.map (fun ((name, labels), m) -> (name, labels, m)) (sorted_bindings t)

type snapshot_value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram

let iter_sorted ?(include_volatile = false) f t =
  List.iter
    (fun (name, labels, m) ->
      if (not include_volatile) && is_volatile t name then ()
      else
        let v =
          match m with
          | C c -> Counter_value c.c
          | G g -> Gauge_value g.g
          | H h -> Histogram_value h
        in
        f name labels v)
    (sorted_metrics t)

let to_json ?(include_volatile = false) t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, labels, m) ->
      if not include_volatile && is_volatile t name then ()
      else
      let common = [ ("name", Json.String name); ("labels", labels_json labels) ] in
      match m with
      | C c -> counters := Json.Obj (common @ [ ("value", Json.Int c.c) ]) :: !counters
      | G g -> gauges := Json.Obj (common @ [ ("value", Json.Float g.g) ]) :: !gauges
      | H h ->
          let buckets =
            Dsim.Stats.Histogram.bucket_counts h.hist
            |> Array.to_list
            |> List.map (fun (lo, hi, c) ->
                   Json.Obj
                     [
                       ("lo", Json.Float lo);
                       ("hi", Json.Float hi);
                       ("count", Json.Int c);
                     ])
          in
          histograms :=
            Json.Obj
              (common
              @ [
                  ("count", Json.Int (hist_count h));
                  ("mean", Json.Float (hist_mean h));
                  ("min", Json.Float (hist_min h));
                  ("max", Json.Float (hist_max h));
                  ("p50", Json.Float (percentile h 50.));
                  ("p90", Json.Float (percentile h 90.));
                  ("p99", Json.Float (percentile h 99.));
                  ("underflow", Json.Int (hist_underflow h));
                  ("overflow", Json.Int (hist_overflow h));
                  ("buckets", Json.List buckets);
                ])
            :: !histograms)
    (sorted_metrics t);
  Json.Obj
    [
      ("labels", labels_json t.base);
      ("counters", Json.List (List.rev !counters));
      ("gauges", Json.List (List.rev !gauges));
      ("histograms", Json.List (List.rev !histograms));
    ]

let pp ppf t =
  List.iter
    (fun (name, labels, m) ->
      let lbl =
        match labels with
        | [] -> ""
        | l ->
            "{"
            ^ String.concat "," (List.map (fun (k, v) -> k ^ "=\"" ^ v ^ "\"") l)
            ^ "}"
      in
      match m with
      | C c -> Format.fprintf ppf "%s%s %d@." name lbl c.c
      | G g -> Format.fprintf ppf "%s%s %g@." name lbl g.g
      | H h ->
          Format.fprintf ppf "%s%s count=%d mean=%g p50=%g p90=%g p99=%g@." name
            lbl (hist_count h) (hist_mean h) (percentile h 50.) (percentile h 90.)
            (percentile h 99.))
    (sorted_metrics t)
