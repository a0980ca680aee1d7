type stats = {
  passes : int;
  users_moved : int;
  rejected_moves : int;
  cost_before : float;
  cost_after : float;
  converged : bool;
}

let pp_stats ppf s =
  Format.fprintf ppf "passes=%d moved=%d rejected=%d cost %.2f -> %.2f%s" s.passes
    s.users_moved s.rejected_moves s.cost_before s.cost_after
    (if s.converged then "" else " (not converged)")

let n_hosts (p : Assignment.problem) = Array.length p.hosts
let n_servers (p : Assignment.problem) = Array.length p.servers

let initialize problem =
  let t = Assignment.empty problem in
  for i = 0 to n_hosts problem - 1 do
    (* Cost at initialization is communication time alone. *)
    let best = ref 0 in
    for j = 1 to n_servers problem - 1 do
      if problem.Assignment.comm.(i).(j) < problem.Assignment.comm.(i).(!best) then
        best := j
    done;
    Assignment.set t ~host:i ~server:!best problem.Assignment.populations.(i)
  done;
  t

(* One trial move of [count] users of host [i] from [s_max] to
   [s_min]; kept only if the global objective strictly improves.  The
   O(1) closed-form delta replaces a full objective recompute (the
   "undo the previous action" of the paper's pseudocode becomes
   not applying the move at all). *)
let try_move problem t ~host ~from_server ~to_server ~count =
  let delta = Assignment.move_delta problem t ~host ~from_server ~to_server ~count in
  if delta < 0. then begin
    Assignment.move t ~host ~from_server ~to_server count;
    true
  end
  else false

let balance ?(max_passes = 10000) ?(batch = false) problem t =
  let cost_before = Assignment.total_cost problem t in
  let users_moved = ref 0 in
  let rejected = ref 0 in
  let passes = ref 0 in
  (* In batch mode, a first phase moves half-allocations at a time for
     speed, then a single-move polish phase recovers the fine-grained
     optimum the one-user-at-a-time loop reaches. *)
  let batch_phase = ref batch in
  let changed = ref true in
  while !changed && !passes < max_passes do
    changed := false;
    incr passes;
    let batch = !batch_phase in
    for i = 0 to n_hosts problem - 1 do
      if Assignment.assigned_of_host t i > 0 then begin
        let tc j = Assignment.connection_cost problem t ~host:i ~server:j in
        let s_min = ref 0 and s_max = ref (-1) in
        for j = 1 to n_servers problem - 1 do
          if tc j < tc !s_min then s_min := j
        done;
        for j = 0 to n_servers problem - 1 do
          if Assignment.get t ~host:i ~server:j > 0 then
            if !s_max < 0 || tc j > tc !s_max then s_max := j
        done;
        let s_min = !s_min and s_max = !s_max in
        if s_max >= 0 && s_min <> s_max && tc s_min < tc s_max then begin
          let available = Assignment.get t ~host:i ~server:s_max in
          let accepted_count =
            if batch then begin
              let bulk = max 1 (available / 2) in
              if
                bulk > 1
                && try_move problem t ~host:i ~from_server:s_max ~to_server:s_min
                     ~count:bulk
              then Some bulk
              else if
                try_move problem t ~host:i ~from_server:s_max ~to_server:s_min
                  ~count:1
              then Some 1
              else None
            end
            else if
              try_move problem t ~host:i ~from_server:s_max ~to_server:s_min ~count:1
            then Some 1
            else None
          in
          match accepted_count with
          | Some n ->
              users_moved := !users_moved + n;
              changed := true
          | None -> incr rejected
        end
      end
    done;
    if (not !changed) && !batch_phase then begin
      batch_phase := false;
      changed := true
    end
  done;
  {
    passes = !passes;
    users_moved = !users_moved;
    rejected_moves = !rejected;
    cost_before;
    cost_after = Assignment.total_cost problem t;
    converged = not !changed;
  }

let run ?batch problem =
  let t = initialize problem in
  let stats = balance ?batch problem t in
  (t, stats)

let max_utilization problem t =
  let m = ref 0. in
  for j = 0 to n_servers problem - 1 do
    m := Float.max !m (Assignment.utilization problem t j)
  done;
  !m

let load_imbalance problem t =
  let lo = ref infinity and hi = ref neg_infinity in
  for j = 0 to n_servers problem - 1 do
    let u = Assignment.utilization problem t j in
    if u < !lo then lo := u;
    if u > !hi then hi := u
  done;
  !hi -. !lo
