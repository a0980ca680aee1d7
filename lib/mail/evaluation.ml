type report = {
  submitted : int;
  deposited : int;
  retrieved : int;
  undelivered : int;
  unretrieved : int;
  duplicates_suppressed : int;
  mean_delivery_latency : float;
  max_delivery_latency : float;
  mean_end_to_end_latency : float;
  mean_forward_hops : float;
  checks : int;
  polls : int;
  failed_polls : int;
  polls_per_check : float;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  link_hops : int;
  storage_bytes : int;
  notifications : int;
  migrations : int;
  redirects : int;
  retries : int;
  resubmissions : int;
}

let of_run ~messages ~counters ~messages_sent ~messages_delivered ~messages_dropped
    ~link_hops ~storage_bytes =
  let get k = Dsim.Stats.Counter.get counters k in
  let submitted = List.length messages in
  let deposited = List.length (List.filter Message.is_deposited messages) in
  let retrieved = List.length (List.filter Message.is_retrieved messages) in
  let delivery = Dsim.Stats.Summary.create () in
  let end_to_end = Dsim.Stats.Summary.create () in
  let hops = Dsim.Stats.Summary.create () in
  List.iter
    (fun m ->
      (match Message.delivery_latency m with
      | Some l -> Dsim.Stats.Summary.add delivery l
      | None -> ());
      (match Message.end_to_end_latency m with
      | Some l -> Dsim.Stats.Summary.add end_to_end l
      | None -> ());
      if Message.is_deposited m then
        Dsim.Stats.Summary.add hops (float_of_int m.Message.forward_hops))
    messages;
  let checks = get "checks" in
  let polls = get "polls" in
  {
    submitted;
    deposited;
    retrieved;
    undelivered = submitted - deposited;
    unretrieved = deposited - retrieved;
    duplicates_suppressed = max 0 (get "deposits" - deposited);
    mean_delivery_latency = Dsim.Stats.Summary.mean delivery;
    max_delivery_latency =
      (if Dsim.Stats.Summary.count delivery = 0 then nan
       else Dsim.Stats.Summary.max delivery);
    mean_end_to_end_latency = Dsim.Stats.Summary.mean end_to_end;
    mean_forward_hops = Dsim.Stats.Summary.mean hops;
    checks;
    polls;
    failed_polls = get "failed_polls";
    polls_per_check = (if checks = 0 then nan else float_of_int polls /. float_of_int checks);
    messages_sent;
    messages_delivered;
    messages_dropped;
    link_hops;
    storage_bytes;
    notifications = get "notifications";
    migrations = get "migrations";
    redirects = get "redirects";
    retries = get "retries";
    resubmissions = get "resubmissions";
  }

let of_system (type a) (module M : System_intf.S with type t = a) (sys : a) =
  let net = M.net sys in
  let storage = Replica_group.storage_bytes (M.storage sys) in
  of_run
    ~messages:(M.submitted sys)
    ~counters:(M.counters sys)
    ~messages_sent:(Netsim.Net.messages_sent net)
    ~messages_delivered:(Netsim.Net.messages_delivered net)
    ~messages_dropped:(Netsim.Net.messages_dropped net)
    ~link_hops:(Netsim.Net.hops_traversed net)
    ~storage_bytes:storage

let of_syntax sys = of_system (module System.Syntax) sys
let of_location sys = of_system (module System.Location) sys

let pp ppf r =
  Format.fprintf ppf
    "@[<v>reliability: submitted=%d deposited=%d retrieved=%d undelivered=%d \
     unretrieved=%d dup=%d@ efficiency: delivery=%.3f (max %.3f) e2e=%.3f hops=%.2f \
     checks=%d polls=%d (%.3f/check, %d failed)@ cost: msgs=%d delivered=%d \
     dropped=%d link-hops=%d storage=%dB notif=%d@ flexibility: migrations=%d \
     redirects=%d retries=%d resubmissions=%d@]"
    r.submitted r.deposited r.retrieved r.undelivered r.unretrieved
    r.duplicates_suppressed r.mean_delivery_latency r.max_delivery_latency
    r.mean_end_to_end_latency r.mean_forward_hops r.checks r.polls r.polls_per_check
    r.failed_polls r.messages_sent r.messages_delivered r.messages_dropped r.link_hops
    r.storage_bytes r.notifications r.migrations r.redirects r.retries r.resubmissions
