(** Declarative health monitors over a metrics registry.

    A monitor holds a list of rules and is evaluated once per
    timeseries window (see {!Timeseries}).  Each rule names a metric,
    picks a {e selector} (the raw value, its per-window delta or rate,
    or a histogram readout) and applies a {e condition}:

    - [Above x] / [Below x] — plain thresholds;
    - [Absent n] — the reading has not changed (or the metric is
      missing) for [n] consecutive windows: a liveness check;
    - [Burn {threshold; window; budget}] — sliding-window SLO burn:
      each window is {e violating} when the selected value exceeds
      [threshold]; the rule fires when the fraction of violating
      windows among the last [window] windows exceeds [budget].

    Firing produces a typed {!alert} record and, when the monitor was
    created with a registry, bumps [alert_fired{rule=...}] and
    [alert_total] counters (registered eagerly so they exist — at
    zero — even for rules that never fire).  Evaluation state is
    per-rule and deterministic: identical seeded runs produce
    byte-identical alert streams. *)

type selector = Value | Delta | Rate | Mean | P50 | P90 | P99
(** How to read the metric.  [Value] is the counter/gauge reading (for
    histograms: the observation count); [Delta] is the change since
    the previous window; [Rate] is delta per unit of virtual time;
    [Mean]/[P50]/[P90]/[P99] are cumulative-to-window histogram
    readouts. *)

type condition =
  | Above of float
  | Below of float
  | Absent of int
  | Burn of { threshold : float; window : int; budget : float }

type rule = {
  rule_name : string;
  metric : string;
  labels : Registry.labels;  (** the metric's own labels, sorted by key. *)
  selector : selector;
  condition : condition;
}

type alert = {
  a_rule : string;
  a_window : int;  (** 0-based window index at which the rule fired. *)
  a_time : float;  (** virtual time of the window. *)
  a_value : float;  (** the offending selected value (burn fraction for
                        [Burn] rules, streak length for [Absent]). *)
  a_message : string;  (** deterministic human-readable description. *)
}

(** {1 The rules DSL}

    Rules are written [NAME=METRIC[{k=v,...}][.SELECTOR]COND] and
    separated by commas (commas inside label braces don't split).
    [SELECTOR] is one of [value] (default), [delta], [rate], [mean],
    [p50], [p90], [p99].  [COND] is [>x], [<x], [!n] (absent for [n]
    windows) or [~THRESHOLD/WINDOW/BUDGET] (SLO burn).  Examples:

    {[ queue-backlog=pipeline_pending>500
       retry-burst=retries.delta>200
       delivery-p99=delivery_latency.p99~250/10/0.5
       deposit-stall=deposits!20 ]} *)

val parse : string -> rule list
(** @raise Invalid_argument with a [Monitor.parse: ...] message on any
    syntax error. *)

val rule_to_string : rule -> string
val to_string : rule list -> string
(** Inverse of {!parse} (modulo whitespace and label order, which is
    normalised to sorted-by-key). *)

val standard : rule list
(** The default rule set used by [bench] and [mailsim monitor]:
    degraded replica chains, pipeline backlog, retry bursts, a p99
    delivery-latency SLO burn, and a deposit liveness check. *)

val standard_dsl : string
(** {!standard} in DSL form, for [--rules] defaults and help text. *)

(** {1 Evaluation} *)

type t

val create : ?registry:Registry.t -> rule list -> t
(** A fresh monitor.  When [registry] is given, [alert_fired{rule=...}]
    (one per rule) and [alert_total] counters are registered
    immediately and incremented on every fire. *)

val rules : t -> rule list

val eval : t -> time:float -> Registry.t -> alert list
(** Evaluate every rule against the registry's current (sampled)
    state as the next window; returns the alerts fired by this window
    in rule order.  Metrics are read through the non-volatile snapshot
    view ({!Registry.iter_sorted}), never created. *)

val alerts : t -> alert list
(** All alerts fired so far, in firing order. *)

val windows_evaluated : t -> int
val fired : t -> bool
val slo_violated : t -> bool
(** [true] when at least one [Burn] rule fired — the exit-1 condition
    for [mailsim monitor]. *)

(** {1 Reporting} *)

type rule_summary = {
  s_rule : rule;
  fires : int;
  worst_window : int;  (** window of the severest firing; [-1] if none. *)
  worst_value : float;  (** severest offending value; [nan] if none. *)
  burn_fraction : float;
      (** [Burn] rules: final sliding burn fraction; other rules: the
          fraction of evaluated windows that fired. *)
}

val summary : t -> rule_summary list
(** One summary per rule, in declaration order. *)

val summary_to_json : t -> Json.t
(** The BENCH.json [slo] section:
    [{"windows","alerts","slo_violated",
      "rules":[{"rule","expr","fires","worst_window","worst_value",
                "burn_fraction"}…]}]. *)

val pp_summary : Format.formatter -> t -> unit
