(** Bounded span collector: creation, per-trace reassembly, exports.

    Retention is decided per trace, never per span.  Trace [id] is
    kept while [mix id land (stride - 1) = 0] for a fixed bijective
    hash [mix]; [stride] starts at 1 and is a power of two.  Below
    [capacity] every span is kept.  When a kept span arrives at a full
    buffer, the stride doubles and the traces that no longer pass are
    dropped in place, oldest-first order preserved — repeatedly, until
    there is room.  A trace that passes at a larger stride passed at
    every smaller one, so every retained trace is whole: the retained
    spans are a uniform sample of whole traces over the entire run,
    and {!total} keeps counting everything ever collected.

    Callers decide before building anything: a root site calls
    {!open_trace} and builds its span only when {!keeps} says so; a
    child site tests [keeps] on its root's trace first, since a kept
    trace can be thinned out later in the run.

    Spans created through one tracer get tracer-unique span ids;
    a span created with neither [?trace] nor [?parent] opens a fresh
    trace.  Mutating an already-collected span (finishing it, adding
    attributes) is always safe: the buffer holds the same record the
    caller does. *)

type t

val create : ?capacity:int -> unit -> t
(** Collector retaining at most [capacity] spans (default 65536).
    @raise Invalid_argument when [capacity <= 0]. *)

val open_trace : t -> int
(** Allocate a fresh trace id without building a span.  Pass it to
    {!span} as [~trace] when {!keeps} holds for it. *)

val keeps : t -> int -> bool
(** Whether trace [id] is currently retained.  Once false it stays
    false until {!clear}: spans offered for it are counted by {!total} and dropped. *)

val pin : t -> int -> unit
(** Exempt trace [id] from thinning: {!keeps} holds for it until
    {!clear}, and its spans are only ever dropped when the buffer
    holds nothing but pinned traces.  Meant for a fresh id from
    {!open_trace} carrying a few timeline annotations (the fault
    windows of a campaign), not for sampled request traces. *)

val span :
  t ->
  ?trace:int ->
  ?parent:Span.t ->
  ?attrs:(string * string) list ->
  ?finish:float ->
  name:string ->
  start:float ->
  unit ->
  Span.t
(** Create and collect a span.  [?parent] places it under that span
    (inheriting its trace; [?trace] is then ignored); [?trace] alone
    appends a parentless span to an existing trace; with neither, a
    fresh trace is opened and the span is its root.  [?finish] closes
    the span immediately (instant events pass [~finish:start]).  A
    span whose trace {!keeps} rejects is built and counted but not
    retained. *)

(** {1 Reading back} *)

val spans : t -> Span.t list
(** Retained spans, oldest first. *)

val total : t -> int
(** All spans ever collected, including dropped ones. *)

val dropped : t -> int
(** Spans thinned out with their traces ([total - retained]).
    Published by the metric snapshotters as the [trace_dropped]
    counter, so the sampling rate a critical-path analysis saw is
    visible. *)

val count : ?name:string -> ?trace:int -> t -> int
(** Retained spans matching the optional filters. *)

val clear : t -> unit
(** Drop every span and reset {!total}, the stride and the pins; ids
    keep counting. *)

(** {1 Per-trace reassembly} *)

val trace_ids : t -> int list
(** Distinct trace ids among retained spans, ascending. *)

val trace_spans : t -> int -> Span.t list
(** One trace's retained spans, ordered by start time then span id. *)

val traces : t -> (int * Span.t list) list
(** All retained traces: [(trace_id, spans)] with spans ordered as in
    {!trace_spans}, ascending trace id. *)

type tree = { span : Span.t; children : tree list }
(** Reassembled span tree; children ordered by start then span id. *)

val forest : Span.t list -> tree list
(** Build trees from a span list: a span whose parent id is absent
    from the list becomes a root. *)

val trees : t -> int -> tree list
(** [forest (trace_spans t id)]. *)

val is_connected : Span.t list -> bool
(** The spans reassemble into exactly one tree — every parent
    reference resolves and there is a single root. *)

(** {1 Exports} *)

val to_jsonl : t -> string
(** One compact JSON object per line ({!Span.to_json} shape), oldest
    first — the [--trace-out] / [TRACE.jsonl] format. *)

val to_chrome : t -> Json.t
(** Chrome [trace_event] JSON (open via [chrome://tracing] or
    [ui.perfetto.dev]): complete events ([ph:"X"]) with one virtual
    time unit mapped to one microsecond, [pid] 1 and one [tid] per
    trace so each trace renders as its own row. *)

val pp : Format.formatter -> t -> unit
