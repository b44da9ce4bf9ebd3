(** Plain-text tables and JSON fields for the benchmark reports. *)

val table :
  title:string ->
  row_label:string ->
  columns:string list ->
  (string * string list) list ->
  string
(** [table ~title ~row_label ~columns rows] renders right-aligned
    columns; each row is (label, preformatted cells). *)

val ops : Sim.stats -> string
(** One-line [reads/writes/rmws] summary of a run's engine-level
    operation counters, e.g. ["1052r/312w/97rmw"]. *)

val latency_cell : Etrace.Histogram.summary -> string
(** ["p50/p90/p99"] of a latency distribution, e.g. ["41/96/204"]. *)

val float1 : float -> string
val float2 : float -> string
val percent : float -> string
val int_ : int -> string

val stats_fields : Sim.stats -> (string * Etrace.Json.value) list
(** A run's engine-level counters (reads, writes, rmws, events, end
    clock, crashes, fault defers, queue wait) as JSON point fields. *)

(** {2 Trace-derived reporting} *)

val histogram_json : Etrace.Histogram.summary -> Etrace.Json.value

val attribution_table : title:string -> Etrace.Attribution.summary -> string
(** The flamegraph-style cycle-attribution table: one row per tree
    layer (plus the outside-the-tree pseudo-layer and a total row),
    one column per {!Etrace.Attribution.category}, cells as shares of
    total simulated cycles. *)

val attribution_json : Etrace.Attribution.summary -> Etrace.Json.value

(** {2 Meta: the per-run provenance + cost probe}

    Snapshots host cost ([Sys.time], [Gc.quick_stat]) and the
    simulator's cumulative event/op odometer ({!Sim.totals}) around a
    benchmark run, yielding the ["meta"] block every [BENCH_<exp>.json]
    carries and the ["# host ..."] stdout line — both rendered from the
    same record, so they can never disagree.  The deterministic columns
    (events, reads/writes/rmws, minor words per event) are the ones the
    perf-regression gate compares (docs/BENCHDB.md); wall-clock columns
    are recorded but advisory. *)

module Meta : sig
  type t = {
    experiment : string;
    seed : int;
    date : string;      (** UTC [YYYY-MM-DD]; ["unknown"] off-host *)
    commit : string;    (** short SHA; ["unknown"] outside a checkout *)
    dirty : bool;       (** tracked files modified at run time *)
    toolchain : string; (** e.g. ["ocaml-5.1.1/64-bit"] *)
    events : int;       (** simulated events fired during the run *)
    reads : int;
    writes : int;
    rmws : int;
    cpu_s : float;      (** host CPU seconds (advisory) *)
    minor_words : float;
    major_words : float;
    major_collections : int;
    events_per_sec : float;         (** derived; 0 when cpu_s = 0 *)
    minor_words_per_event : float;  (** derived; 0 when events = 0 *)
  }

  type probe

  val start : unit -> probe
  val stop : probe -> experiment:string -> seed:int -> t
  val json : t -> Etrace.Json.value
  val host_line : t -> string
end
