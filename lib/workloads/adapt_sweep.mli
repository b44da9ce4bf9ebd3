(** A1 — the adaptive crossover (docs/ADAPTIVE.md): produce-consume at
    a fixed processor count across think-time workloads, hand-tuned
    static spin schedules versus the reactive controller.  Emitted as
    BENCH_adapt.json by [etrees_run bench adapt] and shape-checked by
    test/test_bench_shapes.ml. *)

type point = {
  method_name : string;
  reactive : bool;
  workload : int;  (** think-time bound, cycles; load falls as it grows *)
  procs : int;
  throughput_per_m : int;
  latency : float;
  lat : Etrace.Histogram.summary;
  elim_rate : float option;
  final_adapt : (int * int list) list list option;
      (** reactive only: per-depth [(spin, widths)] after the run *)
}

type method_spec = {
  label : string;
  reactive : bool;
  make : procs:int -> int Pool_obj.pool;
}

val default_spin_bases : int list
val default_workloads : int list

val methods :
  ?width:int ->
  ?spin_bases:int list ->
  ?config:Adapt.config ->
  unit ->
  method_spec list
(** Static "Etree-w/s<base>" columns for each spin base plus one
    reactive "Etree-w/adapt" column. *)

val run_point :
  ?seed:int ->
  ?horizon:int ->
  procs:int ->
  workload:int ->
  method_spec ->
  point

val sweep :
  ?seed:int ->
  ?horizon:int ->
  ?workloads:int list ->
  procs:int ->
  method_spec list ->
  point list list
(** One inner list per method, across the workload axis. *)

val format_levels : (int * int list) list list -> string
(** Reactive state by depth as ["spin:[w;w],... | ..."], one
    [(spin, widths)] pair per balancer. *)

val point_json : point -> Etrace.Json.value
(** One point of the [BENCH_adapt.json] report. *)

(** {2 Shape predicates} (shared with the regression test) *)

val saturation_ok : ?tolerance_pct:int -> point list -> bool
(** At the smallest workload: reactive throughput within
    [tolerance_pct] (default 5) percent of the best static schedule.
    [false] when the reactive or static columns are missing. *)

val low_load_ok : point list -> bool
(** At the largest workload: reactive latency strictly below every
    static schedule's. *)
