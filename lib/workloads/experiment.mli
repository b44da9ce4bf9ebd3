(** The experiment registry: each table and figure of the paper's
    evaluation (and each extension) as a named entry from a {!scale}
    to an {!outcome}.  Entries print nothing to stdout and write no
    files; the runner ([etrees_run bench]) prints [text], wraps
    [points] with a meta block into [BENCH_<name>.json], writes any
    Chrome trace and turns [failures] into a non-zero exit. *)

type scale = {
  horizon : int;  (** simulated cycles per run *)
  counts : int list;  (** processor counts swept *)
  rt_total : int;  (** elements handed off by the response-time runs *)
  traced : bool;  (** add fig7's cycle-attributed run *)
  chrome_level : Etrace.Level.t option;
      (** also capture that run's Chrome trace at this level *)
}

val default_scale : scale
val quick_scale : scale
(** Reduced horizon and processor counts (the CI and [@perf] scale). *)

val full_scale : scale
(** The paper's 10^6-cycle runs. *)

type outcome = {
  text : string;  (** the tables, exactly as printed *)
  points : Etrace.Json.value list option;
      (** [None]: the experiment writes no JSON report *)
  extra : (string * Etrace.Json.value) list;
      (** top-level report fields after ["points"] *)
  failures : string list;  (** verdict failures (conservation, books) *)
  chrome : Etrace.Chrome.t option;
}

type t = { name : string; run : scale -> outcome }

val all : t list
(** fig7 fig8 table1 fig9 fig10 chaos service adapt ablate extra, in
    run order. *)

val progress : ('a, unit, string, unit) format4 -> 'a
(** A ["# ..."] progress line on stderr. *)
