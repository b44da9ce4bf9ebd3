(* etrees.benchdb — the append-only benchmark database and the
   perf-regression gate built on it (docs/BENCHDB.md, ROADMAP item 4).

   Every `etrees_run bench --json` run stamps its BENCH_<exp>.json with a
   deterministic "meta" block (Report.Meta); [Db] folds those blocks
   into one committed JSONL file per experiment, [Gate] compares a
   fresh run against the DB's reference entry with ci_bench-style
   thresholds, [Page] renders the accumulated series as a
   self-contained HTML trend page, and [Baseline] regenerates
   BENCH_BASELINE.md from the reference entries.  Pure stdlib over the
   Etrace.Json codec, below the simulator in the dependency graph. *)

module Db = Db
module Gate = Gate
module Page = Page
module Baseline = Baseline
