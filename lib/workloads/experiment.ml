(* The experiment registry: every table and figure of the paper's
   evaluation, plus the extensions, as named entries that each turn a
   scale into text tables, JSON points and verdict failures.  The one
   runner ([etrees_run bench]) owns printing, the meta probe and the
   BENCH_<exp>.json files; DESIGN.md §3 indexes the experiments and
   EXPERIMENTS.md sets them against the paper. *)

module R = Report
module J = Etrace.Json

type scale = {
  horizon : int;
  counts : int list;
  rt_total : int;
  traced : bool;
  chrome_level : Etrace.Level.t option;
}

let default_scale =
  {
    horizon = 200_000;
    counts = [ 2; 4; 8; 16; 32; 64; 128; 256 ];
    rt_total = 2_560;
    traced = false;
    chrome_level = None;
  }

let quick_scale =
  {
    default_scale with
    horizon = 50_000;
    counts = [ 4; 16; 64; 256 ];
    rt_total = 640;
  }

let full_scale = { default_scale with horizon = 1_000_000 }

type outcome = {
  text : string;
  points : J.value list option;
  extra : (string * J.value) list;
  failures : string list;
  chrome : Etrace.Chrome.t option;
}

type t = { name : string; run : scale -> outcome }

let progress fmt =
  Printf.ksprintf
    (fun s ->
      prerr_string ("# " ^ s ^ "\n");
      flush stderr)
    fmt

let outcome ?points ?(extra = []) ?(failures = []) ?chrome buf =
  { text = Buffer.contents buf; points; extra; failures; chrome }

(* Every table is followed by a blank line. *)
let add_table buf ~title ~row_label ~columns rows =
  Buffer.add_string buf (R.table ~title ~row_label ~columns rows);
  Buffer.add_char buf '\n'

let verdict ok = if ok then "PASS" else "FAIL"
let method_name make = (make ~procs:2).Pool_obj.name
let counter_name make = (make ~procs:2).Pool_obj.cname

(* Rows of a method-comparison table: one per [keys] entry, one cell
   per series, taken from the series' point whose [key] matches. *)
let grid ~key ~cell keys series =
  List.map
    (fun k ->
      ( string_of_int k,
        List.map (fun points -> cell (List.find (fun p -> key p = k) points))
          series ))
    keys

(* The JSON points of a method sweep: [json name p] per point. *)
let sweep_json name_of json makes series =
  List.concat
    (List.map2
       (fun make points -> List.map (json ~method_name:(name_of make)) points)
       makes series)

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: produce-consume                                    *)
(* ------------------------------------------------------------------ *)

(* Produce-consume at [workload] over [methods] and [counts], one table
   per [(title, cell)]; returns the sweep's JSON points. *)
let pc_tables ?config ?races ?(workload = 0) ~label ~scale ~counts methods
    tables buf =
  let columns = List.map method_name methods in
  let series =
    List.map
      (fun make ->
        progress "%s: %s" label (method_name make);
        Produce_consume.sweep ~horizon:scale.horizon ?config ?races ~workload
          ~proc_counts:counts make)
      methods
  in
  List.iter
    (fun (title, cell) ->
      add_table buf ~title ~row_label:"procs" ~columns
        (grid ~key:(fun p -> p.Produce_consume.procs) ~cell counts series))
    tables;
  sweep_json method_name (Produce_consume.point_json ~workload) methods series

let throughput p = R.int_ p.Produce_consume.throughput_per_m
let latency p = R.float1 p.Produce_consume.latency

let produce_consume_tables ?races ~scale ~workload buf =
  let title = Printf.sprintf "Produce-Consume, Workload=%d: %s" workload in
  pc_tables ?races ~workload
    ~label:(Printf.sprintf "produce-consume W=%d" workload)
    ~scale ~counts:scale.counts Methods.produce_consume_methods
    [
      (title "throughput (ops per 10^6 cycles)", throughput);
      (title "average latency (cycles/op)", latency);
    ]
    buf

(* The traced fig7 run: the elimination tree at the largest processor
   count under the attribution sink, and the Chrome exporter when a
   chrome level is requested. *)
let traced_fig7 scale buf =
  let procs = List.fold_left max 2 scale.counts in
  progress "fig7 traced: etree @ %d procs (level %s)" procs
    (Etrace.Level.to_string
       (Option.value scale.chrome_level ~default:Etrace.Level.Off));
  let tr =
    Traced.run ?chrome_level:scale.chrome_level ~procs (fun () ->
        Produce_consume.run ~horizon:scale.horizon ~workload:0 ~procs
          (fun ~procs -> Methods.etree_pool ~procs ()))
  in
  Buffer.add_string buf
    (R.attribution_table
       ~title:(Printf.sprintf "Cycle attribution: etree, W=0, %d procs" procs)
       tr.Traced.attribution);
  Buffer.add_char buf '\n';
  tr

let fig7 scale =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Figure 7: produce-consume, Workload = 0 ==\n\n";
  let points = produce_consume_tables ~races:true ~scale ~workload:0 buf in
  if not scale.traced then outcome ~points buf
  else
    let tr = traced_fig7 scale buf in
    let a = tr.Traced.attribution in
    let failures =
      if Etrace.Attribution.check a then []
      else
        [
          Printf.sprintf "fig7: attribution books do not balance (%d/%d cycles)"
            a.Etrace.Attribution.attributed_cycles
            a.Etrace.Attribution.total_cycles;
        ]
    in
    outcome ~points
      ~extra:[ ("attribution", R.attribution_json a) ]
      ~failures ?chrome:tr.Traced.chrome buf

let fig8 scale =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "== Figure 8: produce-consume, Workload > 0 ==\n\
     (the paper's exact non-zero workload constants are illegible in the\n\
    \ available text; 1000/4000/16000 preserve the reported regimes)\n\n";
  let points =
    List.concat_map
      (fun workload -> produce_consume_tables ~scale ~workload buf)
      [ 1_000; 4_000; 16_000 ]
  in
  outcome ~points buf

(* ------------------------------------------------------------------ *)
(* Table 1: elimination fractions per level                            *)
(* ------------------------------------------------------------------ *)

let table1 scale =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "== Table 1: fraction of tokens eliminated per tree level ==\n\n";
  let run procs =
    progress "table1: %d procs" procs;
    Table1.run ~horizon:scale.horizon ~procs ()
  in
  let r16 = run 16 and r256 = run 256 in
  let rows =
    List.map2
      (fun (a : Table1.level_row) (b : Table1.level_row) ->
        ( Printf.sprintf "level %d" a.Table1.level,
          [ R.percent a.Table1.fraction; R.percent b.Table1.fraction ] ))
      r16.Table1.rows r256.Table1.rows
  in
  add_table buf ~title:"Etree-32 on produce-consume (W=0)" ~row_label:"level"
    ~columns:[ "16 procs"; "256 procs" ]
    rows;
  Printf.bprintf buf
    "expected nodes traversed (incl. leaf): %.2f @16 procs, %.2f @256 procs\n\
     requests reaching leaf pools:          %s @16 procs, %s @256 procs\n\n"
    r16.Table1.expected_nodes r256.Table1.expected_nodes
    (R.percent r16.Table1.leaf_fraction)
    (R.percent r256.Table1.leaf_fraction);
  outcome buf

(* ------------------------------------------------------------------ *)
(* Figure 9: counting benchmark                                        *)
(* ------------------------------------------------------------------ *)

let counting_table ~label ~title ~scale methods buf =
  let series =
    List.map
      (fun make ->
        progress "%s: %s" label (counter_name make);
        Counting.sweep ~horizon:scale.horizon ~proc_counts:scale.counts make)
      methods
  in
  add_table buf ~title ~row_label:"procs"
    ~columns:(List.map counter_name methods)
    (grid
       ~key:(fun (p : Counting.point) -> p.Counting.procs)
       ~cell:(fun p -> R.int_ p.Counting.throughput_per_m)
       scale.counts series);
  series

let fig9 scale =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "== Figure 9: counting benchmark (fetch&increment loop) ==\n\n";
  let methods = Methods.counting_methods in
  let series =
    counting_table ~label:"counting"
      ~title:"Throughput (fetch&inc per 10^6 cycles)" ~scale methods buf
  in
  outcome ~points:(sweep_json counter_name Counting.point_json methods series) buf

(* ------------------------------------------------------------------ *)
(* Figure 10: 10-queens and response time                              *)
(* ------------------------------------------------------------------ *)

let queens_table ~label ~columns ~counts methods buf =
  let series =
    List.map
      (fun make ->
        progress "%s: %s" label (method_name make);
        Queens.sweep ~proc_counts:counts make)
      methods
  in
  add_table buf ~title:"Elapsed cycles until all 1110 tasks consumed"
    ~row_label:"procs" ~columns
    (grid
       ~key:(fun (p : Queens.point) -> p.Queens.procs)
       ~cell:(fun p -> R.int_ p.Queens.elapsed)
       counts series);
  series

let fig10 scale =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Figure 10 (left): 10-queens job distribution ==\n\n";
  let methods = Methods.distribution_methods in
  let columns = List.map method_name methods in
  let queens =
    queens_table ~label:"queens" ~columns ~counts:scale.counts methods buf
  in
  Buffer.add_string buf
    "== Figure 10 (right): response time (sparse handoff) ==\n\n";
  let rt_counts = List.filter (fun n -> n mod 2 = 0) scale.counts in
  let series =
    List.map
      (fun make ->
        progress "response-time: %s" (method_name make);
        Response_time.sweep ~total:scale.rt_total ~proc_counts:rt_counts make)
      methods
  in
  let table title cell =
    add_table buf ~title ~row_label:"procs" ~columns
      (grid
         ~key:(fun (p : Response_time.point) -> p.Response_time.procs)
         ~cell rt_counts series)
  in
  table
    (Printf.sprintf
       "Elapsed time until %d elements consumed, normalized per dequeue"
       scale.rt_total)
    (fun p -> R.float1 p.Response_time.normalized);
  table "Per-element response time, p50/p90/p99 (cycles)" (fun p ->
      R.latency_cell p.Response_time.rt);
  outcome
    ~points:
      (sweep_json method_name Queens.point_json methods queens
      @ sweep_json method_name Response_time.point_json methods series)
    buf

(* ------------------------------------------------------------------ *)
(* Chaos: the etrees.faults robustness sweep                           *)
(* ------------------------------------------------------------------ *)

let chaos scale =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "== Chaos: degradation under deterministic fault plans (etrees.faults) \
     ==\n\n";
  let procs = 64 and fault_seed = 7 in
  progress "chaos: procs=%d fault-seed=%d" procs fault_seed;
  let levels =
    Chaos.sweep ~fault_seed ~horizon:scale.horizon ~procs ~races:true ()
  in
  Buffer.add_string buf (Chaos.format_ladder levels);
  let columns = List.map (fun (_, label, _) -> label) levels in
  let methods =
    match levels with
    | (_, _, points) :: _ -> List.map (fun p -> p.Chaos.method_name) points
    | [] -> []
  in
  let table title cell =
    add_table buf ~title ~row_label:"method" ~columns
      (List.map
         (fun name ->
           ( name,
             List.map
               (fun (_, _, points) ->
                 cell (List.find (fun p -> p.Chaos.method_name = name) points))
               levels ))
         methods)
  in
  table "Throughput (ops per 10^6 cycles) vs fault level" (fun p ->
      R.int_ p.Chaos.throughput_per_m);
  table "Verdicts (conservation / termination bound; see docs/FAULTS.md)"
    (fun p ->
      verdict p.Chaos.conservation.Analysis.Conservation.ok
      ^ "/"
      ^ verdict p.Chaos.termination.Faults.Termination.ok);
  let failures =
    List.concat_map
      (fun (level, label, points) ->
        List.filter_map
          (fun (p : Chaos.point) ->
            let c = p.Chaos.conservation in
            if c.Analysis.Conservation.ok then None
            else
              Some
                (Printf.sprintf "chaos: conservation @ level %d (%s), %s: %s"
                   level label p.Chaos.method_name
                   c.Analysis.Conservation.detail))
          points)
      levels
  in
  outcome ~failures
    ~points:
      (List.concat_map
         (fun (level, label, points) ->
           List.map (Chaos.point_json ~level ~label) points)
         levels)
    buf

(* ------------------------------------------------------------------ *)
(* S1: the sharded service frontend (docs/SHARDING.md)                 *)
(* ------------------------------------------------------------------ *)

let service scale =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "== S1: sharded service frontend, closed-loop sessions \
     (docs/SHARDING.md) ==\n\n";
  (* Session budget by scale: the default sweep simulates >= 1M
     sessions total (6 points x 175k); quick keeps CI fast. *)
  let sessions =
    if scale.horizon < 100_000 then 5_000
    else if scale.horizon > 500_000 then 350_000
    else 175_000
  in
  let shard_counts = [ 1; 8 ] in
  let regimes = Service.default_regimes ~mean_gap:800 in
  progress "service: shards=1,8 sessions=%d" sessions;
  let points = Service.sweep ~shard_counts ~sessions ~regimes () in
  List.iter (fun p -> Printf.bprintf buf "%s\n" (Service.format_point p)) points;
  Buffer.add_char buf '\n';
  let table title cell =
    add_table buf ~title ~row_label:"regime"
      ~columns:(List.map string_of_int shard_counts)
      (List.map
         (fun regime ->
           ( Arrivals.name regime,
             List.map
               (fun shards ->
                 cell
                   (List.find
                      (fun (p : Service.point) ->
                        p.Service.regime_name = Arrivals.name regime
                        && p.Service.shards = shards)
                      points))
               shard_counts ))
         regimes)
  in
  table "Completed requests per 10^6 cycles vs shard count" (fun p ->
      R.int_ p.Service.throughput_per_m);
  table "Sojourn (completion - scheduled arrival), p50/p90/p99 (cycles)"
    (fun p -> R.latency_cell p.Service.sojourn);
  let failures =
    List.filter_map
      (fun (p : Service.point) ->
        let c = p.Service.conservation in
        if c.Analysis.Conservation.ok then None
        else
          Some
            (Printf.sprintf "service: conservation @ %s shards=%d: %s"
               p.Service.regime_name p.Service.shards
               c.Analysis.Conservation.detail))
      points
  in
  Printf.bprintf buf "conservation (whole frontend, per shard): %s\n\n"
    (verdict (failures = []));
  outcome ~failures ~points:(List.map Service.point_json points) buf

(* ------------------------------------------------------------------ *)
(* A1: the adaptive crossover (docs/ADAPTIVE.md)                       *)
(* ------------------------------------------------------------------ *)

let adapt scale =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "== A1: reactive vs hand-tuned static elimination (docs/ADAPTIVE.md) \
     ==\n\n";
  let procs = List.fold_left max 2 scale.counts in
  (* Load falls as think time grows; trim the axis at quick scale. *)
  let workloads =
    if scale.horizon < 100_000 then [ 0; 2_000; 16_000 ]
    else Adapt_sweep.default_workloads
  in
  let specs = Adapt_sweep.methods () in
  progress "adapt: %d methods @ %d procs" (List.length specs) procs;
  let series =
    Adapt_sweep.sweep ~horizon:scale.horizon ~workloads ~procs specs
  in
  let table what cell =
    add_table buf
      ~title:(Printf.sprintf "Produce-consume @ %d procs: %s" procs what)
      ~row_label:"workload"
      ~columns:(List.map (fun (s : Adapt_sweep.method_spec) -> s.label) specs)
      (grid
         ~key:(fun (p : Adapt_sweep.point) -> p.Adapt_sweep.workload)
         ~cell workloads series)
  in
  table "throughput (ops per 10^6 cycles) vs think time" (fun p ->
      R.int_ p.Adapt_sweep.throughput_per_m);
  table "average latency (cycles/op) vs think time" (fun p ->
      R.float1 p.Adapt_sweep.latency);
  let flat = List.concat series in
  (* The reactive column's final state along the axis. *)
  List.iter
    (fun (p : Adapt_sweep.point) ->
      Option.iter
        (fun levels ->
          Printf.bprintf buf "adapted (W=%d) spin:[widths] by depth: %s\n"
            p.Adapt_sweep.workload
            (Adapt_sweep.format_levels levels))
        p.Adapt_sweep.final_adapt)
    flat;
  Printf.bprintf buf
    "\nshape: saturation within 5%% of best static: %s; low-load latency \
     strictly best: %s\n\n"
    (verdict (Adapt_sweep.saturation_ok flat))
    (verdict (Adapt_sweep.low_load_ok flat));
  outcome ~points:(List.map Adapt_sweep.point_json flat) buf

(* ------------------------------------------------------------------ *)
(* Ablations (extensions; see EXPERIMENTS.md)                          *)
(* ------------------------------------------------------------------ *)

let ablate scale =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "== Ablations: what makes the elimination tree fast? ==\n\n";
  pc_tables ~label:"ablate" ~scale
    ~counts:(List.filter (fun n -> n >= 16) scale.counts)
    Methods.ablation_methods
    [
      ("Produce-consume W=0: throughput (ops per 10^6 cycles)", throughput);
      ("Produce-consume W=0: average latency (cycles/op)", latency);
    ]
    buf
  |> ignore;
  outcome buf

(* ------------------------------------------------------------------ *)
(* Extra experiments beyond the paper                                  *)
(* ------------------------------------------------------------------ *)

let width_sweep scale buf =
  Buffer.add_string buf
    "== Extra: elimination-tree width sensitivity (the paper chose 32 \
     empirically) ==\n\n";
  pc_tables ~label:"width" ~scale ~counts:scale.counts Methods.width_methods
    [ ("Produce-consume W=0: throughput (ops per 10^6 cycles)", throughput) ]
    buf
  |> ignore

let lineage scale buf =
  Buffer.add_string buf
    "== Extra: counting-network lineage (not in the paper) ==\n\n";
  ignore
    (counting_table ~label:"extra counting"
       ~title:
         "Throughput (fetch&inc per 10^6 cycles): AHS bitonic network [4] vs \
          diffracting trees vs one hot location"
       ~scale Methods.counting_extra_methods buf);
  Buffer.add_string buf
    "== Extra: LIFO job distribution (stack-like pool vs stealing) ==\n\n";
  let methods = Methods.distribution_extra_methods in
  ignore
    (queens_table ~label:"extra queens"
       ~columns:(List.map method_name methods)
       ~counts:scale.counts methods buf)

(* Thesis experiments: load sweep and LIFO fidelity. *)
let thesis scale buf =
  Buffer.add_string buf
    "== Extra: elimination rate and latency vs offered load (Etree-32, 256 \
     procs) ==\n\n";
  progress "load sweep";
  let points =
    Load_sweep.sweep ~horizon:scale.horizon ~procs:256
      ~workloads:[ 0; 500; 1_000; 2_000; 4_000; 8_000; 16_000 ]
      ()
  in
  add_table buf ~title:"The busier it gets, the faster it gets"
    ~row_label:"workload"
    ~columns:[ "latency"; "root elim"; "reach leaf" ]
    (List.map
       (fun (p : Load_sweep.point) ->
         ( string_of_int p.Load_sweep.workload,
           [
             R.float1 p.Load_sweep.latency;
             R.percent p.Load_sweep.root_elimination;
             R.percent p.Load_sweep.leaf_fraction;
           ] ))
       points);
  Buffer.add_string buf
    "== Extra: LIFO fidelity of the stack-like pool (fraction of pops \
     returning the newest element) ==\n\n";
  let methods =
    [
      (fun ~procs -> Methods.estack_pool ~procs ());
      (fun ~procs -> Methods.etree_pool ~procs ());
    ]
  in
  let counts = List.filter (fun n -> n >= 4) scale.counts in
  let series =
    List.map
      (fun make ->
        progress "lifo fidelity: %s" (method_name make);
        Lifo_fidelity.sweep ~horizon:scale.horizon ~proc_counts:counts make)
      methods
  in
  let rows =
    List.map
      (fun procs ->
        ( string_of_int procs,
          List.concat_map
            (fun points ->
              let p =
                List.find (fun p -> p.Lifo_fidelity.procs = procs) points
              in
              [
                R.percent p.Lifo_fidelity.hit_fraction;
                R.float2 p.Lifo_fidelity.mean_rank;
              ])
            series ))
      counts
  in
  add_table buf
    ~title:
      "Stack-like pool vs plain (FIFO-leaf) pool, produce-consume (hits: pop \
       returned the newest element; rank: 0 = stack, 1 = queue)"
    ~row_label:"procs"
    ~columns:
      (List.concat_map
         (fun make ->
           let c = method_name make in
           [ c ^ " hits"; c ^ " rank" ])
         methods)
    rows

(* Model sensitivity.  The cost model assumes hot locations can be
   read-shared (reads do not serialize); this re-runs the headline
   comparison with reads queueing like writes: the ranking and shapes
   must survive, only constants move. *)
let model scale buf =
  Buffer.add_string buf
    "== Extra: model sensitivity (reads serialize like writes) ==\n\n";
  List.iter
    (fun (label, config) ->
      pc_tables ?config
        ~label:(Printf.sprintf "model(%s)" label)
        ~scale
        ~counts:(List.filter (fun n -> n >= 16) scale.counts)
        Methods.produce_consume_methods
        [
          ( Printf.sprintf "Produce-consume W=0 throughput, %s read model"
              label,
            throughput );
        ]
        buf
      |> ignore)
    [
      ("shared (default)", None);
      ("serialized", Some Sim.Memory.serialized_reads_config);
    ]

let extra scale =
  let buf = Buffer.create 8192 in
  List.iter (fun f -> f scale buf) [ width_sweep; lineage; thesis; model ];
  outcome buf

(* ------------------------------------------------------------------ *)

let all =
  [
    { name = "fig7"; run = fig7 };
    { name = "fig8"; run = fig8 };
    { name = "table1"; run = table1 };
    { name = "fig9"; run = fig9 };
    { name = "fig10"; run = fig10 };
    { name = "chaos"; run = chaos };
    { name = "service"; run = service };
    { name = "adapt"; run = adapt };
    { name = "ablate"; run = ablate };
    { name = "extra"; run = extra };
  ]
