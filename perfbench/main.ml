(* The repository benchmark: one workload per invocation.

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 repeats the workload at one seed a fixed number of times,
   about S seconds' worth, and prints the end-to-end metrics; --trace 1
   is the separate per-layer run.  The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   See README.md for the workloads, the metrics and what each should
   move. *)

let workloads = [ "pc-saturated"; "pc-sparse"; "service-bursty" ]

(* Timed reps per second of --seconds: a fixed count for the run's
   arguments, set so that a run lasts about --seconds on the host the
   benchmark was built on when that host runs at half its quiet speed,
   and about half that when it is quiet.  The count does not depend on
   the speed under test, so a slower build gets as many reps as a
   faster one. *)
let reps_per_second = function
  | "pc-saturated" -> 0.65
  | "pc-sparse" -> 0.75
  | "service-bursty" -> 0.4
  | w -> invalid_arg w

(* The simulated workloads, one rep each at [seed]; the traced run
   toggles the race detector itself. *)
let sim_rep ?races = function
  | "pc-saturated" ->
      fun ~seed ->
        Simwork.pc_rep ~seed ~points:5 ~horizon:10_000 ~workload:0
          ~races:(Option.value races ~default:true)
  | "pc-sparse" ->
      fun ~seed ->
        Simwork.pc_rep ~seed ~points:2 ~horizon:250_000 ~workload:16_000
          ~races:(Option.value races ~default:false)
  | "service-bursty" -> fun ~seed -> Simwork.service_rep ~seed
  | w -> invalid_arg w

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

(* Every metric the benchmark prints, with its unit: end-to-end ones in
   the timed run, per-layer ones in the traced run.  BENCHMARK.json
   names the same sets; run.py --selftest holds the two together. *)
let end_to_end_units =
  [
    ("setup_s", "s"); ("sim_events_per_s", "events/s");
    ("minor_words_per_event", "words"); ("top_heap_mb", "MB");
    ("sim_ops_per_mcycle", "ops/Mcycle"); ("sim_latency_p50_cycles", "cycles");
    ("sim_latency_p99_cycles", "cycles");
  ]

let levels = List.init 5 Fun.id

let per_layer_units =
  List.map (fun n -> (n, "ns"))
    [
      "sim.heap.push_pop_ns.n256"; "sim.heap.push_pop_ns.n4096";
      "sim.effect.delay_ns"; "sim.mem.read_ns"; "sim.mem.rmw_hot_ns";
      "sim.mem.rmw_cold_ns";
    ]
  @ [
      ("sim.events", "count"); ("sim.reads", "count"); ("sim.writes", "count");
      ("sim.rmws", "count"); ("sim.queue_wait_cycles", "cycles");
      ("sim.events_per_op", "events/op"); ("gc.major_words", "words");
      ("gc.major_collections", "count"); ("gc.promoted_words_per_event", "words");
      ("trace.guard_off_ns", "ns"); ("trace.overhead_pct", "%");
      ("analysis.race.overhead_pct", "%"); ("analysis.race.reads_checked", "count");
      ("core.elim_rate", "fraction");
    ]
  @ List.map (fun d -> (Printf.sprintf "core.elim_rate.level%d" d, "fraction")) levels
  @ [
      ("core.diffract_rate", "fraction"); ("core.miss_rate", "fraction");
      ("core.leaf_fraction", "fraction"); ("core.cycles.spin_share", "fraction");
      ("core.cycles.queue_share", "fraction"); ("core.cycles.service_share", "fraction");
      ("core.cycles.work_share", "fraction");
    ]
  @ List.map (fun d -> (Printf.sprintf "core.depth%d.cycles" d, "cycles")) levels
  @ [
      ("core.leaf.cycles", "cycles"); ("core.balancer.traverse_ns", "ns");
      ("pools.leaf_queue_cycles", "cycles"); ("shard.steal_empty_homes", "count");
      ("shard.steal_probed", "count"); ("shard.steal_hits", "count");
      ("shard.steal_hit_ratio", "fraction"); ("shard.residue", "count");
      ("workloads.arrivals.gen_ns", "ns"); ("native.stack.push_pop_ns.d1", "ns");
      ("native.pool.enq_deq_ns.d1", "ns"); ("engine.native.cas_ns", "ns");
      ("host.calib_ns", "ns"); ("host.residual_pct", "%");
      ("error_rate", "fraction");
    ]

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  values : (string, float) Hashtbl.t;
  mutable notes : string list;  (* human-readable context lines *)
}

let result () =
  { attempted = 0; failed = 0; problems = []; values = Hashtbl.create 64; notes = [] }

let metric r name v = Hashtbl.replace r.values name v
let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

let problem r s =
  r.failed <- r.failed + 1;
  r.problems <- s :: r.problems

(* Prints [spec]'s metrics in order.  A per-layer metric a workload
   does not exercise reads 0; a missing end-to-end metric is a
   failure. *)
let print_result r ~spec ~required =
  let metrics =
    List.map
      (fun (n, u) ->
        match Hashtbl.find_opt r.values n with
        | Some v when Float.is_finite v -> (n, v, u)
        | Some _ ->
            problem r (n ^ " is not a finite number");
            (n, 0.0, u)
        | None ->
            if required then problem r (n ^ " was not measured");
            (n, 0.0, u))
      spec
  in
  List.iter print_endline (List.rev r.notes);
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %20.6f %s\n" n v u) metrics;
  List.iter (fun p -> Printf.printf "FAILED CHECK: %s\n" p) (List.rev r.problems);
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.problems = [] && r.failed = 0)
    (max 1 r.attempted) r.failed body

(* ------------------------------------------------------------------ *)
(* Repetition and determinism                                           *)
(* ------------------------------------------------------------------ *)

(* A warm-up rep, then [n] timed reps of [f]; at least two, so the
   determinism check always has a pair.  The warm-up absorbs heap
   growth and first-touch page faults; its outputs are checked like
   any other rep's, but it gives no host figure. *)
let repeat ~n ~warmup f =
  let w = warmup () in
  (w, List.init (max 2 n) (fun _ -> f ()))

(* The simulated figures of every workload at [reference_seed] are
   committed in [reference] ("workload figure value" lines).  The
   warm-up rep runs at that seed, so a change that moves a simulated
   figure -- a host-speed change must not -- fails every run.  On a
   mismatch the run prints the workload's lines to commit instead. *)
let reference_seed = 1
let reference = "perfbench/reference.txt"

let load_reference path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; k; v ] when w.[0] <> '#' -> Some ((w, k), float_of_string v)
           | _ -> None)

let check_reference r workload (x : Simwork.rep) =
  let table = load_reference reference in
  let moved =
    List.filter
      (fun (k, v) -> List.assoc_opt (workload, k) table <> Some v)
      x.Simwork.det
  in
  List.iter
    (fun (k, v) ->
      problem r
        (match List.assoc_opt (workload, k) table with
        | Some v' ->
            Printf.sprintf "%s at seed %d reads %.17g, %s holds %.17g" k
              reference_seed v reference v'
        | None -> Printf.sprintf "%s has no value in %s" k reference))
    moved;
  if moved <> [] then
    List.iter
      (fun (k, v) -> note r "reference-line: %s %s %.17g" workload k v)
      x.Simwork.det

(* The simulator is a deterministic function of the seed: every rep at
   one seed must reproduce the first rep's simulated figures exactly. *)
let check_determinism r (reps : Simwork.rep list) =
  match reps with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i (x : Simwork.rep) ->
          List.iter2
            (fun (k, a) (k', b) ->
              if k <> k' || a <> b then
                problem r
                  (Printf.sprintf "rep %d: %s = %.17g, rep 0 read %.17g" (i + 1)
                     k b a))
            first.Simwork.det x.Simwork.det)
        rest

let take_rep r (x : Simwork.rep) =
  r.attempted <- r.attempted + x.Simwork.attempted;
  r.failed <- r.failed + x.Simwork.failed;
  r.problems <- List.rev_append x.Simwork.problems r.problems

let det_value (x : Simwork.rep) k =
  match List.assoc_opt k x.Simwork.det with Some v -> v | None -> 0.0

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Host-time figures are scaled to the reference host speed by the
   calibration slices timed around each simulated run (see
   [Simwork.timed]).  On a shared host, interference slows the kernel
   and the simulator alike; around a run of a few tenths of a second
   the slices see the interference the run saw, so the scaled figure
   moves with the code rather than with the neighbours. *)
let events_per_s_at_reference (s : Simwork.span) =
  float_of_int s.Simwork.events
  /. Measure.at_reference_speed ~calib_ns:s.Simwork.calib_ns s.Simwork.wall_s

let calibrate r =
  let c = Layers.calib_ns () in
  metric r "host.calib_ns" c;
  note r "host.calib_ns %.4f ns per step of the fixed calibration kernel" c

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                        *)
(* ------------------------------------------------------------------ *)

let sim_end_to_end r workload ~seed ~seconds =
  let warm, timed =
    repeat
      ~n:(Float.to_int (Float.round (reps_per_second workload *. seconds)))
      ~warmup:(fun () -> sim_rep workload ~seed:reference_seed)
      (fun () -> sim_rep workload ~seed)
  in
  List.iter (take_rep r) (warm :: timed);
  check_reference r workload warm;
  check_determinism r timed;
  let first = List.hd timed in
  let reps = warm :: timed in
  let spans = List.concat_map (fun x -> x.Simwork.spans) timed in
  let f = float_of_int in
  note r "%s: warm-up at seed %d, %d timed reps of %d runs at seed %d; latency percentiles over %.0f ops"
    workload reference_seed (List.length timed)
    (List.length first.Simwork.spans) seed
    (det_value first "sim.latency_samples");
  note r
    "unscaled medians: %.0f events/s, setup %.6f s; calibration slices %.2f \
     ns/step (reference %.0f)"
    (Measure.median
       (List.map (fun (s : Simwork.span) -> f s.events /. s.wall_s) spans))
    (Measure.median (List.map (fun x -> x.Simwork.setup_s) reps))
    (Measure.median (List.map (fun (s : Simwork.span) -> s.calib_ns) spans))
    Measure.reference_calib_ns;
  metric r "setup_s" (Measure.median (List.map (fun x -> x.Simwork.setup_ref_s) reps));
  metric r "sim_events_per_s"
    (Measure.median (List.map events_per_s_at_reference spans));
  metric r "minor_words_per_event"
    (Measure.median (List.map (fun x -> x.Simwork.gc.minor /. f x.mem.Sim.events_fired) timed));
  metric r "top_heap_mb" (top_heap_mb ());
  List.iter
    (fun k -> metric r k (det_value first k))
    [ "sim_ops_per_mcycle"; "sim_latency_p50_cycles"; "sim_latency_p99_cycles" ]

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                         *)
(* ------------------------------------------------------------------ *)

let layer_probes r =
  let c = Layers.sim_costs () in
  List.iter
    (fun (k, v) -> metric r k v)
    [
      ("sim.heap.push_pop_ns.n256", c.Layers.heap_256);
      ("sim.heap.push_pop_ns.n4096", c.Layers.heap_4096);
      ("sim.effect.delay_ns", c.Layers.delay); ("sim.mem.read_ns", c.Layers.read);
      ("sim.mem.rmw_hot_ns", c.Layers.rmw_hot);
      ("sim.mem.rmw_cold_ns", c.Layers.rmw_cold);
      ("trace.guard_off_ns", Layers.guard_off_ns ());
      ("core.balancer.traverse_ns", Layers.traverse_ns ());
      ("workloads.arrivals.gen_ns", Layers.arrivals_gen_ns ());
      ("native.stack.push_pop_ns.d1", Layers.native_stack_ns ());
      ("native.pool.enq_deq_ns.d1", Layers.native_pool_ns ());
      ("engine.native.cas_ns", Layers.cas_ns ());
    ];
  c

let category_share (a : Etrace.Attribution.summary) cat =
  let c = List.assoc cat a.Etrace.Attribution.by_category in
  if a.Etrace.Attribution.total_cycles = 0 then 0.0
  else float_of_int c /. float_of_int a.Etrace.Attribution.total_cycles

(* Simulated cycles by tree depth.  Leaf pools sit in the attribution's
   outside-the-tree context, whose only other occupant here is think
   time ([Work]). *)
let attribution_metrics r (a : Etrace.Attribution.summary) =
  let module A = Etrace.Attribution in
  List.iter
    (fun (cat, name) -> metric r name (category_share a cat))
    A.
      [
        (Spin, "core.cycles.spin_share"); (Queue, "core.cycles.queue_share");
        (Service, "core.cycles.service_share"); (Work, "core.cycles.work_share");
      ];
  List.iter
    (fun (row : A.row) ->
      let c = float_of_int (A.row_total row) in
      if row.A.depth >= 0 then
        metric r (Printf.sprintf "core.depth%d.cycles" row.A.depth) c
      else begin
        let cat k = float_of_int row.A.cycles.(A.cat_index k) in
        metric r "core.leaf.cycles" (c -. cat A.Work);
        metric r "pools.leaf_queue_cycles" (cat A.Queue)
      end)
    a.A.by_layer

(* Overheads compare the median of [per_layer_reps] reps on each side,
   each rep's host time scaled to the reference host speed. *)
let per_layer_reps = 3

let scaled_wall_s (x : Simwork.rep) =
  List.fold_left
    (fun acc (s : Simwork.span) ->
      acc +. Measure.at_reference_speed ~calib_ns:s.calib_ns s.wall_s)
    0.0 x.Simwork.spans

let sim_per_layer r workload ~seed =
  let costs = layer_probes r in
  let reps f = List.init per_layer_reps (fun _ -> f ()) in
  let plains = reps (fun () -> sim_rep ~races:false workload ~seed) in
  let traced =
    reps (fun () ->
        Workloads.Traced.run ~procs:Simwork.procs (fun () ->
            sim_rep ~races:false workload ~seed))
  in
  let trs = List.map (fun t -> t.Workloads.Traced.value) traced in
  let attr = (List.hd traced).Workloads.Traced.attribution in
  List.iter (take_rep r) (plains @ trs);
  (* Tracing observes; it must not move a simulated figure. *)
  check_determinism r (plains @ trs);
  if not (Etrace.Attribution.check attr) then
    problem r
      (Printf.sprintf "attribution books do not balance: %d of %d cycles"
         attr.Etrace.Attribution.attributed_cycles
         attr.Etrace.Attribution.total_cycles);
  let plain = List.hd plains in
  let median_scaled xs = Measure.median (List.map scaled_wall_s xs) in
  let overhead xs = 100.0 *. ((median_scaled xs /. median_scaled plains) -. 1.0) in
  if workload = "pc-saturated" then begin
    let raced = reps (fun () -> sim_rep workload ~seed) in
    List.iter (take_rep r) raced;
    check_determinism r (plain :: raced);
    metric r "analysis.race.overhead_pct" (overhead raced);
    metric r "analysis.race.reads_checked"
      (float_of_int (List.hd raced).race_reads_checked)
  end;
  List.iter (fun (k, v) -> metric r k v) plain.det;
  metric r "gc.major_words" plain.gc.major;
  metric r "gc.major_collections" (float_of_int plain.gc.collections);
  metric r "gc.promoted_words_per_event"
    (plain.gc.promoted /. float_of_int plain.mem.Sim.events_fired);
  metric r "trace.overhead_pct" (overhead trs);
  attribution_metrics r attr;
  metric r "host.residual_pct"
    (Layers.residual costs ~mem:plain.mem
       ~wall_s:(Measure.median (List.map (fun (x : Simwork.rep) -> x.wall_s) plains)))

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
      workloads: " ^ String.concat " " workloads);
  exit 2

let () =
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" in
  let seconds = int "seconds" and trace = int "trace" in
  if (not (List.mem workload workloads)) || seconds < 1 || (trace <> 0 && trace <> 1)
  then usage ();
  let r = result () in
  (try
     calibrate r;
     if trace = 0 then sim_end_to_end r workload ~seed ~seconds:(float_of_int seconds)
     else sim_per_layer r workload ~seed
   with e -> problem r ("exception: " ^ Printexc.to_string e));
  let error_rate = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  metric r "error_rate" error_rate;
  note r "error_rate %.6g (%d failed of %d attempted)" error_rate r.failed r.attempted;
  if trace = 1 then print_result r ~spec:per_layer_units ~required:false
  else print_result r ~spec:end_to_end_units ~required:true
