(* The simulated workloads: one repetition ("rep") of produce-consume
   on the elimination tree, or of the sharded service frontend, with
   its set-up timed apart from the simulated run and its outputs
   checked against the benchmark's own ledger.

   Every figure a rep returns in [det] is a pure function of the seed:
   the caller holds repeated reps at one seed to byte-equality. *)

module W = Workloads
module Stats = Core.Elim_stats
module Samples = Measure.Samples

let procs = 256

type gc = { minor : float; promoted : float; major : float; collections : int }

let sum_gc =
  List.fold_left
    (fun a b ->
      {
        minor = a.minor +. b.minor;
        promoted = a.promoted +. b.promoted;
        major = a.major +. b.major;
        collections = a.collections + b.collections;
      })
    { minor = 0.0; promoted = 0.0; major = 0.0; collections = 0 }

(* One timed simulated run: its host time, the events it fired, and the
   host's speed around it (see [timed]). *)
type span = {
  wall_s : float;
  events : int;
  calib_ns : float;
      (** {!Measure.calib_slice_ns}: mean of the slices just before and
          just after the run *)
}

type rep = {
  setup_s : float;  (** host seconds spent before the timed sections *)
  setup_ref_s : float;  (** the same, at the reference host speed *)
  spans : span list;  (** one per simulated run of the rep *)
  wall_s : float;   (** host seconds of the timed sections *)
  gc : gc;          (** allocation in the timed sections *)
  mem : Sim.stats;
  det : (string * float) list;
      (** simulated results, per-layer counts and rates: seed-determined *)
  attempted : int;
  failed : int;
  problems : string list;  (** one line per failed check *)
  race_reads_checked : int;
}

(* Wall time, GC counters and host speed around [f], after a full major
   collection so each run starts from the same collected heap.  A short
   slice of the calibration kernel runs just before and just after, so
   the host's speed is sampled within milliseconds of the run it
   scales.  [Gc.quick_stat] counts the minor heap only as of the last
   minor collection, so one is forced, untimed, before each reading:
   the counters then hold exactly the run's allocation and none of the
   kernel's. *)
let timed f =
  Gc.full_major ();
  let c0 = Measure.calib_slice_ns () in
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let t0 = Measure.now_ns () in
  let v = f () in
  let wall_s = Measure.seconds_since t0 in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let c1 = Measure.calib_slice_ns () in
  ( v,
    wall_s,
    (c0 +. c1) /. 2.0,
    {
      minor = g1.minor_words -. g0.minor_words;
      promoted = g1.promoted_words -. g0.promoted_words;
      major = g1.major_words -. g0.major_words;
      collections = g1.major_collections - g0.major_collections;
    } )

(* Each workload's rep runs [points] simulated runs, each at its own
   seed derived from the rep's, timed one by one.  Pooling the points
   steadies the simulated figures from seed to seed; timing them apart
   keeps each timed run short, so the host speed sampled around it is
   the speed it ran at. *)
let point_seeds ~points seed = List.init points (fun k -> (seed * points) + k)

let sum_stats (a : Sim.stats) (b : Sim.stats) =
  {
    Sim.end_clock = a.Sim.end_clock + b.Sim.end_clock;
    events_fired = a.events_fired + b.events_fired;
    aborted_procs = a.aborted_procs + b.aborted_procs;
    crashed_procs = a.crashed_procs + b.crashed_procs;
    fault_defers = a.fault_defers + b.fault_defers;
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    rmws = a.rmws + b.rmws;
    queue_wait_cycles = a.queue_wait_cycles + b.queue_wait_cycles;
  }

let sum_of f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let fsum_of f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let mean_of f xs = float_of_int (sum_of f xs) /. float_of_int (List.length xs)

let sum_mem f = function
  | [] -> invalid_arg "sum_mem"
  | x :: rest -> List.fold_left (fun acc y -> sum_stats acc (f y)) (f x) rest

let mem_det (m : Sim.stats) =
  [
    ("sim.events", float_of_int m.Sim.events_fired);
    ("sim.reads", float_of_int m.Sim.reads);
    ("sim.writes", float_of_int m.Sim.writes);
    ("sim.rmws", float_of_int m.Sim.rmws);
    ("sim.queue_wait_cycles", float_of_int m.Sim.queue_wait_cycles);
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Produce-consume (Figures 7 and 8) on Etree-32                        *)
(* ------------------------------------------------------------------ *)

(* Produce_consume numbers its elements [pid * 1_000_000 + i]. *)
let value_base = 1_000_000

type ledger = {
  started : int array;    (* per pid: enqueue calls issued *)
  completed : int array;  (* per pid: enqueue calls returned *)
  dequeued : Samples.t;   (* every value a dequeue returned *)
}

(* The Etree-32 pool of Figures 7/8, wrapped so every operation lands
   in the ledger.  The wrapper writes host arrays only; it changes no
   simulated result. *)
let ledgered_pool () =
  let pool = W.Methods.etree_pool ~procs () in
  let l =
    {
      started = Array.make procs 0;
      completed = Array.make procs 0;
      dequeued = Samples.create (1 lsl 17);
    }
  in
  let wrapped =
    W.Pool_obj.pool ~name:pool.W.Pool_obj.name
      ?stats_by_level:pool.W.Pool_obj.stats_by_level
      ?residue:pool.W.Pool_obj.residue
      ~enqueue:(fun v ->
        let p = v / value_base in
        l.started.(p) <- l.started.(p) + 1;
        pool.W.Pool_obj.enqueue v;
        l.completed.(p) <- l.completed.(p) + 1)
      ~dequeue:(fun ~stop ->
        let r = pool.W.Pool_obj.dequeue ~stop in
        (match r with Some v -> Samples.push l.dequeued v | None -> ());
        r)
      ()
  in
  (wrapped, l)

(* Per-level elimination figures of the tree (Table 1 style). *)
let core_det levels =
  let all = Stats.merge levels in
  let entries = Stats.entries all in
  let collisions = (all.Stats.eliminated + all.Stats.diffracted) / 2 in
  let leaf_fraction =
    match (levels, List.rev levels) with
    | first :: _, last :: _ ->
        ratio (Stats.entries last - last.Stats.eliminated) (Stats.entries first)
    | _ -> 0.0
  in
  [
    ("core.elim_rate", Stats.elimination_fraction all);
    ("core.diffract_rate", ratio all.Stats.diffracted entries);
    ("core.miss_rate", ratio all.Stats.misses (all.Stats.misses + collisions));
    ("core.leaf_fraction", leaf_fraction);
  ]
  @ List.mapi
      (fun d s ->
        (Printf.sprintf "core.elim_rate.level%d" d, Stats.elimination_fraction s))
      levels

(* One produce-consume run and its checks. *)
type pc_point = {
  pc_setup_s : float;
  span : span;
  pc_gc : gc;
  pc_mem : Sim.stats;
  ops : int;
  lat : Etrace.Histogram.summary;
  levels : Stats.t list;
  pc_attempted : int;
  pc_failed : int;
  pc_problems : string list;
  reads_checked : int;
}

let pc_point ~seed ~horizon ~workload ~races =
  Gc.full_major ();
  let t0 = Measure.now_ns () in
  let pool, l = ledgered_pool () in
  let setup_s = Measure.seconds_since t0 in
  let run () =
    W.Produce_consume.run ~seed ~horizon ~workload ~procs (fun ~procs:_ -> pool)
  in
  let (point, race), wall_s, calib_ns, gc =
    timed (fun () ->
        if races then
          let p, r = Analysis.Race_detector.run run in
          (p, Some r)
        else (run (), None))
  in
  (* Conservation: the ledger plus the pool's quiescent residue. *)
  let residue =
    let r = ref 0 in
    let probe = Option.get pool.W.Pool_obj.residue in
    ignore (Sim.run ~seed ~procs:1 (fun _ -> r := probe ()));
    !r
  in
  let sum = Array.fold_left ( + ) 0 in
  let deq_list = ref [] in
  Samples.iter (fun v -> deq_list := v :: !deq_list) l.dequeued;
  let duplicates, phantoms =
    Analysis.Conservation.check_values
      ~enq_started:(fun v ->
        let p = v / value_base in
        p >= 0 && p < procs && v mod value_base < l.started.(p))
      !deq_list
  in
  let audit =
    Analysis.Conservation.audit
      {
        Analysis.Conservation.enq_started = sum l.started;
        enq_completed = sum l.completed;
        dequeued = Samples.length l.dequeued;
        duplicates;
        phantoms;
        residue = Some residue;
        in_flight = 0;
      }
  in
  let races_found =
    match race with
    | Some r -> List.length r.Analysis.Race_detector.races
    | None -> 0
  in
  let problems =
    List.concat
      [
        (if audit.Analysis.Conservation.ok then []
         else [ "conservation: " ^ audit.Analysis.Conservation.detail ]);
        (if races_found = 0 then []
         else [ Printf.sprintf "race detector: %d races" races_found ]);
      ]
  in
  let lost =
    match audit.Analysis.Conservation.lost with Some n -> abs n | None -> 0
  in
  let mem = point.W.Produce_consume.mem in
  {
    pc_setup_s = setup_s;
    span = { wall_s; events = mem.Sim.events_fired; calib_ns };
    pc_gc = gc;
    pc_mem = mem;
    ops = point.W.Produce_consume.ops;
    lat = point.W.Produce_consume.lat;
    levels =
      (match pool.W.Pool_obj.stats_by_level with Some f -> f () | None -> []);
    pc_attempted = sum l.started + Samples.length l.dequeued;
    pc_failed =
      (if problems = [] then 0
       else max 1 (lost + duplicates + phantoms + races_found));
    pc_problems = problems;
    reads_checked =
      (match race with
      | Some r -> r.Analysis.Race_detector.reads_checked
      | None -> 0);
  }

(* A produce-consume rep: [points] runs of [horizon] cycles each.
   Latency percentiles are the mean of the runs' percentiles, as the
   service frontend's are. *)
let pc_rep ~seed ~points ~horizon ~workload ~races =
  let ps =
    List.map
      (fun seed -> pc_point ~seed ~horizon ~workload ~races)
      (point_seeds ~points seed)
  in
  let mem = sum_mem (fun p -> p.pc_mem) ps in
  let ops = sum_of (fun p -> p.ops) ps in
  let levels =
    List.mapi
      (fun d _ -> Stats.merge (List.map (fun p -> List.nth p.levels d) ps))
      (List.hd ps).levels
  in
  let spans = List.map (fun p -> p.span) ps in
  {
    setup_s = fsum_of (fun p -> p.pc_setup_s) ps;
    setup_ref_s =
      fsum_of
        (fun p -> Measure.at_reference_speed ~calib_ns:p.span.calib_ns p.pc_setup_s)
        ps;
    spans;
    wall_s = fsum_of (fun (s : span) -> s.wall_s) spans;
    gc = sum_gc (List.map (fun p -> p.pc_gc) ps);
    mem;
    det =
      [
        ( "sim_ops_per_mcycle",
          float_of_int ops *. 1e6 /. float_of_int (points * horizon) );
        ("sim_latency_p50_cycles", mean_of (fun p -> p.lat.Etrace.Histogram.p50) ps);
        ("sim_latency_p99_cycles", mean_of (fun p -> p.lat.Etrace.Histogram.p99) ps);
        ( "sim.latency_samples",
          float_of_int (sum_of (fun p -> p.lat.Etrace.Histogram.count) ps) );
        ("sim.events_per_op", ratio mem.Sim.events_fired ops);
      ]
      @ mem_det mem @ core_det levels;
    attempted = sum_of (fun p -> p.pc_attempted) ps;
    failed = sum_of (fun p -> p.pc_failed) ps;
    problems = List.concat_map (fun p -> p.pc_problems) ps;
    race_reads_checked = sum_of (fun p -> p.reads_checked) ps;
  }

(* ------------------------------------------------------------------ *)
(* The sharded service frontend                                         *)
(* ------------------------------------------------------------------ *)

let service_regime () =
  List.find
    (fun r -> W.Arrivals.name r = "bursty")
    (W.Service.default_regimes ~mean_gap:800)

(* Each worker's open-loop arrival schedule, drawn as the service
   workload draws it (stream = worker pid, gaps anchored at the
   scheduled times), and thrown away.  [Service.run] has no set-up
   phase of its own: it builds its frontend and draws each worker's
   arrivals lazily inside the simulated run.  So this copy is what a
   service rep's set-up times, and the run itself draws the same
   arrivals again inside the timed section. *)
let arrival_schedule ~seed ~sessions regime =
  let per_worker = max 1 (sessions / procs) in
  for pid = 0 to procs - 1 do
    let gen = W.Arrivals.create ~seed ~stream:pid regime in
    let next = ref 0 in
    for _ = 1 to 2 * per_worker do
      next := !next + W.Arrivals.next_gap gen ~now:!next
    done
  done

(* One service rep runs the frontend's standard point (10k sessions,
   Service's default) at [service_points] seeds derived from the rep's.
   A single open-loop run's completions per cycle and its bucketed
   sojourn percentiles swing with the tail of its arrival schedule
   (about 10% from seed to seed); pooling the points steadies them. *)
let sessions = 10_000
let service_points = 8

(* The checks of one point: its failed-op count and problem lines. *)
let service_checks (p : W.Service.point) =
  let module S = W.Service in
  let bad_shards =
    List.length
      (List.filter (fun r -> not r.Analysis.Conservation.ok) p.S.conservation_by_shard)
  in
  let lost =
    match p.S.conservation.Analysis.Conservation.lost with
    | Some n -> abs n
    | None -> 0
  in
  let problems =
    List.concat
      [
        (if p.S.starved = 0 then []
         else [ Printf.sprintf "%d starved requests" p.S.starved ]);
        (if p.S.conservation.Analysis.Conservation.ok then []
         else [ "conservation: " ^ p.S.conservation.Analysis.Conservation.detail ]);
        (if bad_shards = 0 then []
         else [ Printf.sprintf "%d shards fail their conservation audit" bad_shards ]);
        (if p.S.completed + p.S.starved = p.S.requests then []
         else
           [
             Printf.sprintf "%d completed + %d starved <> %d requests"
               p.S.completed p.S.starved p.S.requests;
           ]);
      ]
  in
  ((if problems = [] then 0 else max 1 (p.S.starved + lost + bad_shards)), problems)

let service_rep ~seed =
  let regime = service_regime () in
  let runs =
    List.map
      (fun seed ->
        Gc.full_major ();
        let t0 = Measure.now_ns () in
        arrival_schedule ~seed ~sessions regime;
        let setup_s = Measure.seconds_since t0 in
        let p, wall_s, calib_ns, gc =
          timed (fun () ->
              W.Service.run ~seed ~procs ~width:4 ~shards:8 ~sessions ~regime ())
        in
        (setup_s, { wall_s; events = p.W.Service.mem.Sim.events_fired; calib_ns }, gc, p))
      (point_seeds ~points:service_points seed)
  in
  let ps = List.map (fun (_, _, _, p) -> p) runs in
  let spans = List.map (fun (_, s, _, _) -> s) runs in
  let module S = W.Service in
  let checks = List.map service_checks ps in
  let total f = sum_of f ps and mean f = mean_of f ps in
  let mem = sum_mem (fun p -> p.S.mem) ps in
  let completed = total (fun p -> p.S.completed) in
  let probed = total (fun p -> p.S.steal_probed) and hits = total (fun p -> p.S.steal_hits) in
  {
    setup_s = fsum_of (fun (t, _, _, _) -> t) runs;
    setup_ref_s =
      fsum_of
        (fun (t, (s : span), _, _) -> Measure.at_reference_speed ~calib_ns:s.calib_ns t)
        runs;
    spans;
    wall_s = fsum_of (fun (s : span) -> s.wall_s) spans;
    gc = sum_gc (List.map (fun (_, _, g, _) -> g) runs);
    mem;
    det =
      [
        ( "sim_ops_per_mcycle",
          float_of_int completed *. 1e6 /. float_of_int mem.Sim.end_clock );
        ("sim_latency_p50_cycles", mean (fun p -> p.S.sojourn.Etrace.Histogram.p50));
        ("sim_latency_p99_cycles", mean (fun p -> p.S.sojourn.Etrace.Histogram.p99));
        ("sim.latency_samples", float_of_int (total (fun p -> p.S.sojourn.Etrace.Histogram.count)));
        ("sim.events_per_op", ratio mem.Sim.events_fired completed);
        ("shard.steal_empty_homes", float_of_int (total (fun p -> p.S.steal_empty_homes)));
        ("shard.steal_probed", float_of_int probed);
        ("shard.steal_hits", float_of_int hits);
        ("shard.steal_hit_ratio", ratio hits probed);
        ("shard.residue", float_of_int (total (fun p -> p.S.residue)));
      ]
      @ mem_det mem;
    attempted = total (fun p -> p.S.requests);
    failed = List.fold_left (fun acc (f, _) -> acc + f) 0 checks;
    problems = List.concat_map snd checks;
    race_reads_checked = 0;
  }
