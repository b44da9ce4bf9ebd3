(* Tests for etrees.trace: histogram arithmetic, the determinism
   contract (tracing never perturbs a simulation; tracing off is
   byte-identical), the Chrome/Perfetto exporter (golden fixture,
   validator), the cycle-attribution books balancing under random fault
   plans, and per-level Elim_stats.merge provenance. *)

module E = Sim.Engine
module W = Workloads
module T = Etrace
module FP = Faults.Fault_plan
module Tree = Core.Elim_tree.Make (E)
module Stats = Core.Elim_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let read_file path =
  (* dune runtest runs in test/; a direct `dune exec` runs from the
     project root. *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_basic () =
  let h = T.Histogram.create () in
  for v = 1 to 1000 do
    T.Histogram.add h v
  done;
  check_int "count" 1000 (T.Histogram.count h);
  check_int "total" 500_500 (T.Histogram.total h);
  (* Buckets keep two significant bits, so any percentile is within
     25% of the exact order statistic. *)
  let near name exact got =
    check_bool
      (Printf.sprintf "%s: %d within 25%% of %d" name got exact)
      true
      (abs (got - exact) * 4 <= exact)
  in
  near "p50" 500 (T.Histogram.percentile h 0.50);
  near "p90" 900 (T.Histogram.percentile h 0.90);
  near "p99" 990 (T.Histogram.percentile h 0.99);
  let s = T.Histogram.summary h in
  check_int "min is exact for small values" 1 s.T.Histogram.min;
  check_bool "max bracket" true (s.T.Histogram.max >= 1000)

let test_histogram_buckets () =
  (* index_of is monotone and every value lands inside its bucket's
     [lo, hi] bounds. *)
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let i = T.Histogram.index_of v in
      check_bool (Printf.sprintf "index monotone at %d" v) true (i >= !prev);
      prev := i;
      let lo, hi = T.Histogram.bounds i in
      check_bool
        (Printf.sprintf "%d inside bucket [%d,%d]" v lo hi)
        true
        (lo <= v && v <= hi))
    [ 0; 1; 2; 3; 4; 5; 7; 8; 13; 64; 100; 1_000; 65_537; 1_000_000 ]

let test_histogram_merge () =
  let a = T.Histogram.create () and b = T.Histogram.create () in
  for v = 1 to 50 do
    T.Histogram.add a v
  done;
  for v = 51 to 100 do
    T.Histogram.add b v
  done;
  let m = T.Histogram.merge a b in
  check_int "merged count" 100 (T.Histogram.count m);
  check_int "merged total" 5050 (T.Histogram.total m);
  check_bool "merged median is near the seam" true
    (let p = T.Histogram.percentile m 0.50 in
     abs (p - 50) * 4 <= 50)

(* ------------------------------------------------------------------ *)
(* Determinism: tracing never perturbs the simulation                  *)
(* ------------------------------------------------------------------ *)

let pc_line () =
  let p =
    W.Produce_consume.run ~seed:3 ~horizon:5_000 ~workload:50 ~procs:8
      (fun ~procs -> W.Methods.etree_pool ~procs ())
  in
  Printf.sprintf "%d ops %d/M %.3f cyc/op lat %s mem %s"
    p.W.Produce_consume.ops p.W.Produce_consume.throughput_per_m
    p.W.Produce_consume.latency
    (W.Report.latency_cell p.W.Produce_consume.lat)
    (W.Report.ops p.W.Produce_consume.mem)

(* The same run is byte-identical with tracing off (the default), with
   tracing off again (replay), and under a live consuming sink: the
   sinks observe the machine but never advance it. *)
let test_tracing_off_byte_identical () =
  check_bool "tracing starts off" false (T.installed ());
  let base = pc_line () in
  check_string "tracing-off replay" base (pc_line ());
  let seen = ref 0 in
  let traced = T.with_tracing (fun _ -> incr seen) pc_line in
  check_string "traced run is byte-identical" base traced;
  check_bool "the sink actually saw events" true (!seen > 1_000);
  check_bool "trace state restored" false (T.installed ());
  (* Attribution + Chrome sinks via the Traced wrapper, same contract. *)
  let tr = W.Traced.run ~chrome_level:T.Level.Full ~procs:8 pc_line in
  check_string "fully traced run is byte-identical" base tr.W.Traced.value

(* ------------------------------------------------------------------ *)
(* Chrome/Perfetto export                                              *)
(* ------------------------------------------------------------------ *)

(* A tiny deterministic scenario: 2 processors push one token each
   through a width-4 tree.  Its full-detail timeline is the golden
   fixture (regenerate by dumping [T.Chrome.contents c] after a
   deliberate change to the exporter or the instrumentation). *)
let shared_tree_trace () =
  let tree = ref None in
  W.Traced.run ~chrome_level:T.Level.Full ~procs:2 (fun () ->
      ignore
        (Sim.run ~seed:42 ~procs:2 (fun p ->
             (if p = 0 then
                tree :=
                  Some
                    (Tree.create ~capacity:2 (Core.Tree_config.etree 4)));
             E.delay (10 * (p + 1));
             let t : unit Tree.t =
               match !tree with Some t -> t | None -> assert false
             in
             match Tree.traverse t ~kind:Core.Location.Token ~value:None with
             | Tree.Leaf _ | Tree.Eliminated _ -> ())))

(* Location ids come from a process-global counter, so their absolute
   values depend on what allocated before this test: rewrite each
   distinct id to its first-appearance index before comparing. *)
let normalize_locs s =
  let buf = Buffer.create (String.length s) in
  let fresh = Hashtbl.create 16 in
  let n = String.length s in
  let key = {|"loc":|} in
  let rec copy i =
    if i < n then
      if i + 6 <= n && String.sub s i 6 = key then begin
        Buffer.add_string buf key;
        let j = ref (i + 6) in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        let id = String.sub s (i + 6) (!j - (i + 6)) in
        let canon =
          match Hashtbl.find_opt fresh id with
          | Some c -> c
          | None ->
              let c = string_of_int (Hashtbl.length fresh) in
              Hashtbl.add fresh id c;
              c
        in
        Buffer.add_string buf canon;
        copy !j
      end
      else begin
        Buffer.add_char buf s.[i];
        copy (i + 1)
      end
  in
  copy 0;
  Buffer.contents buf

let test_chrome_golden () =
  let tr = shared_tree_trace () in
  let c = match tr.W.Traced.chrome with Some c -> c | None -> assert false in
  let got = normalize_locs (T.Chrome.contents c) in
  match Sys.getenv_opt "ETREES_REGEN_FIXTURES" with
  | Some path ->
      (* Regeneration mode: ETREES_REGEN_FIXTURES names the destination
         (normally test/fixtures/trace_small.json); the comparison is
         skipped. *)
      let oc = open_out_bin path in
      output_string oc got;
      close_out oc
  | None ->
      let expected = read_file "fixtures/trace_small.json" in
      check_string "golden Chrome trace" expected got

let test_chrome_validates () =
  let tr = shared_tree_trace () in
  let c = match tr.W.Traced.chrome with Some c -> c | None -> assert false in
  (match T.Chrome.validate (T.Chrome.contents c) with
  | Ok st ->
      check_bool "some events" true (st.T.Chrome.events > 0);
      check_int "one track per processor (+ counters)" 2
        (min 2 st.T.Chrome.tracks)
  | Error e -> Alcotest.failf "valid trace rejected: %s" e);
  (* The validator rejects out-of-order timestamps within a track. *)
  let bad =
    {|{"traceEvents":[{"ph":"B","pid":0,"tid":1,"ts":5,"name":"a"},{"ph":"E","pid":0,"tid":1,"ts":3,"name":"a"}]}|}
  in
  (match T.Chrome.validate bad with
  | Ok _ -> Alcotest.fail "non-monotone track accepted"
  | Error _ -> ());
  match T.Chrome.validate "{not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let test_json_parser () =
  match T.Json.parse {| {"a": [1, 2.5, null, true, "x\n"], "b": {}} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
      let a =
        Option.get (Option.bind (T.Json.member "a" v) T.Json.to_list)
      in
      check_int "array length" 5 (List.length a);
      check_int "int element" 1 (Option.get (T.Json.to_int (List.nth a 0)));
      check_bool "parse error surfaces" true
        (match T.Json.parse "[1," with Error _ -> true | Ok _ -> false)

(* The codec's RFC 8259 edges: surrogate pairs combine, lone
   surrogates and non-RFC number forms are parse errors (never
   exceptions), and literals keep their integer/float split. *)
let test_json_rfc () =
  let module J = T.Json in
  let rejects input =
    check_bool (Printf.sprintf "%s is a parse error" input) true
      (match J.parse input with Error _ -> true | Ok _ -> false)
  in
  let parses input expected =
    check_string
      (Printf.sprintf "%s parses" input)
      (J.to_string expected)
      (match J.parse input with
      | Ok v -> J.to_string v
      | Error e -> Alcotest.failf "%s: %s" input e)
  in
  List.iter rejects
    [
      {|"\ud800"|}; {|"\udc00"|}; {|"\ud800x"|}; {|"\ud800\u0041"|};
      "+1"; ".5"; "1."; "01"; "-"; "1e"; "1e+"; "-01"; {|"\u12_3"|};
      {|"\u+123"|};
    ];
  parses {|"\ud83d\ude00"|} (J.Str "\xF0\x9F\x98\x80");
  parses {|"\u00e9\u0041"|} (J.Str "\xC3\xA9A");
  parses "[0, -0, 1, -12, 1.5, 1e3, 2E-2, 0.25e+1]"
    (J.Arr
       [
         J.Int 0; J.Float (-0.0); J.Int 1; J.Int (-12); J.Float 1.5;
         J.Float 1000.0; J.Float 0.02; J.Float 2.5;
       ]);
  check_bool "integer literals stay Int" true (J.parse "42" = Ok (J.Int 42));
  check_bool "fractions are Float" true (J.parse "42.0" = Ok (J.Float 42.0));
  check_bool "ints too large for OCaml fall back to Float" true
    (match J.parse "123456789012345678901234567890" with
    | Ok (J.Float _) -> true
    | _ -> false)

let json_gen =
  let open QCheck.Gen in
  let module J = T.Json in
  let str = string_size ~gen:char (0 -- 8) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun i -> J.Int i) int;
               map (fun f -> J.Float f) float;
               map (fun s -> J.Str s) str;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.Arr l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map (fun l -> J.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 4)))) );
             ])

(* Printing is a fixed point of parse: whatever the printer writes
   parses back to a value that prints identically. *)
let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"to_string (parse (to_string v)) = to_string v"
    (QCheck.make ~print:T.Json.to_string json_gen)
    (fun v ->
      let s = T.Json.to_string v in
      match T.Json.parse s with
      | Ok v' -> T.Json.to_string v' = s
      | Error e -> QCheck.Test.fail_reportf "%s does not parse: %s" s e)

(* ------------------------------------------------------------------ *)
(* Cycle attribution: the books balance                                *)
(* ------------------------------------------------------------------ *)

let test_attribution_exact () =
  let tr = W.Traced.run ~procs:8 pc_line in
  let s = tr.W.Traced.attribution in
  (* Crash-free runs balance exactly, not just within the 1% contract. *)
  check_int "attributed = total"
    s.T.Attribution.total_cycles s.T.Attribution.attributed_cycles;
  check_bool "check agrees" true (T.Attribution.check s);
  check_bool "cycles were observed" true (s.T.Attribution.total_cycles > 0);
  (* The scheduler's own queue-wait counter and the attribution's Queue
     category are two independent accountings of the same cycles. *)
  let tr2 =
    W.Traced.run ~procs:8 (fun () ->
        W.Produce_consume.run ~seed:3 ~horizon:5_000 ~workload:50 ~procs:8
          (fun ~procs -> W.Methods.etree_pool ~procs ()))
  in
  let queue_attr =
    List.assoc T.Attribution.Queue
      tr2.W.Traced.attribution.T.Attribution.by_category
  in
  check_int "queue category = scheduler queue_wait_cycles"
    tr2.W.Traced.value.W.Produce_consume.mem.Sim.queue_wait_cycles queue_attr

let plan_gen ~procs ~horizon =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* stalls = int_bound 4 in
    let* crash = int_bound 2 in
    let plans =
      [ FP.stalls ~seed ~procs ~horizon ~count:stalls ~cycles:(horizon / 10) ]
      @
      if crash > 0 then [ FP.crashes ~seed ~procs ~horizon ~count:crash ]
      else []
    in
    return (FP.union ~seed plans))

let prop_attribution_balances =
  let procs = 8 and horizon = 3_000 in
  QCheck.Test.make ~name:"attributed cycles = total (±1%) under faults"
    ~count:30
    (QCheck.make ~print:FP.describe (plan_gen ~procs ~horizon))
    (fun plan ->
      let tr =
        W.Traced.run ~procs (fun () ->
            W.Chaos.run ~seed:1 ~horizon ~grace:2_000 ~plan ~procs
              (Option.get (W.Methods.pool_method "etree")))
      in
      T.Attribution.check tr.W.Traced.attribution)

(* ------------------------------------------------------------------ *)
(* Elim_stats.merge provenance (per-layer views of live records)       *)
(* ------------------------------------------------------------------ *)

let drive ?(policy = `Static) procs =
  let tree = ref None in
  ignore
    (Sim.run ~seed:9 ~procs ~abort_after:100_000_000 (fun p ->
         (if p = 0 then
            tree :=
              Some
                (Tree.create ~capacity:procs
                   (Core.Tree_config.etree ~policy 8)));
         E.delay (E.random_int 60);
         let t : unit Tree.t = Option.get !tree in
         let kind : Core.Location.kind =
           if p land 1 = 0 then Token else Anti
         in
         ignore (Tree.traverse t ~kind ~value:None)));
  Option.get !tree

let test_merge_provenance () =
  List.iter
    (fun procs ->
      let tree = drive procs in
      let per_level = Tree.balancer_stats_by_level tree in
      let all = List.concat per_level in
      let whole = Stats.merge all in
      (* Duplicated inputs must not double-count: merge is keyed on the
         physical records, not their values. *)
      let doubled = Stats.merge (all @ all) in
      check_int
        (Printf.sprintf "%d procs: doubled entries" procs)
        (Stats.entries whole) (Stats.entries doubled);
      check_int
        (Printf.sprintf "%d procs: doubled eliminated" procs)
        whole.Stats.eliminated doubled.Stats.eliminated;
      (* Per-layer merges partition the whole-tree merge. *)
      let layer_sum =
        List.fold_left
          (fun acc level -> acc + Stats.entries (Stats.merge level))
          0 per_level
      in
      check_int
        (Printf.sprintf "%d procs: layers partition the tree" procs)
        (Stats.entries whole) layer_sum;
      (* stats_by_level is exactly the per-level merge. *)
      List.iter2
        (fun merged level ->
          check_int
            (Printf.sprintf "%d procs: stats_by_level agrees" procs)
            (Stats.entries (Stats.merge level))
            (Stats.entries merged))
        (Tree.stats_by_level tree) per_level;
      (* Every request entered the root level. *)
      check_int
        (Printf.sprintf "%d procs: root saw every request" procs)
        procs
        (Stats.entries (Stats.merge (List.hd per_level))))
    [ 2; 8; 32 ]

(* The windowed read path (Elim_stats.take_window, consumed by the
   adaptive controllers mid-run) is cursor-based over the same monotone
   counters merge reads — so concurrent traversals interleaved with
   window reads must never double-count: cumulative merges are
   identical before and after draining every pending window, windows
   are bounded by the cumulative counters, and a drained record yields
   an all-zero window. *)
let test_windowed_reads_no_double_count () =
  let policy =
    `Reactive { Adapt.default with Adapt.period = 4 }
  in
  List.iter
    (fun procs ->
      let tree = drive ~policy procs in
      let per_level = Tree.balancer_stats_by_level tree in
      let all = List.concat per_level in
      let before = Stats.merge all in
      check_int
        (Printf.sprintf "%d procs: root saw every request" procs)
        procs
        (Stats.entries (Stats.merge (List.hd per_level)));
      let windows = List.map Stats.take_window all in
      List.iter2
        (fun (s : Stats.t) (w : Stats.window) ->
          check_bool
            (Printf.sprintf "%d procs: window bounded by counters" procs)
            true
            (w.Stats.w_entries <= Stats.entries s
            && w.Stats.w_hits <= s.Stats.eliminated + s.Stats.diffracted
            && w.Stats.w_misses <= s.Stats.misses
            && w.Stats.w_toggled <= s.Stats.toggled))
        all windows;
      let after = Stats.merge all in
      check_int
        (Printf.sprintf "%d procs: merge entries unchanged by drain" procs)
        (Stats.entries before) (Stats.entries after);
      check_int
        (Printf.sprintf "%d procs: merge eliminated unchanged" procs)
        before.Stats.eliminated after.Stats.eliminated;
      check_int
        (Printf.sprintf "%d procs: merge misses unchanged" procs)
        before.Stats.misses after.Stats.misses;
      check_int
        (Printf.sprintf "%d procs: merge toggled unchanged" procs)
        before.Stats.toggled after.Stats.toggled;
      List.iter
        (fun s ->
          let w = Stats.take_window s in
          check_int
            (Printf.sprintf "%d procs: drained record reads zero" procs)
            0
            (w.Stats.w_entries + w.Stats.w_hits + w.Stats.w_misses
           + w.Stats.w_toggled))
        all)
    [ 2; 8; 32 ]

(* ------------------------------------------------------------------ *)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "trace"
    [
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_basic;
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tracing off is byte-identical" `Quick
            test_tracing_off_byte_identical;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "golden fixture" `Quick test_chrome_golden;
          Alcotest.test_case "validator" `Quick test_chrome_validates;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
      ( "json",
        [
          Alcotest.test_case "RFC 8259 numbers and surrogates" `Quick
            test_json_rfc;
          qcheck prop_json_roundtrip;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "books balance exactly" `Quick
            test_attribution_exact;
          qcheck prop_attribution_balances;
        ] );
      ( "elim_stats",
        [
          Alcotest.test_case "merge provenance at 2/8/32 procs" `Quick
            test_merge_provenance;
          Alcotest.test_case "windowed reads never double-count" `Quick
            test_windowed_reads_no_double_count;
        ] );
    ]
