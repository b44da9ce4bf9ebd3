(* lib/benchdb unit tests (docs/BENCHDB.md):

   - the JSONL database round-trips through append/load, and the
     reference-entry rule (newest reference=true, else oldest) holds;
   - the regression gate trips on a synthetic 10% events regression at
     the tight tolerance, passes an unmodified re-run, applies the
     loose tolerance and the direction rules to events/sec and
     allocation, and exits 3 with no baseline;
   - the trend page renders byte-identically to the committed golden
     fixture (set BENCHDB_GOLDEN_OUT=path to regenerate it).

   Synthetic meta blocks only — no simulator runs, so the suite stays
   in the sub-second tier. *)

module Db = Benchdb.Db
module Gate = Benchdb.Gate
module Page = Benchdb.Page
module J = Etrace.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* A schema-complete meta block with overridable interesting fields. *)
let meta ?(commit = "abc1234") ?(events = 1_000_000) ?(reads = 400_000)
    ?(writes = 200_000) ?(rmws = 100_000) ?(minor_words_per_event = 60.0)
    ?(events_per_sec = 2.5e6) () =
  J.Obj
    [
      ("experiment", J.Str "fig7");
      ("seed", J.Int 1);
      ("date", J.Str "2026-08-08");
      ("commit", J.Str commit);
      ("dirty", J.Bool false);
      ("toolchain", J.Str "ocaml-5.1.1/64-bit");
      ("events", J.Int events);
      ("reads", J.Int reads);
      ("writes", J.Int writes);
      ("rmws", J.Int rmws);
      ("cpu_s", J.Float 0.4);
      ("minor_words", J.Float 6.0e7);
      ("major_words", J.Float 5.0e6);
      ("major_collections", J.Int 4);
      ("events_per_sec", J.Float events_per_sec);
      ("minor_words_per_event", J.Float minor_words_per_event);
    ]

let run ?(reference = false) ?(points = 16) ?commit ?events ?events_per_sec
    ?minor_words_per_event () =
  {
    Db.exp = "fig7";
    reference;
    points;
    meta = meta ?commit ?events ?events_per_sec ?minor_words_per_event ();
  }

let temp_db () =
  let dir = Filename.temp_file "benchdb" "" in
  Sys.remove dir;
  dir

(* ------------------------------------------------------------------ *)
(* DB round trip                                                       *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let db_dir = temp_db () in
  check_bool "missing file loads as empty" true
    (Db.load ~db_dir "fig7" = Ok []);
  let r1 = run ~commit:"aaaaaaa" ~events:1_000_000 () in
  let r2 = run ~commit:"bbbbbbb" ~events:1_001_000 ~points:17 () in
  Db.append ~db_dir r1;
  Db.append ~db_dir r2;
  let rows =
    match Db.load ~db_dir "fig7" with
    | Ok rows -> rows
    | Error e -> Alcotest.failf "load: %s" e
  in
  check_int "two rows, oldest first" 2 (List.length rows);
  let first = List.nth rows 0 and second = List.nth rows 1 in
  check_string "row 0 commit" "aaaaaaa"
    (Option.get (Db.str_field first "commit"));
  check_int "row 1 points" 17 second.Db.points;
  check_bool "metric round-trips" true
    (Db.metric second "events" = Some 1_001_000.0);
  (* Reference rule: no flagged row -> the oldest seeds the baseline. *)
  check_string "default reference is the oldest row" "aaaaaaa"
    (Option.get (Db.str_field (Option.get (Db.reference rows)) "commit"));
  check_string "latest is the newest row" "bbbbbbb"
    (Option.get (Db.str_field (Option.get (Db.latest rows)) "commit"));
  (* A newer flagged row takes over as reference. *)
  Db.append ~db_dir (run ~commit:"ccccccc" ~reference:true ());
  let rows = Result.get_ok (Db.load ~db_dir "fig7") in
  check_string "flagged row wins the reference" "ccccccc"
    (Option.get (Db.str_field (Option.get (Db.reference rows)) "commit"));
  (* Malformed rows fail loudly with a location. *)
  let oc = open_out_gen [ Open_append ] 0o644 (Db.path ~db_dir "fig7") in
  output_string oc "{\"exp\": \"fig7\"}\n";
  close_out oc;
  (match Db.load ~db_dir "fig7" with
  | Error e ->
      check_bool "error names the offending line" true
        (String.contains e ':' && contains ~sub:"4" e)
  | Ok _ -> Alcotest.fail "malformed row accepted")

(* The codec is a fixed point on the committed history: every
   bench/db row re-prints byte-identically after a parse. *)
let test_committed_rows_reprint () =
  let dir = Filename.concat Filename.parent_dir_name "bench/db" in
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".jsonl")
      (Array.to_list (Sys.readdir dir))
  in
  check_bool "committed database found" true (files <> []);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      List.iteri
        (fun i line ->
          if line <> "" then
            match J.parse line with
            | Ok v ->
                check_string
                  (Printf.sprintf "%s:%d re-prints" path (i + 1))
                  line (J.to_string v)
            | Error e -> Alcotest.failf "%s:%d: %s" path (i + 1) e)
        (In_channel.with_open_bin path In_channel.input_lines))
    files

(* ------------------------------------------------------------------ *)
(* The regression gate                                                 *)
(* ------------------------------------------------------------------ *)

let regressed = function
  | Gate.Pass _ | Gate.No_baseline -> []
  | Gate.Regression deltas ->
      List.filter_map
        (fun (d : Gate.delta) ->
          if d.Gate.d_regressed then Some d.Gate.d_metric else None)
        deltas

let test_gate_verdicts () =
  let reference = Some (run ()) in
  (* Unmodified re-run: byte-identical metrics pass at exit 0. *)
  let v = Gate.check ~reference ~current:(run ()) () in
  check_bool "identical re-run passes" true
    (match v with Gate.Pass _ -> true | _ -> false);
  check_int "pass exits 0" 0 (Gate.exit_code v);
  (* A synthetic 10% events regression trips the 5% tight gate
     (the ISSUE acceptance scenario). *)
  let v10 = Gate.check ~reference ~current:(run ~events:900_000 ()) () in
  check_bool "10% fewer events regresses" true
    (regressed v10 = [ "events" ]);
  check_int "regression exits 1" 1 (Gate.exit_code v10);
  (* ...and a 10% rise regresses too: deterministic metrics gate in
     BOTH directions (drift = the replay is no longer the baseline's). *)
  check_bool "10% more events regresses too" true
    (regressed (Gate.check ~reference ~current:(run ~events:1_100_000 ()) ())
    = [ "events" ]);
  (* Inside the tight band nothing trips. *)
  check_bool "2% drift passes the 5% tight gate" true
    (match Gate.check ~reference ~current:(run ~events:1_020_000 ()) () with
    | Gate.Pass _ -> true
    | _ -> false);
  (* Allocation gates upward only: a drop is an improvement. *)
  check_bool "allocation drop passes" true
    (match
       Gate.check ~reference ~current:(run ~minor_words_per_event:50.0 ()) ()
     with
    | Gate.Pass _ -> true
    | _ -> false);
  check_bool "allocation rise regresses" true
    (regressed
       (Gate.check ~reference ~current:(run ~minor_words_per_event:70.0 ()) ())
    = [ "minor_words_per_event" ]);
  (* events/sec gates at the loose tolerance, downward only. *)
  check_bool "40% throughput drop passes the 50% loose gate" true
    (match
       Gate.check ~reference ~current:(run ~events_per_sec:1.5e6 ()) ()
     with
    | Gate.Pass _ -> true
    | _ -> false);
  check_bool "60% throughput drop regresses" true
    (regressed
       (Gate.check ~reference ~current:(run ~events_per_sec:1.0e6 ()) ())
    = [ "events_per_sec" ]);
  check_bool "a throughput RISE never regresses" true
    (match
       Gate.check ~reference ~current:(run ~events_per_sec:9.9e6 ()) ()
     with
    | Gate.Pass _ -> true
    | _ -> false);
  (* Tolerances are parameters: the same 10% delta passes at 15%. *)
  check_bool "10% delta passes a 15% tight gate" true
    (match
       Gate.check ~tight_pct:15.0 ~reference
         ~current:(run ~events:900_000 ())
         ()
     with
    | Gate.Pass _ -> true
    | _ -> false)

let test_gate_no_baseline () =
  let v = Gate.check ~reference:None ~current:(run ()) () in
  check_bool "no reference -> No_baseline" true (v = Gate.No_baseline);
  check_int "no baseline exits 3" 3 (Gate.exit_code v);
  (* Worst-verdict precedence across experiments: 1 > 3 > 0. *)
  let pass = Gate.check ~reference:(Some (run ())) ~current:(run ()) () in
  let fail =
    Gate.check ~reference:(Some (run ())) ~current:(run ~events:1 ()) ()
  in
  check_int "all pass -> 0" 0 (Gate.combined_exit_code [ pass; pass ]);
  check_int "pass + no-baseline -> 3" 3
    (Gate.combined_exit_code [ pass; Gate.No_baseline ]);
  check_int "regression dominates no-baseline" 1
    (Gate.combined_exit_code [ Gate.No_baseline; fail; pass ])

(* ------------------------------------------------------------------ *)
(* The trend page                                                      *)
(* ------------------------------------------------------------------ *)

let golden_runs =
  [
    ( "fig7",
      [
        run ~commit:"aaaaaaa" ~events:1_000_000 ~reference:true ();
        run ~commit:"bbbbbbb" ~events:1_010_000 ~events_per_sec:2.6e6 ();
        run ~commit:"ccccccc" ~events:1_005_000 ~minor_words_per_event:59.0 ();
      ] );
    ("empty_exp", []);
  ]

let test_page_golden () =
  (* No ?generated stamp: the render is a pure function of the rows,
     so the fixture pins it byte for byte. *)
  let html = Page.render golden_runs in
  (match Sys.getenv_opt "BENCHDB_GOLDEN_OUT" with
  | Some path ->
      let oc = open_out path in
      output_string oc html;
      close_out oc
  | None -> ());
  let golden = In_channel.with_open_bin "fixtures/trends_golden.html"
      In_channel.input_all in
  check_string "trend page matches the committed golden fixture" golden html

let test_page_shape () =
  let html = Page.render ~generated:"2026-08-08 @ abc1234" golden_runs in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "page contains %S" needle) true
        (contains ~sub:needle html))
    [
      "<svg";
      "polyline";
      "fig7";
      "Generated 2026-08-08 @ abc1234";
      (* the delta table compares latest vs reference *)
      "vs reference";
      (* single-series sparklines carry no legend, values live in the
         adjacent table (dataviz: identity never by color alone) *)
      "<table";
    ];
  check_bool "no external assets" true (not (contains ~sub:"http" html))

let () =
  Alcotest.run "benchdb"
    [
      ( "db",
        [
          Alcotest.test_case "JSONL append/load round trip" `Quick
            test_roundtrip;
          Alcotest.test_case "committed rows re-print byte-identically"
            `Quick test_committed_rows_reprint;
        ] );
      ( "gate",
        [
          Alcotest.test_case "verdicts on synthetic regressions" `Quick
            test_gate_verdicts;
          Alcotest.test_case "no baseline exits 3" `Quick
            test_gate_no_baseline;
        ] );
      ( "page",
        [
          Alcotest.test_case "golden fixture" `Quick test_page_golden;
          Alcotest.test_case "structural shape" `Quick test_page_shape;
        ] );
    ]
