(* The experiment registry and its runner (`etrees_run bench`):

   - golden diff: the registry's fig7 (traced), chaos, service and
     adapt entries at --quick --horizon 5000 reproduce the committed
     stdout and BENCH_<exp>.json reports byte for byte (reports minus
     their host-dependent meta block, stored as <exp>.json);
   - the runner rejects an unknown experiment name with exit 2 and
     lists the valid ones.

   The fixtures in fixtures/bench_golden/ were written by the former
   standalone bench driver with
   `--quick --horizon 5000 --json --trace fig7 chaos adapt service`. *)

module X = Workloads.Experiment
module J = Etrace.Json

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let golden = Filename.concat "fixtures" "bench_golden"
let read file = In_channel.with_open_bin file In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_golden () =
  let scale = { X.quick_scale with X.horizon = 5_000; traced = true } in
  let picked = [ "fig7"; "chaos"; "service"; "adapt" ] in
  let outcomes =
    List.filter_map
      (fun (e : X.t) ->
        if List.mem e.X.name picked then Some (e.X.name, e.X.run scale)
        else None)
      X.all
  in
  check_int "every picked entry is registered" (List.length picked)
    (List.length outcomes);
  check_string "stdout matches the golden tables"
    (read (Filename.concat golden "stdout.txt"))
    (String.concat "" (List.map (fun (_, o) -> o.X.text) outcomes));
  List.iter
    (fun (name, (o : X.outcome)) ->
      let report =
        J.Obj
          ([
             ("experiment", J.Str name);
             ("points", J.Arr (Option.get o.X.points));
           ]
          @ o.X.extra)
      in
      check_string
        (Printf.sprintf "BENCH_%s.json matches the golden report" name)
        (read (Filename.concat golden (name ^ ".json")))
        (J.to_string report ^ "\n");
      check_bool (name ^ " has no verdict failures") true (o.X.failures = []))
    outcomes

let test_unknown_experiment () =
  let err = Filename.temp_file "bench_err" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/etrees_run.exe bench --quick fig77 2> %s"
         (Filename.quote err))
  in
  let msg = read err in
  Sys.remove err;
  check_int "unknown experiment exits 2" 2 code;
  List.iter
    (fun name ->
      check_bool
        (Printf.sprintf "error lists %s" name)
        true
        (contains ~sub:name msg))
    ("fig77" :: "all" :: "native" :: List.map (fun (e : X.t) -> e.X.name) X.all)

let () =
  Alcotest.run "experiment"
    [
      ( "registry",
        [
          Alcotest.test_case "golden fig7/chaos/service/adapt" `Slow
            test_golden;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unknown experiment exits 2" `Quick
            test_unknown_experiment;
        ] );
    ]
