(* The append-only benchmark DB: one JSONL file per experiment under
   bench/db/, one line per run, newest last (nim-lang/ci_bench's
   minimize.csv shape, with the meta block as the row).  Lines carry
   only the run's provenance + cost "meta" block and the point count —
   never the points themselves — so a year of history stays a few
   kilobytes and diffs stay reviewable. *)

module J = Etrace.Json

type run = {
  exp : string;
  reference : bool;  (** the gate compares against the newest reference *)
  points : int;      (** length of the source report's "points" array *)
  meta : J.value;    (** the "meta" object, schema-checked on entry *)
}

(* ------------------------------------------------------------------ *)
(* The meta schema (Report.Meta's json, re-checked on the read side)   *)
(* ------------------------------------------------------------------ *)

let str_keys = [ "experiment"; "date"; "commit"; "toolchain" ]

let int_keys =
  [ "seed"; "events"; "reads"; "writes"; "rmws"; "major_collections" ]

let num_keys =
  [
    "cpu_s";
    "minor_words";
    "major_words";
    "events_per_sec";
    "minor_words_per_event";
  ]

let validate_meta meta =
  let missing what key = Error (Printf.sprintf "meta.%s: not a %s" key what) in
  let rec check = function
    | [] -> Ok ()
    | (what, to_x, key) :: rest -> (
        match Option.bind (J.member key meta) to_x with
        | None -> missing what key
        | Some _ -> check rest)
  in
  match meta with
  | J.Obj _ ->
      check
        (List.map (fun k -> ("string", J.to_str, k)) str_keys
        @ List.map
            (fun k -> ("int", (fun v -> Option.map string_of_int (J.to_int v)), k))
            int_keys
        @ List.map
            (fun k -> ("number", (fun v -> Option.map string_of_float (J.to_num v)), k))
            num_keys
        @ [ ("bool", (fun v -> Option.map string_of_bool (J.to_bool v)), "dirty") ])
  | _ -> Error "meta: not an object"

(* A freshly written BENCH_<exp>.json -> one DB row. *)
let of_bench_json ~exp v =
  match
    ( Option.bind (J.member "experiment" v) J.to_str,
      Option.bind (J.member "points" v) J.to_list,
      J.member "meta" v )
  with
  | Some e, _, _ when e <> exp ->
      Error (Printf.sprintf "experiment is %S, expected %S" e exp)
  | _, _, None -> Error "no meta block (bench too old? re-run with --json)"
  | Some _, Some points, Some meta -> (
      match validate_meta meta with
      | Error e -> Error e
      | Ok () ->
          Ok { exp; reference = false; points = List.length points; meta })
  | None, _, _ -> Error "no experiment tag"
  | _, None, _ -> Error "no points array"

let run_to_line r =
  J.to_string
    (J.Obj
       [
         ("exp", J.Str r.exp);
         ("reference", J.Bool r.reference);
         ("points", J.Int r.points);
         ("meta", r.meta);
       ])

let run_of_line ~exp line =
  match J.parse line with
  | Error e -> Error e
  | Ok v -> (
      match
        ( Option.bind (J.member "exp" v) J.to_str,
          Option.bind (J.member "reference" v) J.to_bool,
          Option.bind (J.member "points" v) J.to_int,
          J.member "meta" v )
      with
      | Some e, Some reference, Some points, Some meta when e = exp -> (
          match validate_meta meta with
          | Error e -> Error e
          | Ok () -> Ok { exp; reference; points; meta })
      | Some e, _, _, _ when e <> exp ->
          Error (Printf.sprintf "row tagged %S in the %S database" e exp)
      | _ -> Error "malformed database row")

(* ------------------------------------------------------------------ *)
(* The files                                                           *)
(* ------------------------------------------------------------------ *)

let path ~db_dir exp = Filename.concat db_dir (exp ^ ".jsonl")

let append ~db_dir r =
  if not (Sys.file_exists db_dir) then Sys.mkdir db_dir 0o755;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_text ] 0o644
      (path ~db_dir r.exp)
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (run_to_line r);
      output_char oc '\n')

let load ~db_dir exp =
  let file = path ~db_dir exp in
  if not (Sys.file_exists file) then Ok []
  else
    let lines = In_channel.with_open_text file In_channel.input_lines in
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | "" :: rest -> go (i + 1) acc rest
      | line :: rest -> (
          match run_of_line ~exp line with
          | Ok r -> go (i + 1) (r :: acc) rest
          | Error e -> Error (Printf.sprintf "%s:%d: %s" file i e))
    in
    go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let latest runs = match List.rev runs with [] -> None | r :: _ -> Some r

(* The gate's comparison target: the newest run marked [reference], or
   the oldest run when none is (the first append seeds the baseline). *)
let reference runs =
  match List.rev (List.filter (fun r -> r.reference) runs) with
  | r :: _ -> Some r
  | [] -> ( match runs with r :: _ -> Some r | [] -> None)

(* Metric lookup: the meta block's numeric fields, plus the row-level
   point count under the pseudo-metric "points". *)
let metric r name =
  if name = "points" then Some (float_of_int r.points)
  else Option.bind (J.member name r.meta) J.to_num

let series ~metric:name runs = List.map (fun r -> metric r name) runs

let str_field r name = Option.bind (J.member name r.meta) J.to_str

let label r =
  let date = Option.value ~default:"?" (str_field r "date") in
  let commit = Option.value ~default:"?" (str_field r "commit") in
  let dirty =
    match Option.bind (J.member "dirty" r.meta) J.to_bool with
    | Some true -> "+"
    | _ -> ""
  in
  Printf.sprintf "%s %s%s" date commit dirty
