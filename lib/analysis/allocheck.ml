(* Hot-path allocation certifier (etrees.allocheck, docs/ANALYSIS.md).

   Where lint_rules.ml works on parsetrees (fast, no build context),
   this pass needs types and resolved paths, so it reads the typedtrees
   dune already produces as [.cmt] files ([-bin-annot] is on by
   default) via compiler-libs' [Cmt_format] and walks them with
   {!Tast_iterator}.

   The pass has three layers:

   1. {e Census}: every top-level binding of every scanned module
      becomes a node "Module.name"; inside each binding body the walk
      classifies allocation sites (closures, partial application,
      tuples, payload constructors, records, arrays, boxed floats,
      string builders, list allocators, lazy, ...) and records every
      mention of another census node (the call graph, mention = edge:
      an over-approximation that is exactly what a certifier wants).

   2. {e Hot set}: BFS from the declared roots — the scheduler step
      loop, the engine dispatch, the event heap, the memory stamps —
      over mention edges whose target has arity >= 1 (a mentioned
      value binding is module-init work, not per-event work).  A
      shortest root-first chain is kept per function for diagnostics.

   3. {e Budget}: sites inside hot functions are summed per
      (function, kind) and held against the committed budget file
      (lib/analysis/alloc_budget.txt): a count over budget is a new
      hot-path allocation (build failure, diagnostic names the
      root->site chain); a count under budget is a stale entry (also a
      failure: the ratchet must tighten in the same change that drops
      the allocation, or the slack is a hole the next regression hides
      in).

   The analysis is intentionally static and conservative: it cannot
   see that flambda would have inlined a closure away, and it counts a
   site once whether it fires once per run or once per event.  The
   budget's justification comments carry that judgement; the dynamic
   truth it must reconcile with is benchdb's [minor_words_per_event]
   column. *)

type kind =
  | K_closure
  | K_papply
  | K_tuple
  | K_construct
  | K_variant
  | K_record
  | K_array
  | K_float_box
  | K_boxed
  | K_string
  | K_list
  | K_lazy
  | K_other

let kind_name = function
  | K_closure -> "closure"
  | K_papply -> "papply"
  | K_tuple -> "tuple"
  | K_construct -> "construct"
  | K_variant -> "variant"
  | K_record -> "record"
  | K_array -> "array"
  | K_float_box -> "float"
  | K_boxed -> "boxed-int"
  | K_string -> "string"
  | K_list -> "list"
  | K_lazy -> "lazy"
  | K_other -> "other"

let all_kinds =
  [ K_closure; K_papply; K_tuple; K_construct; K_variant; K_record; K_array;
    K_float_box; K_boxed; K_string; K_list; K_lazy; K_other ]

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

type site = {
  s_file : string;
  s_line : int;
  s_col : int;
  s_fn : string;
  s_kind : kind;
  s_what : string;
}

type fn_info = {
  f_name : string;
  f_module : string;
  f_arity : int;
  f_calls : string list;
  f_sites : site list;
}

type census = { c_modules : string list; c_fns : fn_info list }

exception Error of string

let errorf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Names and paths                                                     *)
(* ------------------------------------------------------------------ *)

(* "Sim__Event_heap" -> "Event_heap": library wrapping mangles module
   names with a double-underscore prefix; the census (and the budget
   file) use the plain name people write in source. *)
let plain_module m =
  let n = String.length m in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if m.[i] = '_' && m.[i + 1] = '_' then last_sep (i + 1) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some i when i < n -> String.sub m i (n - i)
  | _ -> m

(* The (module, value) pair of a resolved value path, with the module
   normalized to its plain name.  [Stdlib.^] -> ("Stdlib", "^");
   [Sim__Event_heap.push] and [Event_heap.push] both ->
   ("Event_heap", "push"). *)
let path_pair (p : Path.t) : (string * string) option =
  match p with
  | Path.Pdot (m, v) ->
      let md =
        match m with
        | Path.Pident id -> plain_module (Ident.name id)
        | Path.Pdot (_, s) -> plain_module s
        | _ -> "?"
      in
      Some (md, v)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Known external allocators                                           *)
(* ------------------------------------------------------------------ *)

let string_allocators =
  [ ("Stdlib", "^"); ("Stdlib", "string_of_int"); ("Stdlib", "string_of_float");
    ("Stdlib", "string_of_bool"); ("String", "make"); ("String", "init");
    ("String", "sub"); ("String", "concat"); ("String", "cat");
    ("String", "map"); ("String", "mapi"); ("String", "trim");
    ("String", "escaped"); ("String", "uppercase_ascii");
    ("String", "lowercase_ascii"); ("Bytes", "create"); ("Bytes", "make");
    ("Bytes", "init"); ("Bytes", "sub"); ("Bytes", "copy"); ("Bytes", "cat");
    ("Bytes", "extend"); ("Bytes", "of_string"); ("Bytes", "to_string");
    ("Printf", "sprintf"); ("Printf", "ksprintf"); ("Format", "asprintf");
    ("Buffer", "contents"); ("Buffer", "to_bytes") ]

let array_allocators =
  [ ("Array", "make"); ("Array", "create_float"); ("Array", "init");
    ("Array", "make_matrix"); ("Array", "append"); ("Array", "concat");
    ("Array", "sub"); ("Array", "copy"); ("Array", "of_list");
    ("Array", "to_list"); ("Array", "of_seq"); ("Array", "map");
    ("Array", "mapi"); ("Array", "split"); ("Array", "combine") ]

let list_allocators =
  [ ("Stdlib", "@"); ("List", "cons"); ("List", "init"); ("List", "map");
    ("List", "mapi"); ("List", "rev"); ("List", "rev_map");
    ("List", "rev_append"); ("List", "append"); ("List", "concat");
    ("List", "concat_map"); ("List", "flatten"); ("List", "filter");
    ("List", "filteri"); ("List", "filter_map"); ("List", "partition");
    ("List", "split"); ("List", "combine"); ("List", "sort");
    ("List", "stable_sort"); ("List", "sort_uniq"); ("List", "of_seq") ]

(* ------------------------------------------------------------------ *)
(* Reading cmts                                                        *)
(* ------------------------------------------------------------------ *)

let read_cmt path =
  let infos =
    try Cmt_format.read_cmt path
    with e -> errorf "%s: cannot read cmt (%s)" path (Printexc.to_string e)
  in
  match infos.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
      (plain_module infos.Cmt_format.cmt_modname, str)
  | _ -> errorf "%s: not an implementation cmt" path

(* ------------------------------------------------------------------ *)
(* The census walk                                                     *)
(* ------------------------------------------------------------------ *)

open Typedtree

(* The outermost curried chain of a binding: the Texp_function nodes
   that are the function itself (one closure, allocated when the
   binding is evaluated) rather than per-call allocations.  The chain
   extends through single-case, unguarded bodies only: a multi-case
   [function] ends it, and anything under a case branch is a fresh
   runtime closure. *)
let rec fn_chain (e : expression) : expression list =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
      e :: fn_chain c_rhs
  | Texp_function _ -> [ e ]
  | _ -> []

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

(* Boxed-number results: every Int64/Int32/Nativeint operation returns
   a fresh 3-word box — the dominant allocation inside Splitmix. *)
let is_boxed_num_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      Path.same p Predef.path_int64
      || Path.same p Predef.path_int32
      || Path.same p Predef.path_nativeint
  | _ -> false

let is_arrow_ty ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* Unwrap [f @@ x] and [x |> f] to (f, [x]) so application-position
   classification sees through the operators. *)
let unwrap_apply fn args =
  match (fn.exp_desc, args) with
  | Texp_ident (p, _, _), [ (_, Some a); (_, Some b) ] -> (
      match path_pair p with
      | Some ("Stdlib", "@@") -> (a, [ (Asttypes.Nolabel, Some b) ])
      | Some ("Stdlib", "|>") -> (b, [ (Asttypes.Nolabel, Some a) ])
      | _ -> (fn, args))
  | _ -> (fn, args)

type scan_state = {
  mutable cur_fn : string;            (* owning top-level binding *)
  mutable spine : expression list;    (* Texp_function nodes not to count *)
  mutable skip_records : expression list; (* inline-record constructor args *)
  mutable sites : site list;          (* reversed *)
  calls : (string * string, unit) Hashtbl.t; (* (fn, callee) mention set *)
}

let census (units : (string * Typedtree.structure) list) : census =
  (* Pass 1: every top-level binding's (module, name) -> arity, so that
     pass 2 can resolve mentions and recognize cross-module
     under-application. *)
  let arity_of : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let module_fns : (string, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let toplevel_names : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  let synth_count = ref 0 in
  let binding_name pat =
    match pat.pat_desc with
    | Tpat_var (id, _) -> Ident.name id
    | _ ->
        incr synth_count;
        Printf.sprintf "<init%d>" !synth_count
  in
  (* Structure traversal shared by both passes: [on_binding] receives
     every top-level (possibly submodule-qualified) binding. *)
  let rec walk_structure ~modpath ~on_binding (str : structure) =
    List.iter
      (fun (item : structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                on_binding ~modpath ~name:(binding_name vb.vb_pat)
                  ~expr:vb.vb_expr)
              vbs
        | Tstr_eval (e, _) ->
            incr synth_count;
            on_binding ~modpath
              ~name:(Printf.sprintf "<init%d>" !synth_count)
              ~expr:e
        | Tstr_module mb -> walk_module ~modpath ~on_binding mb
        | Tstr_recmodule mbs ->
            List.iter (walk_module ~modpath ~on_binding) mbs
        | _ -> ())
      str.str_items
  and walk_module ~modpath ~on_binding (mb : module_binding) =
    let sub =
      match mb.mb_id with Some id -> Ident.name id | None -> "_"
    in
    let rec expr_structure (me : module_expr) =
      match me.mod_desc with
      | Tmod_structure s -> Some s
      | Tmod_constraint (me, _, _, _) -> expr_structure me
      | Tmod_functor (_, me) -> expr_structure me
      | _ -> None
    in
    match expr_structure mb.mb_expr with
    | Some s -> walk_structure ~modpath:(modpath ^ "." ^ sub) ~on_binding s
    | None -> ()
  in
  List.iter
    (fun (modname, str) ->
      if not (Hashtbl.mem module_fns modname) then
        Hashtbl.add module_fns modname (ref []);
      walk_structure ~modpath:modname
        ~on_binding:(fun ~modpath ~name ~expr ->
          let fn = modpath ^ "." ^ name in
          Hashtbl.replace arity_of fn (List.length (fn_chain expr));
          Hashtbl.replace toplevel_names (modname, name) ();
          let fns = Hashtbl.find module_fns modname in
          fns := fn :: !fns)
        str)
    units;
  (* Reset synthesized-name numbering so both passes agree. *)
  let pass1_synth = !synth_count in
  synth_count := 0;
  (* Pass 2: classify sites and collect mentions per binding. *)
  let fn_infos = ref [] in
  List.iter
    (fun (modname, str) ->
      let st =
        {
          cur_fn = "";
          spine = [];
          skip_records = [];
          sites = [];
          calls = Hashtbl.create 64;
        }
      in
      let add_site (loc : Location.t) k what =
        let p = loc.Location.loc_start in
        st.sites <-
          {
            s_file = p.Lexing.pos_fname;
            s_line = p.Lexing.pos_lnum;
            s_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
            s_fn = st.cur_fn;
            s_kind = k;
            s_what = what;
          }
          :: st.sites
      in
      let add_call callee = Hashtbl.replace st.calls (st.cur_fn, callee) () in
      let mention (p : Path.t) =
        match p with
        | Path.Pident id ->
            let n = Ident.name id in
            if Hashtbl.mem toplevel_names (modname, n) then
              add_call (modname ^ "." ^ n)
        | _ -> (
            match path_pair p with
            | Some (md, v) when Hashtbl.mem arity_of (md ^ "." ^ v) ->
                add_call (md ^ "." ^ v)
            | _ -> ())
      in
      let classify_apply (e : expression) fn args =
        let fn, args = unwrap_apply fn args in
        let callee =
          match fn.exp_desc with
          | Texp_ident (p, _, _) -> path_pair p
          | _ -> None
        in
        let supplied =
          List.length (List.filter (fun (_, a) -> a <> None) args)
        in
        let omitted = List.exists (fun (_, a) -> a = None) args in
        let what =
          match callee with
          | Some (md, v) -> md ^ "." ^ v
          | None -> "<apply>"
        in
        if omitted then add_site e.exp_loc K_papply what
        else
          match callee with
          | Some pair when List.mem pair string_allocators ->
              add_site e.exp_loc K_string what
          | Some pair when List.mem pair array_allocators ->
              add_site e.exp_loc K_array what
          | Some pair when List.mem pair list_allocators ->
              add_site e.exp_loc K_list what
          | Some ("Stdlib", "ref") ->
              add_site e.exp_loc K_record "ref"
          | _ ->
              if is_float_ty e.exp_type then add_site e.exp_loc K_float_box what
              else if is_boxed_num_ty e.exp_type then
                add_site e.exp_loc K_boxed what
              else if is_arrow_ty e.exp_type then
                (* Under-application is only certain when the callee's
                   own curried arity is known from the census; an
                   arrow-typed full application just returns an
                   existing closure. *)
                match callee with
                | Some (md, v) -> (
                    match Hashtbl.find_opt arity_of (md ^ "." ^ v) with
                    | Some arity when arity > supplied ->
                        add_site e.exp_loc K_papply what
                    | _ -> ())
                | None -> ()
      in
      let open Tast_iterator in
      let expr self (e : expression) =
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> mention p
        | Texp_function _ ->
            if not (List.memq e st.spine) then begin
              add_site e.exp_loc K_closure "fun";
              st.spine <- fn_chain e @ st.spine
            end
        | Texp_apply (fn, args) -> classify_apply e fn args
        | Texp_tuple _ -> add_site e.exp_loc K_tuple "(,)"
        | Texp_construct (_, cd, args) when args <> [] ->
            if cd.Types.cstr_name = "::" then
              add_site e.exp_loc K_list "::"
            else begin
              add_site e.exp_loc K_construct cd.Types.cstr_name;
              (* An inline-record payload is the constructor's own
                 block, not a second allocation. *)
              match (cd.Types.cstr_inlined, args) with
              | Some _, [ ({ exp_desc = Texp_record _; _ } as r) ] ->
                  st.skip_records <- r :: st.skip_records
              | _ -> ()
            end
        | Texp_variant (l, Some _) -> add_site e.exp_loc K_variant ("`" ^ l)
        | Texp_record _ ->
            if not (List.memq e st.skip_records) then
              let what =
                match Types.get_desc e.exp_type with
                | Types.Tconstr (p, _, _) -> Path.name p
                | _ -> "{...}"
              in
              add_site e.exp_loc K_record what
        | Texp_array [] -> ()
        | Texp_array _ -> add_site e.exp_loc K_array "[|...|]"
        | Texp_field (_, _, ld) ->
            if is_float_ty e.exp_type then
              add_site e.exp_loc K_float_box ("." ^ ld.Types.lbl_name)
        | Texp_lazy _ -> add_site e.exp_loc K_lazy "lazy"
        | Texp_object _ -> add_site e.exp_loc K_other "object"
        | Texp_new _ -> add_site e.exp_loc K_other "new"
        | Texp_pack _ -> add_site e.exp_loc K_other "module"
        | _ -> ());
        default_iterator.expr self e
      in
      (* A nested [let f x = ...] allocates one closure for its whole
         curried chain when the surrounding scope is entered; count it
         here (under the enclosing binding's name) and mark the chain
         so the Texp_function case does not re-count it. *)
      let value_binding self (vb : value_binding) =
        (match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
        | Tpat_var (id, _), Texp_function _ ->
            add_site vb.vb_expr.exp_loc K_closure (Ident.name id);
            st.spine <- fn_chain vb.vb_expr @ st.spine
        | _ -> ());
        default_iterator.value_binding self vb
      in
      let iter = { default_iterator with expr; value_binding } in
      walk_structure ~modpath:modname
        ~on_binding:(fun ~modpath ~name ~expr ->
          let fn = modpath ^ "." ^ name in
          st.cur_fn <- fn;
          st.spine <- fn_chain expr;
          st.skip_records <- [];
          let before = st.sites in
          iter.expr iter expr;
          let own, rest =
            ( List.filter (fun s -> not (List.memq s before)) st.sites,
              before )
          in
          let calls =
            Hashtbl.fold
              (fun (f, callee) () acc ->
                if f = fn && callee <> fn then callee :: acc else acc)
              st.calls []
            |> List.sort_uniq compare
          in
          st.sites <- rest;
          fn_infos :=
            {
              f_name = fn;
              f_module = modname;
              f_arity =
                (match Hashtbl.find_opt arity_of fn with
                | Some a -> a
                | None -> 0);
              f_calls = calls;
              f_sites = List.rev own;
            }
            :: !fn_infos)
        str)
    units;
  ignore pass1_synth;
  {
    c_modules =
      List.sort_uniq compare (List.map (fun (m, _) -> m) units);
    c_fns =
      List.sort (fun a b -> compare a.f_name b.f_name) !fn_infos;
  }

let rec cmt_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun n -> cmt_files_under (Filename.concat path n))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

let census_of_paths paths =
  let files = List.concat_map cmt_files_under paths in
  if files = [] then errorf "no .cmt files under: %s" (String.concat " " paths);
  census
    (List.filter_map
       (fun f ->
         (* Interface-only and empty-alias cmts are not census units. *)
         match read_cmt f with
         | unit -> Some unit
         | exception Error _ -> None)
       files)

(* ------------------------------------------------------------------ *)
(* Hot set                                                             *)
(* ------------------------------------------------------------------ *)

let hot (c : census) ~roots =
  let fn_tbl = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace fn_tbl f.f_name f) c.c_fns;
  List.iter
    (fun r ->
      if not (Hashtbl.mem fn_tbl r) then
        errorf
          "unknown hot root %S: no such top-level binding in the scanned \
           modules (stale root after a rename?)"
          r)
    roots;
  let chain_to : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem chain_to r) then begin
        Hashtbl.replace chain_to r [ r ];
        Queue.add r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let fn = Queue.take queue in
    let info = Hashtbl.find fn_tbl fn in
    let chain = Hashtbl.find chain_to fn in
    List.iter
      (fun callee ->
        match Hashtbl.find_opt fn_tbl callee with
        | Some target
          when target.f_arity >= 1 && not (Hashtbl.mem chain_to callee) ->
            Hashtbl.replace chain_to callee (chain @ [ callee ]);
            Queue.add callee queue
        | _ -> ())
      info.f_calls
  done;
  Hashtbl.fold (fun fn chain acc -> (fn, chain) :: acc) chain_to []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

type budget_entry = { b_fn : string; b_kind : kind; b_count : int }

let load_budget path =
  let ic = try open_in path with Sys_error e -> errorf "%s" e in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let entries = ref [] in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       let line =
         match String.index_opt line '#' with
         | Some i -> String.sub line 0 i
         | None -> line
       in
       match
         String.split_on_char ' ' (String.trim line)
         |> List.filter (fun s -> s <> "")
       with
       | [] -> ()
       | [ fn; k; n ] -> (
           match (kind_of_name k, int_of_string_opt n) with
           | Some b_kind, Some b_count when b_count >= 0 ->
               entries := { b_fn = fn; b_kind; b_count } :: !entries
           | None, _ ->
               errorf "%s:%d: unknown allocation kind %S" path !lineno k
           | _, _ -> errorf "%s:%d: bad budget count %S" path !lineno n)
       | _ ->
           errorf "%s:%d: expected `<Module.fn> <kind> <count>` (got %S)"
             path !lineno line
     done
   with End_of_file -> ());
  List.rev !entries

type violation = {
  v_site : site;
  v_chain : string list;
  v_found : int;
  v_budget : int;
}

type verdict = {
  hot_fns : (string * string list) list;
  hot_sites : site list;
  violations : violation list;
  stale : budget_entry list;
}

let site_order a b =
  compare (a.s_file, a.s_line, a.s_col, kind_name a.s_kind)
    (b.s_file, b.s_line, b.s_col, kind_name b.s_kind)

let check (c : census) ~roots ~budget =
  let hot_fns = hot c ~roots in
  let chain_of fn = List.assoc fn hot_fns in
  let fn_tbl = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace fn_tbl f.f_name f) c.c_fns;
  let hot_sites =
    List.concat_map
      (fun (fn, _) -> (Hashtbl.find fn_tbl fn).f_sites)
      hot_fns
    |> List.sort site_order
  in
  (* (fn, kind) -> sites, in source order *)
  let groups : (string * kind, site list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let key = (s.s_fn, s.s_kind) in
      match Hashtbl.find_opt groups key with
      | Some r -> r := s :: !r
      | None -> Hashtbl.add groups key (ref [ s ]))
    hot_sites;
  let budget_of fn kind =
    List.find_opt (fun b -> b.b_fn = fn && b.b_kind = kind) budget
  in
  let violations = ref [] in
  Hashtbl.iter
    (fun (fn, kind) sites ->
      let found = List.length !sites in
      let allowed =
        match budget_of fn kind with Some b -> b.b_count | None -> 0
      in
      if found > allowed then
        let first = List.hd (List.sort site_order !sites) in
        violations :=
          {
            v_site = first;
            v_chain = chain_of fn;
            v_found = found;
            v_budget = allowed;
          }
          :: !violations)
    groups;
  let stale =
    List.filter
      (fun b ->
        let found =
          match Hashtbl.find_opt groups (b.b_fn, b.b_kind) with
          | Some r -> List.length !r
          | None -> 0
        in
        b.b_count > found)
      budget
  in
  {
    hot_fns;
    hot_sites;
    violations =
      List.sort (fun a b -> site_order a.v_site b.v_site) !violations;
    stale;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let format_violation v =
  Printf.sprintf
    "%s:%d:%d: [alloc-%s] %d %s-allocation site(s) in hot function %s \
     (budget %d): a new allocation reached the hot path; remove it or \
     justify it in the budget (chain: %s)"
    v.v_site.s_file v.v_site.s_line v.v_site.s_col (kind_name v.v_site.s_kind)
    v.v_found (kind_name v.v_site.s_kind) v.v_site.s_fn v.v_budget
    (String.concat " -> " v.v_chain)

let format_stale b =
  Printf.sprintf
    "stale budget entry: %s %s %d exceeds the census; tighten it in the \
     same change that dropped the allocation"
    b.b_fn (kind_name b.b_kind) b.b_count

let group_counts sites =
  let tbl : (string * kind, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let key = (s.s_fn, s.s_kind) in
      Hashtbl.replace tbl key
        (1 + match Hashtbl.find_opt tbl key with Some n -> n | None -> 0))
    sites;
  Hashtbl.fold (fun (fn, k) n acc -> (fn, k, n) :: acc) tbl []
  |> List.sort (fun (f1, k1, _) (f2, k2, _) ->
         compare (f1, kind_name k1) (f2, kind_name k2))

let print_budget (v : verdict) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (fn, k, n) ->
      Buffer.add_string b
        (Printf.sprintf "%s %s %d  # TODO justify\n" fn (kind_name k) n))
    (group_counts v.hot_sites);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Census JSON (CI artifact)                                           *)
(* ------------------------------------------------------------------ *)

let census_json (c : census) ~(verdict : verdict) ~roots =
  let module J = Etrace.Json in
  let kinds sites =
    J.Obj
      (List.filter_map
         (fun k ->
           match List.length (List.filter (fun s -> s.s_kind = k) sites) with
           | 0 -> None
           | n -> Some (kind_name k, J.Int n))
         all_kinds)
  in
  let strs l = J.Arr (List.map (fun s -> J.Str s) l) in
  let hot_groups = group_counts verdict.hot_sites in
  let fns_with_sites =
    List.sort_uniq compare (List.map (fun (f, _, _) -> f) hot_groups)
  in
  let violation v =
    J.Obj
      [
        ("file", J.Str v.v_site.s_file);
        ("line", J.Int v.v_site.s_line);
        ("col", J.Int v.v_site.s_col);
        ("kind", J.Str ("alloc-" ^ kind_name v.v_site.s_kind));
        ("fn", J.Str v.v_site.s_fn);
        ("found", J.Int v.v_found);
        ("budget", J.Int v.v_budget);
        ("chain", strs v.v_chain);
      ]
  in
  let stale (e : budget_entry) =
    J.Obj
      [
        ("fn", J.Str e.b_fn);
        ("kind", J.Str ("alloc-" ^ kind_name e.b_kind));
        ("budget", J.Int e.b_count);
      ]
  in
  J.to_string
    (J.Obj
       [
         ("roots", strs roots);
         ( "modules",
           J.Obj
             (List.map
                (fun m ->
                  let fns = List.filter (fun f -> f.f_module = m) c.c_fns in
                  let sites = List.concat_map (fun f -> f.f_sites) fns in
                  ( m,
                    J.Obj
                      [
                        ("functions", J.Int (List.length fns));
                        ("sites", J.Int (List.length sites));
                        ("kinds", kinds sites);
                      ] ))
                c.c_modules) );
         ("kinds", kinds (List.concat_map (fun f -> f.f_sites) c.c_fns));
         ( "hot",
           J.Obj
             [
               ("functions", J.Int (List.length verdict.hot_fns));
               ("sites", J.Int (List.length verdict.hot_sites));
               ("kinds", kinds verdict.hot_sites);
               ( "per_function",
                 J.Obj
                   (List.map
                      (fun fn ->
                        ( fn,
                          J.Obj
                            (List.filter_map
                               (fun (f, k, n) ->
                                 if f = fn then Some (kind_name k, J.Int n)
                                 else None)
                               hot_groups) ))
                      fns_with_sites) );
             ] );
         ( "budget",
           J.Obj
             [
               ("violations", J.Arr (List.map violation verdict.violations));
               ("stale", J.Arr (List.map stale verdict.stale));
             ] );
       ])
  ^ "\n"
