(* Direct property tests for Sim.Event_heap — the per-event hot-path
   queue the @allocheck census certifies as allocation-free: a 4096-
   instant time wheel of per-instant FIFO buckets in front of a binary
   heap that takes far-future events, pushes below the wheel's base and
   out-of-order seqs.  The properties pin the behavioral contract the
   design must preserve: exact (time, seq) ordering, duplicate-key
   insertion-order tie-break, and agreement between the allocating
   [pop] and the zero-alloc [min_time]/[pop_min] pair, each checked
   against a sorted-list model under interleaved pushes and pops.  The
   wheel property drives keys across many wheel widths so that buckets
   wrap and spill, and drains with a callback that pushes, as the
   scheduler's abort path does.  A unit test pins the zero allocation
   itself, on near keys and on keys that wrap the wheel. *)

module H = Sim.Event_heap

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Model: an association list kept sorted by (time, seq)               *)
(* ------------------------------------------------------------------ *)

let model_push model ~time ~seq payload = (time, seq, payload) :: model

let model_pop model =
  match
    List.sort
      (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
      model
  with
  | [] -> (None, model)
  | ((t, s, _) as hd) :: _ ->
      (Some (t, s), List.filter (fun e -> e <> hd) model)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_pop_sorted =
  QCheck.Test.make ~name:"pop drains in sorted (time, seq) order" ~count:300
    QCheck.(list (int_bound 100))
    (fun times ->
      let h = H.create () in
      List.iteri (fun seq time -> H.push h ~time ~seq seq) times;
      let rec drain acc =
        match H.pop h with
        | None -> List.rev acc
        | Some (t, s, _) -> drain ((t, s) :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare popped
      && List.length popped = List.length times
      && H.is_empty h)

(* Many events at the SAME instant must come back in insertion order —
   the seq tie-break is what makes whole simulations deterministic. *)
let prop_duplicate_keys =
  QCheck.Test.make ~name:"duplicate times pop in insertion (seq) order"
    ~count:300
    QCheck.(pair (int_bound 5) (list (int_bound 3)))
    (fun (base, times) ->
      let h = H.create () in
      (* Map every time into a tiny range so collisions are the norm. *)
      List.iteri (fun seq t -> H.push h ~time:(base + t) ~seq seq) times;
      let rec drain acc =
        match H.pop h with
        | None -> List.rev acc
        | Some (t, s, p) -> drain ((t, s, p) :: acc)
      in
      let popped = drain [] in
      (* Within each time bucket, seqs strictly increase. *)
      let rec buckets_ok = function
        | (t1, s1, _) :: ((t2, s2, _) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && s1 < s2)) && buckets_ok rest
        | _ -> true
      in
      buckets_ok popped
      (* And every payload equals its seq: nothing lost or duplicated. *)
      && List.for_all (fun (_, s, p) -> s = p) popped)

(* Interleaved pushes and pops against the sorted-list model.  The
   generator emits a script of operations; seq numbers increase
   monotonically across the whole script, as in the scheduler. *)
let prop_interleaved_model =
  QCheck.Test.make ~name:"interleaved push/pop agrees with sorted-list model"
    ~count:300
    QCheck.(list (option (int_bound 50)))
    (fun script ->
      let h = H.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some time ->
              H.push h ~time ~seq:!seq !seq;
              model := model_push !model ~time ~seq:!seq !seq;
              incr seq
          | None -> (
              let expected, model' = model_pop !model in
              model := model';
              match (H.pop h, expected) with
              | None, None -> ()
              | Some (t, s, _), Some (t', s') ->
                  if (t, s) <> (t', s') then ok := false
              | Some _, None | None, Some _ -> ok := false))
        script;
      !ok && H.length h = List.length !model)

(* The zero-alloc pair (min_time + pop_min) must agree with pop exactly:
   run the same script against two heaps, reading one through each
   interface. *)
let prop_pop_min_equiv =
  QCheck.Test.make ~name:"min_time/pop_min agree with pop" ~count:300
    QCheck.(list (option (int_bound 50)))
    (fun script ->
      let h1 = H.create () and h2 = H.create () in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some time ->
              H.push h1 ~time ~seq:!seq !seq;
              H.push h2 ~time ~seq:!seq !seq;
              incr seq
          | None -> (
              match H.pop h1 with
              | None -> if not (H.is_empty h2) then ok := false
              | Some (t, _, p) ->
                  if H.is_empty h2 then ok := false
                  else begin
                    let t' = H.min_time h2 in
                    let p' = H.pop_min h2 in
                    if t <> t' || p <> p' then ok := false
                  end))
        script;
      !ok && H.length h1 = H.length h2)

(* The wheel covers 4096 instants from its base; everything else goes to
   the fallback heap.  A script of [(kind, value, salt)] triples drives
   the queue and a sorted-list model side by side:
   - pushes land at the last popped time plus a delta that is a tiny
     tie (0..3), near (< 5000), far (< 30000, beyond four wheel widths,
     so buckets wrap and far keys spill), at the window's far edge
     (4096 +- 40, so the first occupied bucket often lies circularly
     behind the base's own bitmap word) or negative (below the last
     popped time, hence below the wheel's base);
   - one push in eight takes an unused odd seq below the counter, the
     rare out-of-order seq that must not join its bucket's FIFO;
   - pops alternate between [pop] and [min_time]/[pop_min];
   - the script ends in [drain], whose callback pushes new events at,
     just before or just after the key it is handed, for its first 32
     calls. *)
let prop_wheel_model =
  QCheck.Test.make
    ~name:"wheel: wrap, spill, ties, late pushes and drain agree with model"
    ~count:300
    QCheck.(
      list_of_size
        (Gen.int_range 50 600)
        (triple (int_bound 99) (int_bound 29_999) (int_bound 7)))
    (fun script ->
      let h = H.create () in
      let model = ref [] in
      let insert e =
        let rec go = function
          | [] -> [ e ]
          | x :: rest as l -> if key e < key x then e :: l else x :: go rest
        and key (t, s, _) = (t, s) in
        model := go !model
      in
      let used = Hashtbl.create 64 in
      let counter = ref 0 and last = ref 0 and pushed = ref 0 in
      let ok = ref true in
      let push ~time ~seq =
        Hashtbl.replace used seq ();
        H.push h ~time ~seq !pushed;
        insert (time, seq, !pushed);
        incr pushed
      in
      (* Regular seqs are even and increasing; [fresh_seq k] for k > 0
         tries the odd seq k steps below the counter instead. *)
      let fresh_seq k =
        counter := !counter + 2;
        let late = !counter - 1 - (2 * k) in
        if k = 0 || late < 0 || Hashtbl.mem used late then !counter
        else late
      in
      let expect (time, seq, p) =
        match !model with
        | (t, s, q) :: rest when (t, s, q) = (time, seq, p) ->
            model := rest;
            last := time
        | _ -> ok := false
      in
      List.iter
        (fun (kind, v, salt) ->
          if kind < 50 then begin
            let delta =
              if kind < 12 then v land 3
              else if kind < 24 then v mod 5000
              else if kind < 32 then v
              else if kind < 40 then 4096 - 40 + (v mod 80)
              else -(v mod 200)
            in
            let late = if salt = 0 then 1 + (v mod 3) else 0 in
            push ~time:(!last + delta) ~seq:(fresh_seq late)
          end
          else if H.is_empty h then (if !model <> [] then ok := false)
          else if v land 1 = 0 then begin
            match H.pop h with
            | Some e -> expect e
            | None -> ok := false
          end
          else begin
            let time = H.min_time h in
            match !model with
            | (_, seq, _) :: _ -> expect (time, seq, H.pop_min h)
            | [] -> ok := false
          end;
          if H.length h <> List.length !model then ok := false)
        script;
      let calls = ref 0 in
      H.drain h (fun time seq p ->
          expect (time, seq, p);
          incr calls;
          if !calls <= 32 then
            push ~time:(time + (seq mod 7) - 3) ~seq:(fresh_seq (seq land 1)));
      !ok && !model = [] && H.is_empty h)

(* ------------------------------------------------------------------ *)
(* Unit edges                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty_raises () =
  let h : int H.t = H.create () in
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Event_heap.min_time: empty heap") (fun () ->
      ignore (H.min_time h));
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Event_heap.pop_min: empty heap") (fun () ->
      ignore (H.pop_min h))

let test_pop_min_then_empty () =
  let h = H.create () in
  H.push h ~time:7 ~seq:0 "only";
  check_int "min_time" 7 (H.min_time h);
  Alcotest.(check string) "pop_min" "only" (H.pop_min h);
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check (option (triple int int string))) "pop on empty" None
    (H.pop h)

let test_grow_across_doubling () =
  (* Push past the initial capacity (512) and one doubling beyond, in
     each part: falling times all land below the first one, in the
     fallback heap; rising times within one wheel width all land in the
     wheel's node pool. *)
  let n = 1500 in
  List.iter
    (fun time_of ->
      let h = H.create () in
      for i = 0 to n - 1 do
        H.push h ~time:(time_of i) ~seq:i i
      done;
      check_int "length" n (H.length h);
      let last = ref min_int in
      for _ = 1 to n do
        let t = H.min_time h in
        ignore (H.pop_min h);
        Alcotest.(check bool) "nondecreasing" true (t >= !last);
        last := t
      done;
      Alcotest.(check bool) "drained" true (H.is_empty h))
    [ (fun i -> n - i); (fun i -> 2 * i) ]

(* Hold [h] at its size for [steps] pop+push pairs, each new key at
   the popped time plus [1 + (hash land spread)]. *)
let churn h seq ~spread steps =
  for _ = 1 to steps do
    let t = H.min_time h in
    let p = H.pop_min h in
    incr seq;
    H.push h ~time:(t + 1 + ((!seq * 7919) land spread)) ~seq:!seq p
  done

(* Steady state: a queue held at 256 entries, one pop and one push per
   step, allocates no minor words at all once its arrays have grown —
   both on near keys, which all stay in the wheel, and on keys up to
   four wheel widths ahead, which wrap the wheel and spill into the
   fallback heap. *)
let test_push_pop_no_alloc () =
  let h = H.create () in
  for i = 0 to 255 do
    H.push h ~time:(i * 7) ~seq:i i
  done;
  let seq = ref 256 in
  let before = Gc.minor_words () in
  churn h seq ~spread:1023 100_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 100k near push+pop" 0. words;
  check_int "size held" 256 (H.length h);
  churn h seq ~spread:16383 20_000;
  let before = Gc.minor_words () in
  churn h seq ~spread:16383 100_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 100k wrapping push+pop" 0.
    words;
  check_int "size held" 256 (H.length h)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "event_heap"
    [
      ( "properties",
        [
          qcheck prop_pop_sorted;
          qcheck prop_duplicate_keys;
          qcheck prop_interleaved_model;
          qcheck prop_pop_min_equiv;
          qcheck prop_wheel_model;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty accessors raise" `Quick test_empty_raises;
          Alcotest.test_case "single entry via pop_min" `Quick
            test_pop_min_then_empty;
          Alcotest.test_case "growth across doublings" `Quick
            test_grow_across_doubling;
          Alcotest.test_case "steady-state push+pop allocates nothing"
            `Quick test_push_pop_no_alloc;
        ] );
    ]
