(* A binary min-heap of timestamped events.

   Keys are [(time, seq)] pairs compared lexicographically: [seq] is a
   strictly increasing insertion counter, so events scheduled for the
   same simulated instant fire in insertion order.  That tie-break makes
   whole simulations deterministic functions of the seed.

   This module is on the per-event hot path of every simulation, so it
   allocates nothing per operation: keys and payloads live in three
   parallel arrays ([time], [seq], [payload]) rather than in one entry
   block per event, so [push] and [pop_min] only move words between
   array cells.  The only allocation is the amortized doubling in
   [grow].  The sifts are top-level functions that carry the moving
   entry in a hole instead of swapping, and the scheduler's step loop
   reads [min_time]/[pop_min] instead of the option-and-tuple [pop]
   (kept for drain and tests).  The scheduler's payloads are its
   per-processor event slots, so a popped payload left behind in a
   vacated cell is a slot that lives for the whole run anyway.  The
   @allocheck census certifies all of this — see
   lib/analysis/alloc_budget.txt. *)

type 'a t = {
  mutable time : int array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable n : int;
}

let create () = { time = [||]; seq = [||]; payload = [||]; n = 0 }

let length t = t.n

let is_empty t = t.n = 0

(* [filler] initialises the new payload cells; it is the payload being
   pushed, so no dummy value of type ['a] is needed. *)
let grow t filler =
  let cap = Array.length t.time in
  if t.n = cap then begin
    let cap' = if cap = 0 then 64 else cap * 2 in
    let time = Array.make cap' 0
    and seq = Array.make cap' 0
    and payload = Array.make cap' filler in
    Array.blit t.time 0 time 0 t.n;
    Array.blit t.seq 0 seq 0 t.n;
    Array.blit t.payload 0 payload 0 t.n;
    t.time <- time;
    t.seq <- seq;
    t.payload <- payload
  end

let set t i time seq payload =
  t.time.(i) <- time;
  t.seq.(i) <- seq;
  t.payload.(i) <- payload

(* Move the entry at [j] into cell [i]. *)
let move t ~src:j ~dst:i = set t i t.time.(j) t.seq.(j) t.payload.(j)

(* Sift the hole at [i] up until [(time, seq)] fits, then fill it. *)
let rec sift_up t i time seq payload =
  let parent = (i - 1) / 2 in
  if
    i > 0
    && (time < t.time.(parent)
       || (time = t.time.(parent) && seq < t.seq.(parent)))
  then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time seq payload
  end
  else set t i time seq payload

(* Whether the entry at [j] is less than the entry at [i]. *)
let lt_at t j i =
  t.time.(j) < t.time.(i) || (t.time.(j) = t.time.(i) && t.seq.(j) < t.seq.(i))

(* Sift the hole at [i] down until [(time, seq)] fits, then fill it. *)
let rec sift_down t i time seq payload =
  let l = (2 * i) + 1 in
  if l >= t.n then set t i time seq payload
  else begin
    let c = if l + 1 < t.n && lt_at t (l + 1) l then l + 1 else l in
    if t.time.(c) < time || (t.time.(c) = time && t.seq.(c) < seq) then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq payload
    end
    else set t i time seq payload
  end

let push t ~time ~seq payload =
  grow t payload;
  t.n <- t.n + 1;
  sift_up t (t.n - 1) time seq payload

(* Remove the root entry: the last entry refills the root's hole. *)
let remove_top t =
  t.n <- t.n - 1;
  let last = t.n in
  if last > 0 then sift_down t 0 t.time.(last) t.seq.(last) t.payload.(last)

let min_time t =
  if t.n = 0 then invalid_arg "Event_heap.min_time: empty heap";
  t.time.(0)

let pop_min t =
  if t.n = 0 then invalid_arg "Event_heap.pop_min: empty heap";
  let top = t.payload.(0) in
  remove_top t;
  top

let pop t =
  if t.n = 0 then None
  else begin
    let time = t.time.(0) and seq = t.seq.(0) and top = t.payload.(0) in
    remove_top t;
    Some (time, seq, top)
  end

(* Drain remaining events in key order (used when aborting a run). *)
let drain t f =
  while t.n > 0 do
    let time = t.time.(0) and seq = t.seq.(0) and top = t.payload.(0) in
    remove_top t;
    f time seq top
  done
