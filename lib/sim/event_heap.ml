(* The simulator's event queue: a bucketed time wheel in front of a
   binary min-heap.

   Keys are [(time, seq)] pairs compared lexicographically: [seq] is a
   strictly increasing insertion counter, so events scheduled for the
   same simulated instant fire in insertion order.  That tie-break makes
   whole simulations deterministic functions of the seed.

   Simulated completion times fall at or after the clock, and nearly
   all close to it: in the repository benchmark's three workloads over
   99% of pushes land within 4096 cycles of the queue's base, even in
   pc-sparse, whose think delays run to 16000 cycles but are one push
   per operation among about 90.  So the queue is a calendar queue
   (R. Brown, CACM 1988) with one bucket per instant:

   - The wheel covers the window [base, base + wheel_size).  Bucket
     [time land wheel_mask] holds the events of the one instant in the
     window congruent to it, as a FIFO ring of pool nodes in [seq]
     order.  The first occupied bucket is cached in [first]; when it
     empties, an occupancy bitmap with a summary level finds the next
     one without scanning empty buckets.
   - The fallback heap holds everything else: events beyond the window,
     pushes below [base] (the abort drain makes them, and so does a
     push that lands before an empty wheel's re-based window), and a
     push whose [seq] is below its bucket's last one, which would break
     the bucket's FIFO order.  An event stays in the part it was pushed
     into until it is popped.

   Invariant: every wheel event's time lies in [base, base + wheel_size)
   and each bucket's ring is sorted by [seq].  [base] only moves up to
   the time of the least event popped, which is at most every wheel
   time, or to the pushed time while the wheel is empty, so the
   invariant survives every operation.  The least wheel key is then the
   head of the first occupied bucket at or after [base land wheel_mask]
   (circularly), the least heap key is the root, and [min_time] /
   [pop_min] take the lesser of the two.  Each part yields its events in
   exact [(time, seq)] order, so the merged order is the binary heap's.

   This module is on the per-event hot path of every simulation, so it
   allocates nothing per operation: keys and payloads live in parallel
   arrays (the heap's [time]/[seq]/[payload], the node pool's
   [nseq]/[npayload]/[next]).  The wheel arrays are allocated on the
   first push (controller-mode runs never push), and the node pool and
   heap grow by amortized doubling.  [min_time] caches its decision,
   which [pop_min] reuses instead of settling twice; a push into an
   empty wheel, which is every event of a lone processor, settles it at
   once.  The scheduler's payloads are its per-processor event slots,
   so a popped payload left behind in a vacated cell is a slot that
   lives for the whole run anyway.  The @allocheck census certifies all
   of this — see lib/analysis/alloc_budget.txt. *)

let wheel_bits = 12
let wheel_size = 1 lsl wheel_bits
let wheel_mask = wheel_size - 1

(* Bitmap words hold 32 bits, so the de Bruijn [ctz] below applies.  The
   summary level keeps a sparse wheel's search to a few words: a flat
   scan of the 128 occupancy words made 2 processors with delays from
   U[1,16000] 8-11% slower per event. *)
let word_bits = 5
let word_mask = (1 lsl word_bits) - 1
let occ_words = wheel_size lsr word_bits
let summary_words = occ_words lsr word_bits

(* The first capacity of the node pool and of the heap.  Both live for
   the whole run, so they are allocated straight into the major heap
   (arrays above 256 words are), rather than in the minor heap only to
   be copied out at the next minor collection. *)
let initial_capacity = 512

(* [src] values besides a bucket index. *)
let unsettled = -2
let from_heap = -1

(* The fields every event touches come first, so they share cache
   lines. *)
type 'a t = {
  (* the least key's source ([unsettled], [from_heap] or a bucket)
     and time, as [min_time] settled it *)
  mutable src : int;
  mutable min : int;
  mutable n : int;  (* events in the heap *)
  (* the wheel *)
  mutable base : int;
  mutable wn : int;  (* events in the wheel *)
  mutable first : int;  (* the first occupied bucket, or -1: search *)
  mutable last : int array;  (* per bucket: its last node, or -1 *)
  (* the node pool: a bucket's nodes form a ring through [next], from
     its last node round to its first; free nodes are chained through
     [next] from [free] *)
  mutable free : int;
  mutable next : int array;
  mutable nseq : int array;
  mutable npayload : 'a array;
  (* occupancy: a bit per marked bucket, and a summary bit per non-zero
     [occ] word *)
  mutable occ : int array;
  mutable summary : int array;
  (* the fallback binary heap *)
  mutable time : int array;
  mutable seq : int array;
  mutable payload : 'a array;
}

let create () =
  {
    src = unsettled;
    min = 0;
    n = 0;
    base = 0;
    wn = 0;
    first = -1;
    last = [||];
    free = -1;
    next = [||];
    nseq = [||];
    npayload = [||];
    occ = [||];
    summary = [||];
    time = [||];
    seq = [||];
    payload = [||];
  }

let length t = t.n + t.wn

let is_empty t = t.n = 0 && t.wn = 0

(* ------------------------------------------------------------------ *)
(* The fallback heap                                                   *)
(* ------------------------------------------------------------------ *)

(* [filler] initialises the new payload cells; it is the payload being
   pushed, so no dummy value of type ['a] is needed. *)
let grow t filler =
  let cap = Array.length t.time in
  if t.n = cap then begin
    let cap' = if cap = 0 then initial_capacity else cap * 2 in
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

let heap_push t time seq payload =
  grow t payload;
  t.n <- t.n + 1;
  sift_up t (t.n - 1) time seq payload

(* Remove the root entry: the last entry refills the root's hole. *)
let remove_top t =
  t.n <- t.n - 1;
  let last = t.n in
  if last > 0 then sift_down t 0 t.time.(last) t.seq.(last) t.payload.(last)

(* ------------------------------------------------------------------ *)
(* The wheel                                                           *)
(* ------------------------------------------------------------------ *)

let alloc_wheel t =
  t.last <- Array.make wheel_size (-1);
  t.occ <- Array.make occ_words 0;
  t.summary <- Array.make summary_words 0

(* Called with every node in use: double the pool and chain the new
   nodes into the free list.  The first call also allocates the wheel. *)
let grow_nodes t filler =
  let cap = Array.length t.next in
  if cap = 0 then alloc_wheel t;
  let cap' = if cap = 0 then initial_capacity else cap * 2 in
  let nseq = Array.make cap' 0
  and npayload = Array.make cap' filler
  and next = Array.make cap' (-1) in
  Array.blit t.nseq 0 nseq 0 cap;
  Array.blit t.npayload 0 npayload 0 cap;
  Array.blit t.next 0 next 0 cap;
  for i = cap to cap' - 2 do
    next.(i) <- i + 1
  done;
  t.nseq <- nseq;
  t.npayload <- npayload;
  t.next <- next;
  t.free <- cap

let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

(* Index of the lowest set bit of a non-zero 32-bit word. *)
let ctz x = debruijn.((((x land (-x)) * 0x077CB531) lsr 27) land 31)

let mark t b =
  let w = b lsr word_bits in
  let o = t.occ.(w) in
  if o = 0 then begin
    let sw = w lsr word_bits in
    t.summary.(sw) <- t.summary.(sw) lor (1 lsl (w land word_mask))
  end;
  t.occ.(w) <- o lor (1 lsl (b land word_mask))

let unmark t b =
  let w = b lsr word_bits in
  let o = t.occ.(w) land lnot (1 lsl (b land word_mask)) in
  t.occ.(w) <- o;
  if o = 0 then begin
    let sw = w lsr word_bits in
    t.summary.(sw) <- t.summary.(sw) land lnot (1 lsl (w land word_mask))
  end

(* The first non-zero occupancy word from summary word [sw], whose
   bits still to search are [s], on through [left] more summary words,
   circularly.  Some word is non-zero whenever the wheel holds an
   event; should a bug break that, the scan fails rather than loops. *)
let rec scan_summary t sw s left =
  if s <> 0 then (sw lsl word_bits) lor ctz s
  else if left = 0 then failwith "Event_heap: an occupied bucket is unmarked"
  else
    let sw = (sw + 1) land (summary_words - 1) in
    scan_summary t sw t.summary.(sw) (left - 1)

(* The first non-zero occupancy word from [w] on, circularly. *)
let next_word t w =
  let sw = w lsr word_bits in
  scan_summary t sw (t.summary.(sw) land (-1 lsl (w land word_mask)))
    summary_words

(* The first marked bucket from [c] on, circularly.  If the search
   wraps back to [c]'s own word, only bits below [c] are left there,
   and the lowest of them is the circularly next. *)
let first_marked t c =
  let w = c lsr word_bits in
  let o = t.occ.(w) land (-1 lsl (c land word_mask)) in
  if o <> 0 then (w lsl word_bits) lor ctz o
  else
    let w = next_word t ((w + 1) land (occ_words - 1)) in
    (w lsl word_bits) lor ctz t.occ.(w)

(* The first occupied bucket from [c] on, circularly, when [first] is
   unknown.  Every occupied bucket but [first] is marked; [first] is
   marked only once it stops being first.  [take] unmarks a bucket when
   its last event leaves, except when that empties the whole wheel, so
   a lone processor, which re-arms a nearby bucket at once, never
   touches the bitmap.  The search unmarks the stale buckets this
   leaves as it meets them, each at most once.  (Marking every occupied
   bucket and unmarking every emptied one made that loop 5-10% slower
   per event.) *)
let rec first_bucket t c =
  let b = first_marked t c in
  if t.last.(b) >= 0 then b
  else begin
    unmark t b;
    first_bucket t b
  end

(* Take a node from the free list for a new event. *)
let new_node t seq payload =
  if t.free < 0 then grow_nodes t payload;
  let node = t.free in
  t.free <- t.next.(node);
  t.nseq.(node) <- seq;
  t.npayload.(node) <- payload;
  node

(* ------------------------------------------------------------------ *)
(* The merged minimum                                                  *)
(* ------------------------------------------------------------------ *)

(* Settle the least key: the wheel's least event, the ring head [head]
   of bucket [b] at time [wt], or the heap's root, whichever is less. *)
let settle_wheel t b wt head =
  if
    t.n > 0
    && (t.time.(0) < wt || (t.time.(0) = wt && t.seq.(0) < t.nseq.(head)))
  then begin
    t.src <- from_heap;
    t.min <- t.time.(0)
  end
  else begin
    t.src <- b;
    t.min <- wt
  end

(* Decide which part holds the least key; [empty] is the message for
   an empty queue. *)
let settle t empty =
  if t.wn > 0 then begin
    if t.first < 0 then t.first <- first_bucket t (t.base land wheel_mask);
    let b = t.first in
    settle_wheel t b
      (t.base + ((b - t.base) land wheel_mask))
      t.next.(t.last.(b))
  end
  else if t.n > 0 then begin
    t.src <- from_heap;
    t.min <- t.time.(0)
  end
  else invalid_arg empty

let push t ~time ~seq payload =
  t.src <- unsettled;
  if t.wn = 0 then begin
    (* An empty wheel moves to the event, which becomes its first, and
       the least key is settled at once. *)
    let b = time land wheel_mask in
    let node = new_node t seq payload in
    t.next.(node) <- node;
    t.last.(b) <- node;
    t.base <- time;
    t.first <- b;
    t.wn <- 1;
    settle_wheel t b time node
  end
  else if (time - t.base) land lnot wheel_mask <> 0 then
    heap_push t time seq payload
  else begin
    let b = time land wheel_mask in
    let l = t.last.(b) in
    if l >= 0 && t.nseq.(l) > seq then heap_push t time seq payload
    else begin
      let node = new_node t seq payload in
      if l < 0 then begin
        t.next.(node) <- node;
        if
          t.first >= 0
          && (b - t.base) land wheel_mask < (t.first - t.base) land wheel_mask
        then begin
          mark t t.first;
          t.first <- b
        end
        else mark t b
      end
      else begin
        t.next.(node) <- t.next.(l);
        t.next.(l) <- node
      end;
      t.last.(b) <- node;
      t.wn <- t.wn + 1
    end
  end

(* Remove the settled least event and return its payload. *)
let take t =
  let b = t.src in
  t.src <- unsettled;
  if b = from_heap then begin
    if t.min > t.base then t.base <- t.min;
    let top = t.payload.(0) in
    remove_top t;
    top
  end
  else begin
    t.base <- t.min;
    let l = t.last.(b) in
    let node = t.next.(l) in
    if node = l then begin
      t.last.(b) <- -1;
      t.first <- -1;
      if t.wn > 1 then unmark t b
    end
    else t.next.(l) <- t.next.(node);
    t.next.(node) <- t.free;
    t.free <- node;
    t.wn <- t.wn - 1;
    t.npayload.(node)
  end

(* A settled decision implies a non-empty queue: every removal
   unsettles it, and a push unsettles it or settles it afresh. *)
let min_time t =
  if t.src = unsettled then settle t "Event_heap.min_time: empty heap";
  t.min

let pop_min t =
  if t.src = unsettled then settle t "Event_heap.pop_min: empty heap";
  take t

(* The least key's [seq], once settled. *)
let min_seq t =
  if t.src = from_heap then t.seq.(0) else t.nseq.(t.next.(t.last.(t.src)))

let pop t =
  if is_empty t then None
  else begin
    if t.src = unsettled then settle t "";
    let time = t.min and seq = min_seq t in
    let top = take t in
    Some (time, seq, top)
  end

(* Drain remaining events in key order (used when aborting a run); no
   option or tuple per event, unlike [pop]. *)
let drain t f =
  while not (is_empty t) do
    if t.src = unsettled then settle t "";
    let time = t.min and seq = min_seq t in
    let top = take t in
    f time seq top
  done
