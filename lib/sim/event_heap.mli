(** The simulator's event queue: timestamped events keyed by
    [(time, seq)] compared lexicographically.  [seq] is a strictly
    increasing insertion counter, so same-instant events fire in
    insertion order — this tie-break is what makes whole simulations
    deterministic.

    A time wheel of one-instant FIFO buckets covers the [4096] instants
    from a base that follows the least popped time; an occupancy bitmap
    with a summary level finds its first non-empty bucket.  A binary
    min-heap takes every other event: far-future ones, pushes below the
    base, and a push whose [seq] is below its bucket's last.  Each part
    yields exact [(time, seq)] order and the lesser of their minima
    comes out first, so the pop order is exactly a binary heap's over
    all events.  In the repository benchmark's workloads over 99% of
    pushes fall within the window, where a push and a pop are O(1).

    Keys and payloads live in parallel arrays, so {!push},
    {!min_time} and {!pop_min} allocate nothing beyond the wheel's
    arrays on the first push and the amortized doubling of the node
    pool and the heap.  The scheduler's payload is a processor's
    reusable event slot: a processor has at most one pending event, so
    the queue never holds more entries than there are processors.  A
    popped payload may stay referenced from a vacated cell until that
    cell is reused. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert an event.  No allocation once the arrays have grown.  Any
    [time] and [seq] are accepted, including keys below those already
    popped. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the least [(time, seq, payload)]. *)

val min_time : 'a t -> int
(** The least entry's [time], without removing it.  No allocation; the
    scheduler's step loop pairs it with {!pop_min} instead of paying
    {!pop}'s option-and-tuple per event, and {!pop_min} reuses the
    decision made here.  Raises [Invalid_argument] on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove the least entry and return its payload alone (no
    allocation).  Raises [Invalid_argument] on an empty queue. *)

val drain : 'a t -> (int -> int -> 'a -> unit) -> unit
(** [drain t f] pops every remaining event in key order, applying [f];
    events pushed by [f] itself are drained too. *)
