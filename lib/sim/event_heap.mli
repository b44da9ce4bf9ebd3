(** A binary min-heap of timestamped events, keyed by [(time, seq)]
    compared lexicographically.  [seq] is a strictly increasing
    insertion counter, so same-instant events fire in insertion order —
    this tie-break is what makes whole simulations deterministic.

    Keys and payloads live in parallel arrays, so {!push},
    {!min_time} and {!pop_min} allocate nothing beyond the amortized
    doubling of the arrays.  The scheduler's payload is a processor's
    reusable event slot: a processor has at most one pending event, so
    the heap never holds more entries than there are processors.  A
    popped payload may stay referenced from a vacated cell until that
    cell is reused. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert an event.  No allocation once the arrays have grown. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the least [(time, seq, payload)]. *)

val min_time : 'a t -> int
(** The least entry's [time], without removing it.  No allocation; the
    scheduler's step loop pairs it with {!pop_min} instead of paying
    {!pop}'s option-and-tuple per event.  Raises [Invalid_argument] on
    an empty heap. *)

val pop_min : 'a t -> 'a
(** Remove the least entry and return its payload alone (no
    allocation).  Raises [Invalid_argument] on an empty heap. *)

val drain : 'a t -> (int -> int -> 'a -> unit) -> unit
(** [drain t f] pops every remaining event in key order, applying [f];
    events pushed by [f] itself are drained too. *)
