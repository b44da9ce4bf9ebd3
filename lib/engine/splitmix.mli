(** Splitmix64 pseudo-random number generator (Steele, Lea & Flood,
    OOPSLA 2014).

    Deterministic per seed — the simulator relies on this for
    reproducible experiments — with cheap derivation of decorrelated
    per-processor streams. *)

type t
(** Mutable generator state, held unboxed: {!int}, {!bool} and
    {!bernoulli} allocate nothing. *)

val create : int64 -> t
(** [create seed] makes a generator from a 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val split : t -> index:int -> t
(** [split base ~index] derives an independent stream for stream
    [index] without advancing [base]. *)

val stream : seed:int -> index:int -> t
(** [stream ~seed ~index] is [split (of_int seed) ~index]: the one
    canonical way to derive stream [index] of an integer-seeded family
    (adapt controllers, fault classes, arrival generators). *)

val mix64 : int64 -> int64
(** The Murmur3-style 64-bit finalizer behind {!split}.  Exposed so
    every pure hash in the library mixes through the same function. *)

val hash3 : int -> int -> int -> int
(** [hash3 a b c] is a pure non-negative hash of the triple, suitable
    for stateless noise (fault jitter) and key→bucket mapping (the
    shard frontend's session hash). *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)].  Raises
    [Invalid_argument] if [bound <= 0]. *)

val bool : t -> bool
(** A fair coin. *)

val bernoulli : t -> num:int -> den:int -> bool
(** [bernoulli t ~num ~den] is true with probability [num/den]
    (clamped to [\[0,1\]]).  Raises [Invalid_argument] if [den <= 0]. *)
