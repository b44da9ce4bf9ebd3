(* Splitmix64 pseudo-random number generator (Steele, Lea & Flood 2014).

   Used for all randomized decisions in the library: prism slot choice,
   RSU partner choice and workload think times.  It is deterministic per
   seed, which the simulator relies on for reproducible experiments, and
   each simulated processor (or native domain) owns an independent
   stream, so drawing numbers never synchronizes between processors. *)

(* The 64-bit state lives unboxed in an 8-byte buffer: an [int64]
   record field would be a pointer to a boxed [int64], reallocated on
   every draw.  Reading and writing it through [get_int64_le] /
   [set_int64_le] keeps the arithmetic in registers, so [int], [bool]
   and [bernoulli] allocate nothing. *)
type t = Bytes.t

let get t = Bytes.get_int64_le t 0
let set t z = Bytes.set_int64_le t 0 z

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set t seed;
  t

let of_int seed = create (Int64.of_int seed)

(* Murmur3-style 64-bit finalizer.  This is the single mixing function
   behind stream derivation ([split]), the fault planner's pure hashing
   and the shard frontend's session→shard hash — shared here so the
   three cannot drift apart. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

(* Derive an independent stream: mixing the parent seed with the stream
   index through the output function keeps streams decorrelated even for
   consecutive indices. *)
let split t ~index =
  create (mix64 (Int64.add (get t) (Int64.mul golden_gamma (Int64.of_int (index + 1)))))

let stream ~seed ~index = split (of_int seed) ~index

(* Pure (stateless) non-negative hash of a triple: decorrelates
   consecutive inputs so per-(pid, cycle) jitter and per-session shard
   choice look noise-like while remaining pure functions. *)
let hash3 a b c =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int a) golden_gamma)
         (Int64.add
            (Int64.mul (Int64.of_int b) 0xBF58476D1CE4E5B9L)
            (Int64.of_int c)))
  in
  Int64.to_int z land max_int

(* The draw itself, inlined into every consumer so its result stays
   unboxed. *)
let[@inline] next t =
  let z = Int64.add (get t) golden_gamma in
  set t z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t

(* Uniform in [0, bound).  Rejection sampling over the top 62 bits avoids
   modulo bias beyond one part in 2^62 / bound, which is negligible for
   the bounds used here (all well below 2^30). *)
let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let x = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  x mod bound

let bool t = Int64.logand (next t) 1L = 1L

(* Bernoulli trial with probability [num]/[den]. *)
let bernoulli t ~num ~den =
  if den <= 0 then invalid_arg "Splitmix.bernoulli: den must be positive";
  if num <= 0 then false
  else if num >= den then true
  else int t den < num
