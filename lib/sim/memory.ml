(* Simulated shared memory with per-location contention.

   Every location carries a [busy_until] timestamp.  Writes and
   read-modify-writes issued at time [t] are serviced starting at
   [max t busy_until] and advance [busy_until] by their latency, so [k]
   simultaneous RMWs on one location cost Theta(k * latency) — the
   hot-spot queueing at a directory home node that the paper's toggle
   bits suffer from and its prisms avoid.

   Reads are charged a fixed latency but do not serialize: they model
   cached / read-shared lines, which is the standard assumption behind
   local-spinning locks such as MCS.  The algorithms in this repository
   only spin on locations they own or on such cached reads.

   The typed-op contract: the engine's five operations are the
   scheduler's effects [Get], [Set], [Exchange], [Cas] and [Faa].  Their
   cost comes from {!config} alone ([read_latency] for [Get],
   [write_latency] for [Set], [rmw_latency] for the three RMWs; [Get]
   serializes only under [reads_serialize]).  A cell is read or mutated
   only by [Scheduler.apply], when the operation's event fires, and
   each simulated processor has at most one such operation in flight
   (its one event slot).

   Analysis instrumentation (etrees.analysis, dynamic prong): each
   location additionally carries

   - a last-writer {e epoch} [(time, pid, seq)], stamped by every
     engine-level mutation;
   - the service window and issuer of the most recently issued
     serialized operation;
   - a {e shadow} of the value the engine last installed (physical
     identity), so a raw [c.v <- x] that bypasses the effect discipline
     is caught by the next engine operation on the cell.

   All stamps are flat mutable ints (plus one [Obj.t] store), kept
   up to date unconditionally — a handful of host-level stores per
   simulated operation, costing zero simulated cycles — so a
   {!tracer} can be installed at any point of a run.  The checks
   themselves run only while a tracer is installed (see
   [Analysis.Race_detector]). *)

type loc = {
  id : int; (* dense allocation index, for race reports *)
  mutable busy_until : int;
  (* last committed engine-level write: the cell's epoch stamp *)
  mutable epoch_time : int;
  mutable epoch_pid : int; (* -1 until the first engine write *)
  mutable epoch_seq : int;
  (* most recently issued serialized op's service window [begins, finish) *)
  mutable pend_begins : int;
  mutable pend_finish : int;
  mutable pend_pid : int;
  (* physical identity of the engine-installed value (raw-write check) *)
  mutable shadow : Obj.t;
}

type 'a cell = { mutable v : 'a; loc : loc }

(* Locations are allocated during (single-threaded) structure setup or
   inside the (single-threaded) simulator, so a plain counter is safe —
   this is engine-internal state, exempt from the effect discipline. *)
let next_loc_id = ref 0

type config = {
  read_latency : int;  (** cycles for an atomic read *)
  write_latency : int; (** cycles for an atomic write (serializing) *)
  rmw_latency : int;   (** cycles for swap / CAS / fetch&add (serializing) *)
  reads_serialize : bool;
      (** if true, reads also queue on the location (no read sharing) *)
}

let default_config =
  { read_latency = 6; write_latency = 8; rmw_latency = 12;
    reads_serialize = false }

(* Model-sensitivity variant: reads queue like writes, as on a machine
   with no caching of shared lines.  Used by the `model` benchmark to
   show the reported shapes do not hinge on the read-sharing
   assumption. *)
let serialized_reads_config = { default_config with reads_serialize = true }

(* A near-zero-cost configuration: every operation takes one cycle
   (writes/RMWs still serialize per location).  Used by tests that care
   about ordering and algorithmic correctness rather than timing. *)
let uniform_config =
  { read_latency = 1; write_latency = 1; rmw_latency = 1;
    reads_serialize = false }

let cell v =
  let id = !next_loc_id in
  incr next_loc_id;
  {
    v;
    loc =
      {
        id;
        busy_until = 0;
        epoch_time = min_int;
        epoch_pid = -1;
        epoch_seq = -1;
        pend_begins = min_int;
        pend_finish = min_int;
        pend_pid = -1;
        shadow = Obj.repr v;
      };
  }

(* The allocation watermark.  Ids are process-global, so anything that
   wants run-stable location identities (the fault injector's hot-spot
   hashing) must work relative to this. *)
let loc_count () = !next_loc_id

(* ------------------------------------------------------------------ *)
(* Analysis hooks                                                      *)
(* ------------------------------------------------------------------ *)

(* Callbacks observing engine-level operations.  [on_issue] fires when
   a serialized op is issued, BEFORE the location's pending-window
   stamp is overwritten, so the observer can compare the new window
   against the previous one (the scheduler self-check).  [on_read] and
   [on_commit] fire at the operation's completion event, after the
   [clean] raw-write check but before (commit) stamps are refreshed. *)
type tracer = {
  on_read :
    loc -> pid:int -> issued:int -> fired:int -> serialized:bool ->
    clean:bool -> unit;
  on_issue : loc -> pid:int -> now:int -> begins:int -> finish:int -> unit;
  on_commit : loc -> pid:int -> time:int -> clean:bool -> unit;
}

let tracer : tracer option ref = ref None

(* True iff the cell's current value is (physically) the one the engine
   last installed: a mismatch means a raw [c.v <- x] bypassed the
   effect discipline.  Physical identity is the same criterion the
   engines' CAS uses; a raw write that reinstalls the identical value
   is invisible, which is the usual soundness/completeness trade of a
   dynamic detector (no false positives, idempotent raw writes are
   missed). *)
let shadow_clean c = Obj.repr c.v == c.loc.shadow

(* Stamp a committed engine-level mutation: refresh the shadow and the
   last-writer epoch. *)
let commit_stamp c ~pid ~time ~seq =
  c.loc.shadow <- Obj.repr c.v;
  c.loc.epoch_time <- time;
  c.loc.epoch_pid <- pid;
  c.loc.epoch_seq <- seq

(* Stamp a serialized operation's service window at issue time (called
   by the scheduler after [on_issue]). *)
let issue_stamp loc ~pid ~begins ~finish =
  loc.pend_begins <- begins;
  loc.pend_finish <- finish;
  loc.pend_pid <- pid
