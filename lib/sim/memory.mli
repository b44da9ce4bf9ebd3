(** Simulated shared memory with per-location contention.

    Writes and read-modify-writes issued at time [t] are serviced
    starting at [max t busy_until] of their location and advance it by
    their latency — so k simultaneous RMWs on one location cost
    Θ(k·latency), the hot-spot queueing the paper's constructions are
    designed around.  Reads are charged a fixed latency but do not
    serialize (they model cached / read-shared lines, the assumption
    behind local-spinning locks).

    Cells are read and mutated only by [Scheduler.apply], when an
    engine operation's event fires; each simulated processor has at
    most one operation in flight.  An operation's cost comes from the
    run's {!config} alone.

    Each location also carries analysis stamps — a last-writer epoch
    [(time, pid, seq)], the most recent serialized service window, and
    a shadow of the engine-installed value — kept up to date
    unconditionally so [Analysis.Race_detector] can hook a {!tracer} in
    at any time.  See docs/ANALYSIS.md. *)

type loc = {
  id : int;                   (** dense allocation index, for reports *)
  mutable busy_until : int;   (** serialization chain state *)
  mutable epoch_time : int;   (** last engine write: completion time *)
  mutable epoch_pid : int;    (** last engine write: pid (-1 = none) *)
  mutable epoch_seq : int;    (** last engine write: scheduler seq *)
  mutable pend_begins : int;  (** latest serialized window start *)
  mutable pend_finish : int;  (** latest serialized window end *)
  mutable pend_pid : int;     (** latest serialized issuer *)
  mutable shadow : Obj.t;     (** engine-installed value (physical) *)
}
(** Serialization and analysis state of one location. *)

type 'a cell = { mutable v : 'a; loc : loc }
(** A shared location.  Mutated only by the scheduler, at event-fire
    time; any other mutation breaks the effect discipline and is what
    the race detector exists to catch. *)

type config = {
  read_latency : int;  (** cycles for an atomic read *)
  write_latency : int; (** cycles for an atomic write (serializing) *)
  rmw_latency : int;   (** cycles for swap / CAS / fetch&add (serializing) *)
  reads_serialize : bool;
      (** if true, reads also queue on the location (no read sharing) *)
}

val default_config : config
(** 6 / 8 / 12 cycles — the Alewife-like defaults of DESIGN.md §6. *)

val uniform_config : config
(** Every operation one cycle, still serialized per location: for tests
    that care about ordering rather than timing. *)

val serialized_reads_config : config
(** The defaults but with reads queueing like writes — a machine with
    no read sharing of hot lines (model-sensitivity ablation). *)

val cell : 'a -> 'a cell
(** Allocate a fresh location (free of simulated cost). *)

val loc_count : unit -> int
(** The allocation watermark: locations ever allocated in this
    process.  Ids grow monotonically across runs, so consumers wanting
    run-stable identities (e.g. the fault injector's hot-spot hashing)
    subtract a watermark taken at setup time. *)

(** {1 Analysis hooks (etrees.analysis)} *)

type tracer = {
  on_read :
    loc -> pid:int -> issued:int -> fired:int -> serialized:bool ->
    clean:bool -> unit;
      (** a read completed; [clean] is the {!shadow_clean} verdict *)
  on_issue : loc -> pid:int -> now:int -> begins:int -> finish:int -> unit;
      (** a serialized op was issued — fires {e before} the pending
          window is overwritten, so [loc.pend_finish] still describes
          the previous operation *)
  on_commit : loc -> pid:int -> time:int -> clean:bool -> unit;
      (** a serialized op completed; [clean] as above, checked before
          the op's own mutation *)
}

val tracer : tracer option ref
(** The installed observer, if any.  Install/restore via
    [Analysis.Race_detector]; the simulator is single-threaded, so a
    plain ref is safe. *)

val shadow_clean : 'a cell -> bool
(** Whether the cell's value is (physically) the engine-installed one.
    [false] means a raw [c.v <- x] bypassed the effect discipline. *)

val commit_stamp : 'a cell -> pid:int -> time:int -> seq:int -> unit
(** Record a committed engine-level mutation (shadow + epoch). *)

val issue_stamp : loc -> pid:int -> begins:int -> finish:int -> unit
(** Record a serialized op's service window at issue time. *)
