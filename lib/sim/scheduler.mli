(** The discrete-event scheduler at the heart of the simulator.

    Each simulated processor is an effect-handler coroutine; a
    shared-memory effect parks its continuation in the event heap at
    its completion time (queueing behind earlier operations on the same
    location, see {!Memory}), and the main loop fires events in
    (time, insertion) order — making runs deterministic functions of
    the seed.  An operation's side effect runs when its event fires, so
    operations linearize in completion-time order.

    A processor is suspended on at most one effect at a time, so each
    owns exactly one reusable event {!slot}, allocated once per run;
    the heap's payload is the slot, and firing or unwinding an event
    allocates no scheduler bookkeeping.

    This module is the simulator's engine room; user code should go
    through [Sim.run] and [Sim.Engine]. *)

exception Aborted
(** Raised inside a simulated processor cut off by [abort_after]. *)

(** The typed-op contract: each engine operation is its own effect.
    The handler derives the location, the latency (from the run's
    {!Memory.config}) and the trace kind from the operation, and
    {!apply} runs it when its event fires. *)
type _ Effect.t +=
  | Get : 'a Memory.cell -> 'a Effect.t
        (** an atomic read: fixed latency and no queueing, unless the
            config serializes reads *)
  | Set : 'a Memory.cell * 'a -> unit Effect.t
        (** a write: queues behind [loc.busy_until] *)
  | Exchange : 'a Memory.cell * 'a -> 'a Effect.t  (** an RMW, queues *)
  | Cas : 'a Memory.cell * 'a * 'a -> bool Effect.t
        (** an RMW (physical equality), queues *)
  | Faa : int Memory.cell * int -> int Effect.t  (** an RMW, queues *)
  | Delay : int -> unit Effect.t  (** local computation / spin-waiting *)

val perform : 'a Effect.t -> 'a
(** [Effect.perform], but raises [Failure] outside a run. *)

type slot
(** One processor's reusable event slot: its single pending event and
    the trace fields of the operation in flight. *)

(** {1 Controlled scheduling (etrees.check)}

    A {!controller} takes over every scheduling decision, turning the
    simulator into the substrate for a stateless model checker: each
    processor's single pending event stays in its slot instead of in
    the time heap, local steps (proc starts, delays) fire eagerly in
    pid order, and whenever every live processor is parked
    on a shared-memory access the controller picks which one commits
    next.  Each decision commits exactly one access, so the chosen pid
    sequence fully determines the interleaving — runs are replayable
    from the pid sequence alone. *)

type access_kind = Acc_read | Acc_write | Acc_rmw

type access = { acc_loc : Memory.loc; acc_kind : access_kind }
(** The shared-memory access a parked processor will commit next.  The
    location's epoch stamps (see {!Memory.loc}) let a controller detect
    unchanged-location polling. *)

type choice =
  | Fire of int  (** commit this processor's pending access *)
  | Quit         (** stop: unwind every parked processor with {!Aborted} *)

type controller = (int * access) list -> choice
(** Called with the runnable processors (increasing pid order), each
    with its pending access; never called with an empty list.  Must be
    a pure host-level function: it runs outside any processor and may
    not perform engine effects. *)

(** {1 Fault injection (etrees.faults)}

    An {!injector} is the scheduler-side surface of a fault plan (see
    [Faults.Fault_plan]).  All three hooks must be pure functions of
    their arguments so that a run under an injector remains a
    deterministic function of [(seed, plan)]. *)

type fault_action =
  | Fault_proceed            (** no fault: fire the event now *)
  | Fault_defer of int       (** processor stalled: refire at this time *)
  | Fault_drop               (** crash-stop: the event (and with it the
                                 processor) is silently discarded *)

type injector = {
  on_event : pid:int -> time:int -> fault_action;
      (** consulted every time one of [pid]'s events is about to fire *)
  mem_latency : loc:Memory.loc -> pid:int -> now:int -> base:int -> int;
      (** service-cost multiplier hook (hot spots, latency spikes);
          must return [>= base >= 1]'s spirit — values [< 1] are
          clamped to 1 *)
  delay_jitter : pid:int -> now:int -> base:int -> int;
      (** extra cycles added to a [Delay base] issued at [now] *)
}

val no_injector : injector
(** The identity injector: proceeds, never scales, never jitters. *)

type t = {
  nprocs : int;
  config : Memory.config;
  body : int -> unit;  (** every processor runs [body pid] *)
  heap : slot Event_heap.t;  (** unused under a controller *)
  slots : slot array;  (** one per processor, indexed by pid *)
  rngs : Engine.Splitmix.t array;
  injector : injector option;
  controller : controller option;
  mutable clock : int;
  mutable seq : int;
  mutable live : int;
  mutable current : int; (** pid of the processor now executing *)
  mutable events_fired : int;
  mutable aborted : int;
  mutable crashed : int;      (** processors crash-stopped by the injector *)
  mutable fault_defers : int; (** events postponed by stalls *)
  mutable op_reads : int;  (** engine-level operation counters *)
  mutable op_writes : int;
  mutable op_rmws : int;
  mutable queue_wait : int;
      (** cycles serialized operations spent queueing behind busy
          locations — the simulator's aggregate hot-spot cost *)
}

type stats = {
  end_clock : int;
  events_fired : int;
  aborted_procs : int;
  crashed_procs : int;  (** crash-stopped by the fault injector *)
  fault_defers : int;   (** events postponed by injected stalls *)
  reads : int;   (** atomic reads issued *)
  writes : int;  (** atomic writes issued *)
  rmws : int;    (** swaps / CASes / fetch&adds issued *)
  queue_wait_cycles : int;
      (** total cycles serialized operations queued behind busy
          locations *)
}

val the_sched : unit -> t
(** The running scheduler; raises [Failure] outside a run. *)

type totals = { t_events : int; t_reads : int; t_writes : int; t_rmws : int }
(** Process-cumulative counters summed over every completed {!run} in
    this process — the deterministic odometer the benchmark meta probe
    snapshots around each experiment (docs/BENCHDB.md).  Runs that end
    abnormally (an escaping exception) are not counted. *)

val totals : unit -> totals

val run :
  ?seed:int ->
  ?config:Memory.config ->
  ?abort_after:int ->
  ?injector:injector ->
  ?controller:controller ->
  procs:int ->
  (int -> unit) ->
  stats
(** See [Sim.run].  [controller] and [injector] are mutually
    exclusive. *)
