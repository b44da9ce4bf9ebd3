(* The discrete-event scheduler at the heart of the simulator.

   Each simulated processor is an OCaml 5 effect-handler coroutine.  A
   processor runs its OCaml code instantaneously (local computation is
   charged explicitly through [Delay]) until it performs a shared-memory
   effect; the handler then computes the operation's completion time —
   including any queueing behind earlier operations on the same location
   — and parks the continuation in the event heap.  The main loop pops
   events in (time, insertion) order, so the whole machine is a
   deterministic function of the seed.

   An operation's side effect ({!apply}) executes when its event fires,
   not when it is issued: operations therefore linearize in
   completion-time order, and per-location serialization (see {!Memory})
   guarantees that two operations on one location never reorder.

   One slot per processor.  A processor is suspended on at most one
   effect at a time, so it has at most one pending event.  Each
   processor therefore owns one mutable {!slot}, allocated once in
   {!run}, which carries its pending event: what to do when it fires
   ([Start], [Wake k] or [Resume (k, op)]) and the trace fields of the
   operation in flight.  The heap's payload is the slot itself, and
   {!fire} and {!abort} are top-level functions matching on it, so an
   event costs no record and no per-event closures beyond the
   effect-handler mechanism itself.  A slot's pending state is cleared
   before its continuation is resumed or unwound, because the processor
   may park its next event in the same slot before that call returns.

   The typed-op contract.  The engine's operations are the effects
   themselves ([Get], [Set], [Exchange], [Cas], [Faa]): the handler
   derives location, latency and trace kind from the operation and the
   run's {!Memory.config}, and {!apply} runs the operation when its
   event fires. *)

exception Aborted
(* Raised inside a simulated processor when the run hits [abort_after]. *)

type _ Effect.t +=
  | Get : 'a Memory.cell -> 'a Effect.t
  | Set : 'a Memory.cell * 'a -> unit Effect.t
  | Exchange : 'a Memory.cell * 'a -> 'a Effect.t
  | Cas : 'a Memory.cell * 'a * 'a -> bool Effect.t
  | Faa : int Memory.cell * int -> int Effect.t
  | Delay : int -> unit Effect.t  (* local computation / spin-waiting *)

(* Controlled scheduling (etrees.check).  A controller takes over every
   scheduling decision: instead of firing events in (time, seq) order,
   each processor's single pending event stays parked in its slot,
   local steps (proc starts, delays) are fired eagerly, and whenever
   every live processor is parked on a shared-memory access the
   controller picks which one commits next.  Each decision commits
   exactly one access, so the chosen pid sequence fully determines the
   interleaving — the substrate for the stateless model checker in
   lib/check. *)

type access_kind = Acc_read | Acc_write | Acc_rmw

type access = { acc_loc : Memory.loc; acc_kind : access_kind }

type choice = Fire of int | Quit

type controller = (int * access) list -> choice

(* Fault injection (etrees.faults).  The injector is consulted at three
   points: before any processor event fires (stall/crash), when a
   memory operation's service cost is computed (hot spots), and when a
   [Delay] is issued (jitter).  All hooks must be pure, so that a run
   remains a deterministic function of (seed, plan). *)

type fault_action = Fault_proceed | Fault_defer of int | Fault_drop

type injector = {
  on_event : pid:int -> time:int -> fault_action;
  mem_latency : loc:Memory.loc -> pid:int -> now:int -> base:int -> int;
  delay_jitter : pid:int -> now:int -> base:int -> int;
}

let no_injector =
  {
    on_event = (fun ~pid:_ ~time:_ -> Fault_proceed);
    mem_latency = (fun ~loc:_ ~pid:_ ~now:_ ~base -> base);
    delay_jitter = (fun ~pid:_ ~now:_ ~base:_ -> 0);
  }

open Effect.Deep

(* What a processor's pending event does when it fires. *)
type pending =
  | Idle  (* no pending event: running, finished or unwound *)
  | Start  (* run the body from the top *)
  | Wake : (unit, unit) continuation -> pending  (* a [Delay] elapsed *)
  | Resume : ('a, unit) continuation * 'a Effect.t -> pending
      (* a memory operation completes: apply it, resume with its result *)

type slot = {
  pid : int;
  mutable pending : pending;
  mutable time : int;  (* when the pending event fires *)
  mutable seq : int;  (* scheduler seq at issue: the commit's epoch *)
  (* trace fields of the event in flight; a delay uses [issued] and
     [finish] only *)
  mutable issued : int;
  mutable begins : int;
  mutable finish : int;
  mutable kind : Etrace.Event.mem_kind;
  mutable loc_id : int;
}

type t = {
  nprocs : int;
  config : Memory.config;
  body : int -> unit;
  heap : slot Event_heap.t;
  slots : slot array;
  rngs : Engine.Splitmix.t array;
  injector : injector option;
  controller : controller option;
  mutable clock : int;
  mutable seq : int;
  mutable live : int;
  mutable current : int;
  mutable events_fired : int;
  mutable aborted : int;
  mutable crashed : int;
  mutable fault_defers : int;
  mutable op_reads : int;  (* engine-level operation counters *)
  mutable op_writes : int;
  mutable op_rmws : int;
  mutable queue_wait : int; (* cycles serialized ops spent queueing *)
}

type stats = {
  end_clock : int;
  events_fired : int;
  aborted_procs : int;
  crashed_procs : int;
  fault_defers : int;
  reads : int;
  writes : int;
  rmws : int;
  queue_wait_cycles : int;
}

(* The running scheduler.  The simulator is strictly single-threaded (one
   OS thread multiplexes all simulated processors), so a plain ref is
   safe; it is saved and restored across nested runs. *)
let active : t option ref = ref None

let the_sched () =
  match !active with
  | Some t -> t
  | None ->
      failwith
        "Sim: a simulated-engine operation was performed outside Sim.run"

let perform eff =
  ignore (the_sched ());
  Effect.perform eff

(* Park [s]'s next event: into the heap normally, left in the slot
   under a controller.  The event's heap key is [(time, t.seq)]. *)
let park t s ~time pending =
  assert (match s.pending with Idle -> true | _ -> false);
  s.pending <- pending;
  s.time <- time;
  s.seq <- t.seq;
  (match t.controller with
  | None -> Event_heap.push t.heap ~time ~seq:t.seq s
  | Some _ -> ());
  t.seq <- t.seq + 1

(* Re-queue a stalled event unchanged at [time] (injector runs only). *)
let requeue t s ~time =
  s.time <- time;
  Event_heap.push t.heap ~time ~seq:t.seq s;
  t.seq <- t.seq + 1

(* Fault-adjusted service cost of a memory operation on [loc] issued
   now by the current processor. *)
let faulted_latency t ~loc ~base =
  match t.injector with
  | None -> base
  | Some inj ->
      let l = inj.mem_latency ~loc ~pid:t.current ~now:t.clock ~base in
      if l < 1 then 1 else l

(* Issue a delay of [n] cycles: fix its wake-up time in the slot. *)
let issue_delay t s n =
  let n = if n < 1 then 1 else n in
  let n =
    match t.injector with
    | None -> n
    | Some inj ->
        let j = inj.delay_jitter ~pid:t.current ~now:t.clock ~base:n in
        if j > 0 then n + j else n
  in
  s.issued <- t.clock;
  s.finish <- t.clock + n

(* Issue a read that does not serialize: fixed latency, no queueing. *)
let issue_read t s (loc : Memory.loc) =
  let latency = faulted_latency t ~loc ~base:t.config.read_latency in
  s.issued <- t.clock;
  s.begins <- t.clock;
  s.finish <- t.clock + latency;
  s.kind <- Etrace.Event.Read;
  s.loc_id <- loc.id

(* Issue a serialized operation: it queues behind [loc.busy_until]. *)
let issue_serialized t s (loc : Memory.loc) ~base kind =
  let latency = faulted_latency t ~loc ~base in
  let begins = if loc.busy_until > t.clock then loc.busy_until else t.clock in
  let finish = begins + latency in
  t.queue_wait <- t.queue_wait + (begins - t.clock);
  (* Analysis hook: observe the new service window while [loc]'s
     pending stamp still describes the previous one (overlap would
     mean a broken busy-until chain), then stamp. *)
  (match !Memory.tracer with
  | Some tr -> tr.on_issue loc ~pid:t.current ~now:t.clock ~begins ~finish
  | None -> ());
  Memory.issue_stamp loc ~pid:t.current ~begins ~finish;
  loc.busy_until <- finish;
  s.issued <- t.clock;
  s.begins <- begins;
  s.finish <- finish;
  s.kind <- kind;
  s.loc_id <- loc.id

let issue_rmw t s loc =
  t.op_rmws <- t.op_rmws + 1;
  issue_serialized t s loc ~base:t.config.rmw_latency Etrace.Event.Rmw

let trace_read t (c : _ Memory.cell) ~pid ~issued =
  match !Memory.tracer with
  | Some tr ->
      tr.on_read c.loc ~pid ~issued ~fired:t.clock
        ~serialized:t.config.reads_serialize ~clean:(Memory.shadow_clean c)
  | None -> ()

let trace_commit t (c : _ Memory.cell) ~pid ~clean =
  match !Memory.tracer with
  | Some tr -> tr.on_commit c.loc ~pid ~time:t.clock ~clean
  | None -> ()

(* Install [x] as a committed engine-level write of [s]'s operation. *)
let write t s (c : _ Memory.cell) x =
  c.v <- x;
  Memory.commit_stamp c ~pid:s.pid ~time:t.clock ~seq:s.seq

(* Run a memory operation at its completion event.  The [clean]
   raw-write check precedes the operation's own mutation, and committed
   mutations refresh the cell's stamps before the tracer sees them. *)
let apply : type a. t -> slot -> a Effect.t -> a =
 fun t s eff ->
  let pid = s.pid in
  match eff with
  | Get c ->
      trace_read t c ~pid ~issued:s.issued;
      c.v
  | Set (c, x) ->
      let clean = Memory.shadow_clean c in
      write t s c x;
      trace_commit t c ~pid ~clean
  | Exchange (c, x) ->
      let clean = Memory.shadow_clean c in
      let old = c.v in
      write t s c x;
      trace_commit t c ~pid ~clean;
      old
  | Cas (c, expected, desired) ->
      let clean = Memory.shadow_clean c in
      let won = c.v == expected in
      if won then write t s c desired;
      trace_commit t c ~pid ~clean;
      won
  | Faa (c, k) ->
      let clean = Memory.shadow_clean c in
      let old = c.v in
      write t s c (old + k);
      trace_commit t c ~pid ~clean;
      old
  | _ -> invalid_arg "Scheduler.apply: not a memory operation"

(* The access a parked memory operation will commit (controller mode). *)
let access_of : type a. a Effect.t -> access = function
  | Get c -> { acc_loc = c.loc; acc_kind = Acc_read }
  | Set (c, _) -> { acc_loc = c.loc; acc_kind = Acc_write }
  | Exchange (c, _) -> { acc_loc = c.loc; acc_kind = Acc_rmw }
  | Cas (c, _, _) -> { acc_loc = c.loc; acc_kind = Acc_rmw }
  | Faa (c, _) -> { acc_loc = c.loc; acc_kind = Acc_rmw }
  | _ -> invalid_arg "Scheduler.access_of: not a memory operation"

(* The hand-offs park the suspended processor until the completion time
   its issue step fixed in [s.finish].  A memory operation's hand-off
   closes over the operation, so it is built per event; a delay's is
   built once per processor (see {!start}). *)
let resume t s eff = Some (fun k -> park t s ~time:s.finish (Resume (k, eff)))
let wake t s k = park t s ~time:s.finish (Wake k)

(* The effect clause of processor [s].  [on_delay] is its delay
   hand-off, built once per processor. *)
let handle : type b.
    t ->
    slot ->
    ((unit, unit) continuation -> unit) option ->
    b Effect.t ->
    ((b, unit) continuation -> unit) option =
 fun t s on_delay eff ->
  match eff with
  | Delay n ->
      issue_delay t s n;
      on_delay
  | Get c ->
      t.op_reads <- t.op_reads + 1;
      if t.config.reads_serialize then
        issue_serialized t s c.loc ~base:t.config.read_latency
          Etrace.Event.Read
      else issue_read t s c.loc;
      resume t s eff
  | Set (c, _) ->
      t.op_writes <- t.op_writes + 1;
      issue_serialized t s c.loc ~base:t.config.write_latency
        Etrace.Event.Write;
      resume t s eff
  | Exchange (c, _) ->
      issue_rmw t s c.loc;
      resume t s eff
  | Cas (c, _, _) ->
      issue_rmw t s c.loc;
      resume t s eff
  | Faa (c, _) ->
      issue_rmw t s c.loc;
      resume t s eff
  | _ -> None

(* Install processor [s]'s handler and run its body from the top.  The
   handler, its clauses and the delay hand-off are built once per
   processor. *)
let start t s =
  let p = s.pid in
  let on_delay = Some (fun k -> wake t s k) in
  let handler =
    {
      retc =
        (fun () ->
          t.live <- t.live - 1;
          if Etrace.on Etrace.lv_ops then
            Etrace.emit
              (Etrace.Event.Proc_end
                 { pid = p; time = t.clock; reason = Etrace.Event.Finished }));
      exnc =
        (fun e ->
          t.live <- t.live - 1;
          match e with
          (* An unwound processor whose cleanup performed an engine op
             sees that op aborted too; [Fun.protect] reports it as
             [Finally_raised]. *)
          | Aborted | Fun.Finally_raised Aborted ->
              t.aborted <- t.aborted + 1;
              if Etrace.on Etrace.lv_ops then
                Etrace.emit
                  (Etrace.Event.Proc_end
                     { pid = p; time = t.clock; reason = Etrace.Event.Aborted })
          | e -> raise e);
      effc = (fun eff -> handle t s on_delay eff);
    }
  in
  t.current <- p;
  if Etrace.on Etrace.lv_ops then
    Etrace.emit (Etrace.Event.Proc_start { pid = p; time = t.clock });
  match_with t.body p handler

(* Fire [s]'s pending event at the current clock. *)
let fire t s =
  match s.pending with
  | Idle -> invalid_arg "Scheduler.fire: no pending event"
  | Start ->
      s.pending <- Idle;
      start t s
  | Wake k ->
      s.pending <- Idle;
      t.current <- s.pid;
      if Etrace.on Etrace.lv_full then
        Etrace.emit
          (Etrace.Event.Delay_done
             {
               pid = s.pid;
               issued = s.issued;
               planned = s.finish - s.issued;
               fired = t.clock;
             });
      continue k ()
  | Resume (k, eff) ->
      s.pending <- Idle;
      t.current <- s.pid;
      if Etrace.on Etrace.lv_full then
        Etrace.emit
          (Etrace.Event.Mem_op
             {
               pid = s.pid;
               kind = s.kind;
               loc = s.loc_id;
               issued = s.issued;
               begins = s.begins;
               finish = s.finish;
               fired = t.clock;
             });
      continue k (apply t s eff)

(* Unwind [s]'s pending event: a processor that never started just
   leaves; a suspended one sees {!Aborted} at its pending effect. *)
let abort t s =
  let pending = s.pending in
  s.pending <- Idle;
  match pending with
  | Idle -> invalid_arg "Scheduler.abort: no pending event"
  | Start -> t.live <- t.live - 1
  | Wake k -> discontinue k Aborted
  | Resume (k, _) -> discontinue k Aborted

(* Process-cumulative counters across every completed [run] — the
   deterministic odometer the benchmark meta probe (Report.Meta) reads
   around each experiment.  Updated once per run, on the normal return
   path, so the hot loop pays nothing. *)
type totals = { t_events : int; t_reads : int; t_writes : int; t_rmws : int }

let grand = ref { t_events = 0; t_reads = 0; t_writes = 0; t_rmws = 0 }
let totals () = !grand

(* Run [procs] simulated processors, each executing [body pid], until
   every processor terminates or the clock passes [abort_after] (at which
   point the remaining processors are unwound with {!Aborted}).  With an
   [injector], every processor event is submitted to it first: deferred
   events are re-queued at the stall's end, and dropped events
   crash-stop their processor — the parked continuation is discarded
   without unwinding, so cleanup code never runs and any held lock
   stays held, which is exactly crash-stop semantics. *)
let run ?(seed = 0x5eed) ?(config = Memory.default_config) ?abort_after
    ?injector ?controller ~procs body =
  if procs <= 0 then invalid_arg "Sim.run: procs must be positive";
  if Option.is_some injector && Option.is_some controller then
    invalid_arg "Sim.run: a controller cannot be combined with an injector";
  let base = Engine.Splitmix.of_int seed in
  let t =
    {
      nprocs = procs;
      config;
      body;
      heap = Event_heap.create ();
      slots =
        Array.init procs (fun pid ->
            {
              pid;
              pending = Idle;
              time = 0;
              seq = 0;
              issued = 0;
              begins = 0;
              finish = 0;
              kind = Etrace.Event.Read;
              loc_id = -1;
            });
      rngs = Array.init procs (fun i -> Engine.Splitmix.split base ~index:i);
      injector;
      controller;
      clock = 0;
      seq = 0;
      live = procs;
      current = 0;
      events_fired = 0;
      aborted = 0;
      crashed = 0;
      fault_defers = 0;
      op_reads = 0;
      op_writes = 0;
      op_rmws = 0;
      queue_wait = 0;
    }
  in
  let prev = !active in
  active := Some t;
  Fun.protect ~finally:(fun () -> active := prev) @@ fun () ->
  for p = 0 to procs - 1 do
    park t t.slots.(p) ~time:0 Start
  done;
  let horizon = match abort_after with Some h -> h | None -> max_int in
  (* Controlled mode: the controller, not the clock, decides firing
     order.  Local steps (starts and delays) are not scheduling
     decisions and fire eagerly in pid order; once every live processor
     is parked on a shared-memory access, the controller picks the one
     that commits next.  [Quit] (or the horizon) unwinds every parked
     processor. *)
  let ctl_loop choose =
    let overran = ref false in
    let fire_parked s =
      if s.time > horizon then begin
        overran := true;
        abort t s
      end
      else begin
        if s.time > t.clock then t.clock <- s.time;
        t.events_fired <- t.events_fired + 1;
        fire t s
      end
    in
    let rec settle () =
      let progressed = ref false in
      for p = 0 to t.nprocs - 1 do
        let s = t.slots.(p) in
        match s.pending with
        | (Start | Wake _) when not !overran ->
            progressed := true;
            fire_parked s
        | _ -> ()
      done;
      if !progressed then settle ()
    in
    let rec drain () =
      (* Unwinding a processor can park (then require unwinding) new
         events, so iterate to a fixpoint. *)
      let any = ref false in
      for p = 0 to t.nprocs - 1 do
        let s = t.slots.(p) in
        match s.pending with
        | Idle -> ()
        | _ ->
            any := true;
            abort t s
      done;
      if !any then drain ()
    in
    let rec step () =
      settle ();
      if !overran then drain ()
      else begin
        let runnable = ref [] in
        for p = t.nprocs - 1 downto 0 do
          match t.slots.(p).pending with
          | Resume (_, eff) -> runnable := (p, access_of eff) :: !runnable
          | Start | Wake _ -> assert false
          | Idle -> ()
        done;
        match !runnable with
        | [] -> () (* every processor finished *)
        | rs -> (
            match choose rs with
            | Quit -> drain ()
            | Fire p ->
                let s = t.slots.(p) in
                (match s.pending with
                | Resume _ -> fire_parked s
                | _ ->
                    invalid_arg
                      "Sim controller: chose a processor with no pending \
                       access");
                step ())
      end
    in
    step ()
  in
  (* The step loop pairs [min_time] with [pop_min] instead of [pop]:
     no option, no tuple, zero allocation per event (@allocheck). *)
  let rec loop () =
    if not (Event_heap.is_empty t.heap) then begin
      let time = Event_heap.min_time t.heap in
      let s = Event_heap.pop_min t.heap in
      if time > horizon then begin
        abort t s;
        Event_heap.drain t.heap (fun _ _ s -> abort t s)
      end
      else begin
        let action =
          match t.injector with
          | None -> Fault_proceed
          | Some inj -> inj.on_event ~pid:s.pid ~time
        in
        (match action with
        | Fault_proceed ->
            t.clock <- time;
            t.events_fired <- t.events_fired + 1;
            fire t s
        | Fault_defer until ->
            t.fault_defers <- t.fault_defers + 1;
            let until = if until <= time then time + 1 else until in
            if Etrace.on Etrace.lv_ops then
              Etrace.emit
                (Etrace.Event.Fault_stall { pid = s.pid; time; until });
            requeue t s ~time:until
        | Fault_drop ->
            (* Crash-stop: the processor's sole pending event dies and
               with it the processor; the continuation is dropped
               unresumed, so no cleanup handlers run. *)
            s.pending <- Idle;
            t.clock <- time;
            t.live <- t.live - 1;
            t.crashed <- t.crashed + 1;
            if Etrace.on Etrace.lv_ops then begin
              Etrace.emit (Etrace.Event.Fault_crash { pid = s.pid; time });
              Etrace.emit
                (Etrace.Event.Proc_end
                   { pid = s.pid; time; reason = Etrace.Event.Crashed })
            end);
        loop ()
      end
    end
  in
  (match controller with Some c -> ctl_loop c | None -> loop ());
  assert (t.live = 0);
  grand :=
    {
      t_events = !grand.t_events + t.events_fired;
      t_reads = !grand.t_reads + t.op_reads;
      t_writes = !grand.t_writes + t.op_writes;
      t_rmws = !grand.t_rmws + t.op_rmws;
    };
  {
    end_clock = t.clock;
    events_fired = t.events_fired;
    aborted_procs = t.aborted;
    crashed_procs = t.crashed;
    fault_defers = t.fault_defers;
    reads = t.op_reads;
    writes = t.op_writes;
    rmws = t.op_rmws;
    queue_wait_cycles = t.queue_wait;
  }
