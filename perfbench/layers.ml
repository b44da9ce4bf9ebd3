(* Isolated host-time probes, one per layer: each calls the layer's
   public functions in a loop on its own and reports host ns per call.
   Inside a simulated workload a host span around an operation would
   include every other processor's work (the coroutine suspends on each
   effect), so layer host costs are measured here, apart, and
   reconciled against the workload's event counts (see [residual]). *)

module E = Sim.Engine
module H = Sim.Event_heap

let ops = 200_000

(* Push+pop pairs on an event heap held at [n] entries; keys advance by
   a fixed pseudo-random stride, as simulated completion times do. *)
let heap_push_pop n =
  let h = H.create () in
  for i = 0 to n - 1 do
    H.push h ~time:(i * 7) ~seq:i ()
  done;
  let seq = ref n in
  Measure.ns_per_op ~ops (fun () ->
      for _ = 1 to ops do
        let t = H.min_time h in
        H.pop_min h;
        incr seq;
        H.push h ~time:(t + 1 + ((!seq * 7919) land 1023)) ~seq:!seq ()
      done)

(* [procs] simulated processors sharing [ops] engine operations. *)
let engine_loop ?(procs = 1) body =
  Measure.ns_per_op ~ops (fun () ->
      ignore (Sim.run ~seed:1 ~procs (fun pid -> body pid (ops / procs))))

let delay_ns () =
  engine_loop (fun _ n ->
      for _ = 1 to n do
        E.delay 1
      done)

let read_ns () =
  let c = E.cell 0 in
  engine_loop (fun _ n ->
      for _ = 1 to n do
        ignore (E.get c)
      done)

let rmw_procs = 16

let rmw_hot_ns () =
  let c = E.cell 0 in
  engine_loop ~procs:rmw_procs (fun _ n ->
      for _ = 1 to n do
        ignore (E.fetch_and_add c 1)
      done)

let rmw_cold_ns () =
  let cells = Array.init rmw_procs (fun _ -> E.cell 0) in
  engine_loop ~procs:rmw_procs (fun pid n ->
      for _ = 1 to n do
        ignore (E.fetch_and_add cells.(pid) 1)
      done)

(* A trace emission site with no sink installed. *)
let guard_off_ns () =
  let hits = ref 0 in
  let n = 10 * ops in
  Measure.ns_per_op ~ops:n (fun () ->
      for _ = 1 to n do
        if Etrace.on Etrace.lv_events then incr hits
      done;
      ignore (Sys.opaque_identity !hits))

(* One processor alone on a root balancer of Etree-32: every traversal
   misses on each prism, spins, and passes the token toggle. *)
let traverse_ns () =
  let module B = Core.Elim_balancer.Make (E) in
  let level = (Core.Tree_config.etree 32).Core.Tree_config.levels.(0) in
  let b =
    B.create ~id:0 ~prism_widths:level.Core.Tree_config.prism_widths
      ~spin:level.Core.Tree_config.spin
      ~location:(B.make_location ~capacity:1)
      ()
  in
  engine_loop (fun _ n ->
      for _ = 1 to n do
        ignore (B.traverse b ~kind:Core.Location.Token ~value:(Some 1))
      done)

(* Arrival-schedule generation, per session (two requests each). *)
let arrivals_gen_ns () =
  let regime = Simwork.service_regime () in
  let sessions = 2_000 in
  Measure.ns_per_op ~ops:sessions (fun () ->
      Simwork.arrival_schedule ~seed:1 ~sessions regime)

(* Native single-domain costs, each measured on a fresh domain that
   returns its engine pid when done. *)
let native_ops = 2_000
let capacity = 2  (* engine pids: the probe domain, plus one spare *)
let () = Engine.Native.set_capacity capacity

let on_domain f =
  Domain.join
    (Domain.spawn (fun () ->
         let r = f () in
         Engine.Native.release_pid ();
         r))

let native_stack_ns () =
  on_domain (fun () ->
      let s = Native.Elim_stack.create ~capacity ~width:4 () in
      Measure.ns_per_op ~ops:native_ops (fun () ->
          for i = 1 to native_ops do
            Native.Elim_stack.push s i;
            ignore (Native.Elim_stack.pop s)
          done))

let native_pool_ns () =
  on_domain (fun () ->
      let p = Native.Elim_pool.create ~capacity ~width:4 () in
      Measure.ns_per_op ~ops:native_ops (fun () ->
          for i = 1 to native_ops do
            Native.Elim_pool.enqueue p i;
            ignore (Native.Elim_pool.dequeue p)
          done))

let cas_ns () =
  let c = Engine.Native.cell 0 in
  let n = 10 * ops in
  Measure.ns_per_op ~ops:n (fun () ->
      for i = 1 to n do
        ignore (Engine.Native.compare_and_set c (i - 1) i)
      done;
      Engine.Native.set c 0)

(* Host calibration: the fixed kernel of [Measure.calib_kernel], so
   readers can tell machine drift from code change. *)
let calib_ns () =
  Measure.ns_per_op ~ops:(16 * Measure.calib_steps) (fun () ->
      Measure.calib_kernel 16)

type sim_costs = {
  heap_small : float;  (** push+pop at the one-entry heap of a lone proc *)
  heap_256 : float;
  heap_4096 : float;
  delay : float;
  read : float;
  rmw_hot : float;
  rmw_cold : float;
}

let sim_costs () =
  {
    heap_small = heap_push_pop 1;
    heap_256 = heap_push_pop 256;
    heap_4096 = heap_push_pop 4096;
    delay = delay_ns ();
    read = read_ns ();
    rmw_hot = rmw_hot_ns ();
    rmw_cold = rmw_cold_ns ();
  }

(* The share of a workload's measured host ns/event that the isolated
   layer costs do not explain.  Model: every read costs [read], every
   write or RMW [rmw_cold], every other event (delays, starts) [delay];
   each isolated cost includes one push+pop on a near-empty heap, so
   every event adds the heap's extra depth at 256 pending events. *)
let residual c ~(mem : Sim.stats) ~wall_s =
  let f = float_of_int in
  let serialized = mem.Sim.writes + mem.Sim.rmws in
  let other = max 0 (mem.Sim.events_fired - mem.Sim.reads - serialized) in
  let predicted =
    (f mem.Sim.reads *. c.read)
    +. (f serialized *. c.rmw_cold)
    +. (f other *. c.delay)
    +. (f mem.Sim.events_fired *. (c.heap_256 -. c.heap_small))
  in
  let measured = wall_s *. 1e9 in
  100.0 *. (measured -. predicted) /. measured
