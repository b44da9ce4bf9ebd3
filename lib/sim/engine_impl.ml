(* The simulator's implementation of [Engine.S].

   Every primitive performs one scheduler effect, and the effect is the
   operation itself ([Scheduler.Get], [Set], [Exchange], [Cas], [Faa] or
   [Delay]).  The scheduler's handler charges it according to the run's
   {!Memory.config} and parks the processor in its event slot;
   [Scheduler.apply] runs the operation when its event fires, keeping
   the analysis stamps of {!Memory} up to date.  All of these must be
   called from inside a processor body passed to [Sim.run]; calling a
   memory operation elsewhere raises [Failure]. *)

type 'a cell = 'a Memory.cell

let cell = Memory.cell

let get c = Scheduler.perform (Scheduler.Get c)
let set c x = Scheduler.perform (Scheduler.Set (c, x))
let exchange c x = Scheduler.perform (Scheduler.Exchange (c, x))

let compare_and_set c expected desired =
  Scheduler.perform (Scheduler.Cas (c, expected, desired))

let fetch_and_add c k = Scheduler.perform (Scheduler.Faa (c, k))

let pid () = (Scheduler.the_sched ()).current
let nprocs () = (Scheduler.the_sched ()).nprocs

let delay n = if n > 0 then Effect.perform (Scheduler.Delay n)
let cpu_relax () = Effect.perform (Scheduler.Delay 1)

let random_int n =
  let t = Scheduler.the_sched () in
  Engine.Splitmix.int t.rngs.(t.current) n

let random_bernoulli ~num ~den =
  let t = Scheduler.the_sched () in
  Engine.Splitmix.bernoulli t.rngs.(t.current) ~num ~den

let now () = (Scheduler.the_sched ()).clock
