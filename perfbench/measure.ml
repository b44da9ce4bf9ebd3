(* Host clocks, summary statistics and an allocation-light sample
   buffer shared by every workload and layer probe. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host ns per operation: [f ()] performs [ops] operations; the median
   over five timed calls, after one untimed warm-up call. *)
let ns_per_op ~ops f =
  f ();
  median
    (List.init 5 (fun _ ->
         let t0 = now_ns () in
         f ();
         float_of_int (now_ns () - t0) /. float_of_int ops))

(* The host calibration kernel: [rounds] rounds over a 4096-element
   array.  Each step of a round stores a pseudo-random integer in the
   array and toggles three pseudo-random keys in a fresh [Map]; each
   round ends by sorting the array in place.  About half its time is
   arithmetic over an array and half is allocation and pointer chasing,
   the two kinds of work the simulator does.  It is pure OCaml over the
   standard library and shares no code with the program under test, so
   its speed follows the host alone. *)
module Int_map = Map.Make (Int)

let calib_steps = 4096
let calib_array = Array.make calib_steps 0

let calib_kernel rounds =
  let a = calib_array in
  let x = ref 0x2545F491 in
  let next () =
    x := (!x lxor (!x lsl 13)) land 0x3FFFFFFF;
    x := !x lxor (!x lsr 7);
    !x
  in
  for _ = 1 to rounds do
    let m = ref Int_map.empty in
    for i = 0 to calib_steps - 1 do
      a.(i) <- next ();
      for _ = 1 to 3 do
        let k = next () land 0xFFFFF in
        m := if Int_map.mem k !m then Int_map.remove k !m else Int_map.add k i !m
      done
    done;
    ignore (Sys.opaque_identity !m);
    Array.sort Int.compare a
  done

(* Host ns per kernel step over one short slice of the kernel (two
   rounds, a few ms), timed once: the host's speed at that moment. *)
let calib_slice_ns () =
  let rounds = 2 in
  let t0 = now_ns () in
  calib_kernel rounds;
  float_of_int (now_ns () - t0) /. float_of_int (rounds * calib_steps)

(* The kernel's ns per step on the benchmark's build host (a 2-core
   shared x86-64 VM) in a quiet hour, as README.md derives it.  Host
   times are reported scaled to a host of that speed: [seconds]
   measured while the kernel ran at [calib_ns] per step would have
   taken [at_reference_speed] there. *)
let reference_calib_ns = 270.0

let at_reference_speed ~calib_ns seconds =
  seconds *. reference_calib_ns /. calib_ns

(* A growable int buffer: pushing a sample into preallocated space
   costs a store, so recording values inside the timed section stays
   cheap. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create capacity = { a = Array.make (max 16 capacity) 0; n = 0 }
  let length b = b.n

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let iter f b =
    for i = 0 to b.n - 1 do
      f b.a.(i)
    done
end
