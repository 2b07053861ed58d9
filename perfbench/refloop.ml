(* The reference loop: a fixed CPU workload timed around every measured
   unit, so host times can be rescaled to a constant machine speed (see
   [Main.at_ref_speed]). It lives in the benchmark, not in lib/, so no
   change to the system under test moves it. Its mix follows where the
   simulators spend host time: a match-dispatched stack interpreter,
   IEEE single-precision rounding through Int32 bits, and short-lived
   allocation. *)

type insn = Dup | Mul_f32 | Alloc | Drop | Dec | Jnz of int | Halt

(* The counter sits on the stack; each iteration folds it into an f32
   accumulator, builds a short list every 64th count, decrements it and
   loops while it is non-zero. *)
let program = [| Dup; Mul_f32; Alloc; Drop; Dec; Dup; Jnz 0; Halt |]

let f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* [n] iterations; the checksum keeps the work observable. *)
let run n =
  let stack = Array.make 8 0 in
  let sp = ref 0 in
  let push v =
    stack.(!sp) <- v;
    incr sp
  in
  let pop () =
    decr sp;
    stack.(!sp)
  in
  let acc = ref 0.0 and alloc = ref 0 and pc = ref 0 and running = ref true in
  push n;
  while !running do
    let insn = program.(!pc) in
    incr pc;
    match insn with
    | Dup ->
      let v = pop () in
      push v;
      push v
    | Mul_f32 -> acc := f32 ((!acc *. 0.999) +. float_of_int stack.(!sp - 1))
    | Alloc ->
      let v = stack.(!sp - 1) in
      if v land 63 = 0 then
        alloc := !alloc + List.fold_left ( + ) 0 (List.init 16 (fun i -> i * v))
    | Drop -> ignore (pop ())
    | Dec -> push (pop () - 1)
    | Jnz target -> if pop () <> 0 then pc := target
    | Halt -> running := false
  done;
  Int64.to_int (Int64.of_float !acc) + !alloc

let checksum = ref 0

(* Host seconds for one run of 200k iterations (8-13 ms on the 2-vCPU
   baseline host). *)
let time () =
  let t0 = Unix.gettimeofday () in
  checksum := !checksum + run 200_000;
  Unix.gettimeofday () -. t0
