module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module V = Wire.Value

exception Device_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Device_error s)) fmt

type timing = {
  items : int;
  compute_cycles : float;
  mem_bytes : int;
  kernel_ns : float;
  avg_divergence_groups : float;
}

(* Per-lane accounting while a work item executes. Cycles count in an
   int: every cost below is integer-valued, so the int sum converts to
   exactly the float sum it replaces. *)
type lane = {
  mutable cycles : int;
  mutable mem_bytes : int;
  mutable branch_sig : int;
}

let elem_bytes = function
  | Ir.I32 | Ir.F32 | Ir.Enum _ | Ir.Bool -> 4
  | Ir.Bit -> 1
  | Ir.Arr _ | Ir.Obj _ | Ir.Graph | Ir.Unit -> 4

let unop_cycles = function
  | Ir.Neg_i | Ir.Not_b | Ir.Bnot_i | Ir.I2f -> 1.0
  | Ir.Neg_f -> 1.0

let binop_cycles = function
  | Ir.Add_i | Ir.Sub_i | Ir.Shl_i | Ir.Shr_i | Ir.And_i | Ir.Or_i | Ir.Xor_i
  | Ir.And_b | Ir.Or_b | Ir.Xor_b | Ir.And_bit | Ir.Or_bit | Ir.Xor_bit
  | Ir.Eq | Ir.Neq
  | Ir.Lt_i | Ir.Leq_i | Ir.Gt_i | Ir.Geq_i
  | Ir.Lt_f | Ir.Leq_f | Ir.Gt_f | Ir.Geq_f ->
    1.0
  | Ir.Mul_i -> 2.0
  | Ir.Add_f | Ir.Sub_f | Ir.Mul_f -> 1.0
  | Ir.Div_i | Ir.Rem_i -> 20.0
  | Ir.Div_f -> 10.0
  | Ir.Rem_f -> 20.0

let call_overhead = 2.0
let mem_op_cycles = 4.0

(* --- Compiling device functions to closures -------------------------

   Each device function is compiled once per program, on its first
   call, into OCaml closures over a frame of slots. Slot counts,
   parameter slots, constants (pre-filled into slots of their own, so
   every operand is a slot read), callees, intrinsic costs and the
   proven/unproven array accessor of every instruction are resolved
   then, not per lane. Each instruction stores its result straight into
   its destination slot. The value semantics still delegate to the
   reference interpreter's primitives: the operator fast paths for
   [Int]/[Float] operands compute what [I.eval_binop]/[I.eval_unop]
   would, and any other operand falls back to them, so values and trap
   messages are unchanged. Accesses with a static bounds proof take the
   unchecked primitives — the device-side counterpart of the unguarded
   loads/stores in the generated OpenCL.

   Cost folding: every cost above ([binop_cycles], [unop_cycles],
   [mem_op_cycles], [call_overhead], the intrinsic and branch cycles)
   is a small integer-valued float, counted exactly in int [ticks]. A
   straight-line run of instructions — ended by a call, branch, loop or
   return — therefore charges its summed cycles and memory bytes in one
   add when it starts. A trap part-way through a run discards the whole
   launch, so the early charge is never observed. Branch signatures
   still update per branch, in execution order. *)

exception Return of V.t

type code = lane -> V.t array -> unit

(* A call reads its arguments from the caller's frame, at the given
   slots, and returns the callee's result. *)
type call = lane -> V.t array -> int array -> V.t

type fn_entry = {
  fe_func : Ir.func;
  mutable fe_run : call;  (** compiles the body on its first call *)
}

type callee = Fn of fn_entry | Intrinsic of string | Missing

(* Compiled functions of one program, keyed by physical program
   identity: the bounds proofs the compilation consumes are keyed by
   physical instruction. A handful of programs ever coexist; the cache
   keeps the most recent few. *)
type compiled = { c_prog : Ir.program; c_fns : (string, callee) Hashtbl.t }

let cache : compiled list ref = ref []
let max_cached_programs = 8

let compiled_for (prog : Ir.program) : compiled =
  match List.find_opt (fun c -> c.c_prog == prog) !cache with
  | Some c -> c
  | None ->
    let c = { c_prog = prog; c_fns = Hashtbl.create 16 } in
    cache :=
      c
      :: (if List.length !cache >= max_cached_programs then
            List.filteri (fun i _ -> i < max_cached_programs - 1) !cache
          else !cache);
    c

(* A cost in whole cycles; exact, since every cost is integer-valued. *)
let ticks (c : float) =
  if not (Float.is_integer c) then invalid_arg "Simt.ticks: fractional cost";
  int_of_float c

(* [Wire.Value.f32], restated so the float fast paths below inline it:
   dev builds compile libraries [-opaque], without cross-module
   inlining. The workload tests hold GPU results bit-identical to the
   bytecode VM's, which rounds with [Wire.Value.f32]. *)
let round32 x = Int32.float_of_bits (Int32.bits_of_float x)

let vtrue = V.Bool true
let vfalse = V.Bool false
let vbool b = if b then vtrue else vfalse

(* [s.(d) <- op s.(x)], specialised by operator. *)
let unop_into (op : Ir.unop) d x : code =
  let slow = I.eval_unop op in
  match op with
  | Ir.Neg_f ->
    fun _ s ->
      s.(d) <- (match s.(x) with V.Float a -> V.Float (round32 (-.a)) | a -> slow a)
  | Ir.I2f ->
    fun _ s ->
      s.(d) <-
        (match s.(x) with V.Int a -> V.Float (round32 (float_of_int a)) | a -> slow a)
  | Ir.Neg_i | Ir.Not_b | Ir.Bnot_i -> fun _ s -> s.(d) <- slow s.(x)

(* [s.(d) <- s.(x) op s.(y)], specialised by operator: the common
   operand shape takes [fast], any other falls back to the reference
   primitive. Each helper binds [slow] before returning its closure,
   which keeps the closure a genuine two-argument function rather than
   a curried partial application of the helper. *)
let binop_into (op : Ir.binop) d x y : code =
  let ints fast =
    let slow = I.eval_binop op in
    fun _ s ->
      s.(d) <- (match s.(x), s.(y) with V.Int a, V.Int b -> fast a b | a, b -> slow a b)
  in
  let floats fast =
    let slow = I.eval_binop op in
    fun _ s ->
      s.(d) <-
        (match s.(x), s.(y) with V.Float a, V.Float b -> fast a b | a, b -> slow a b)
  in
  let bools fast =
    let slow = I.eval_binop op in
    fun _ s ->
      s.(d) <-
        (match s.(x), s.(y) with V.Bool a, V.Bool b -> fast a b | a, b -> slow a b)
  in
  match op with
  | Ir.Add_i -> ints (fun a b -> V.Int (V.add32 a b))
  | Ir.Sub_i -> ints (fun a b -> V.Int (V.sub32 a b))
  | Ir.Mul_i -> ints (fun a b -> V.Int (V.mul32 a b))
  | Ir.Shl_i -> ints (fun a b -> V.Int (V.shl32 a b))
  | Ir.Shr_i -> ints (fun a b -> V.Int (V.shr32 a b))
  | Ir.And_i -> ints (fun a b -> V.Int (a land b))
  | Ir.Eq -> ints (fun a b -> vbool (a = b))
  | Ir.Neq -> ints (fun a b -> vbool (a <> b))
  | Ir.Lt_i -> ints (fun a b -> vbool (a < b))
  | Ir.Leq_i -> ints (fun a b -> vbool (a <= b))
  | Ir.Gt_i -> ints (fun a b -> vbool (a > b))
  | Ir.Geq_i -> ints (fun a b -> vbool (a >= b))
  | Ir.Add_f -> floats (fun a b -> V.Float (round32 (a +. b)))
  | Ir.Sub_f -> floats (fun a b -> V.Float (round32 (a -. b)))
  | Ir.Mul_f -> floats (fun a b -> V.Float (round32 (a *. b)))
  | Ir.Div_f -> floats (fun a b -> V.Float (round32 (a /. b)))
  | Ir.Lt_f -> floats (fun a b -> vbool (a < b))
  | Ir.Leq_f -> floats (fun a b -> vbool (a <= b))
  | Ir.Gt_f -> floats (fun a b -> vbool (a > b))
  | Ir.Geq_f -> floats (fun a b -> vbool (a >= b))
  | Ir.And_b -> bools (fun a b -> vbool (a && b))
  | Ir.Or_b -> bools (fun a b -> vbool (a || b))
  | Ir.Xor_b -> bools (fun a b -> vbool (a <> b))
  | Ir.Div_i | Ir.Rem_i | Ir.Rem_f | Ir.Or_i | Ir.Xor_i | Ir.And_bit
  | Ir.Or_bit | Ir.Xor_bit ->
    let slow = I.eval_binop op in
    fun _ s -> s.(d) <- slow s.(x) s.(y)

(* Per-function compilation state: slots past the function's variables
   hold its constants and the discarded results of [I_do]. *)
type env = {
  e_compiled : compiled;
  e_proven : Ir.instr -> bool;
  mutable e_slots : int;
  mutable e_consts : (int * V.t) list;
}

let extra_slot env v =
  let i = env.e_slots in
  env.e_slots <- i + 1;
  if v != V.Unit then env.e_consts <- (i, v) :: env.e_consts;
  i

let slot env (o : Ir.operand) =
  match o with
  | Ir.O_var v -> v.Ir.v_id
  | Ir.O_const k -> extra_slot env (I.const_value k)

(* Whether an instruction ends a straight-line run, and the static
   (cycles, mem bytes) it adds to its run; calls charge themselves. *)
let instr_cost (i : Ir.instr) : bool * (int * int) =
  let rhs_cost (r : Ir.rhs) =
    match r with
    | Ir.R_unop (op, _) -> ticks (unop_cycles op), 0
    | Ir.R_binop (op, _, _) -> ticks (binop_cycles op), 0
    | Ir.R_alen _ -> 1, 0
    | Ir.R_aload _ -> ticks mem_op_cycles, 4
    | Ir.R_op _ | Ir.R_call _ | Ir.R_newarr _ | Ir.R_freeze _ | Ir.R_newobj _
    | Ir.R_field _ | Ir.R_map _ | Ir.R_reduce _ | Ir.R_mkgraph _ ->
      0, 0
  in
  match i with
  | Ir.I_let (_, r) | Ir.I_set (_, r) | Ir.I_do r ->
    (match r with Ir.R_call _ -> true | _ -> false), rhs_cost r
  | Ir.I_astore _ -> false, (ticks mem_op_cycles, 4)
  | Ir.I_if _ -> true, (1, 0)
  | Ir.I_while _ | Ir.I_return _ -> true, (0, 0)
  | Ir.I_setfield _ | Ir.I_run_graph _ -> false, (0, 0)

let rec seq (codes : code list) : code =
  match codes with
  | [] -> fun _ _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
    fun lane s ->
      a lane s;
      b lane s
  | [ a; b; c ] ->
    fun lane s ->
      a lane s;
      b lane s;
      c lane s
  | a :: b :: c :: rest ->
    let rest = seq rest in
    fun lane s ->
      a lane s;
      b lane s;
      c lane s;
      rest lane s

let rec resolve (c : compiled) (key : string) : callee =
  match Hashtbl.find_opt c.c_fns key with
  | Some callee -> callee
  | None ->
    let callee =
      if Lime_ir.Intrinsics.is_intrinsic key then Intrinsic key
      else
        match Ir.find_func c.c_prog key with
        | None -> Missing
        | Some fn ->
          let rec fe =
            {
              fe_func = fn;
              fe_run =
                (fun lane src args ->
                  let run = compile_fn c fe in
                  fe.fe_run <- run;
                  run lane src args);
            }
          in
          Fn fe
    in
    Hashtbl.add c.c_fns key callee;
    callee

(* [invoke c key] is the call of [key]; the arity is checked once per
   call against the compiled parameter array. *)
and invoke (c : compiled) (key : string) : call =
  match resolve c key with
  | Missing -> fun _ _ _ -> fail "no device function %s" key
  | Intrinsic key ->
    let cycles = ticks (Lime_ir.Intrinsics.device_cycles key) in
    let apply = Lime_ir.Intrinsics.apply key in
    fun lane src args ->
      lane.cycles <- lane.cycles + cycles;
      (match apply (Array.fold_right (fun i acc -> src.(i) :: acc) args []) with
      | v -> v
      | exception Lime_ir.Intrinsics.Error m -> fail "%s" m)
  | Fn fe ->
    let arity = List.length fe.fe_func.Ir.fn_params in
    fun lane src args ->
      if Array.length args <> arity then
        fail "%s expects %d argument(s), got %d" key arity (Array.length args);
      fe.fe_run lane src args

and compile_fn (c : compiled) (fe : fn_entry) : call =
  let fn = fe.fe_func in
  let env =
    {
      e_compiled = c;
      e_proven =
        Analysis.Symbolic.fn_prover (Analysis.Symbolic.analyze_fn c.c_prog fn);
      e_slots = Ir.var_slot_count fn;
      e_consts = [];
    }
  in
  let body = compile_block env ~pre:(ticks call_overhead) fn.Ir.fn_body in
  let frame = Array.make env.e_slots V.Unit in
  List.iter (fun (i, v) -> frame.(i) <- v) env.e_consts;
  let params =
    Array.of_list (List.map (fun (p : Ir.var) -> p.Ir.v_id) fn.fn_params)
  in
  let ret_unit = fn.fn_ret = Ir.Unit in
  fun lane src args ->
    let s = Array.copy frame in
    for i = 0 to Array.length params - 1 do
      s.(params.(i)) <- src.(args.(i))
    done;
    match body lane s with
    | () ->
      if ret_unit then V.Unit
      else fail "%s fell off the end on the device" fn.fn_key
    | exception Return v -> v

(* A block is a sequence of straight-line runs, each charged once. *)
and compile_block env ?(pre = 0) (b : Ir.block) : code =
  let charged cycles bytes run =
    let k = seq (List.rev run) in
    if cycles = 0 && bytes = 0 then k
    else fun lane s ->
      lane.cycles <- lane.cycles + cycles;
      lane.mem_bytes <- lane.mem_bytes + bytes;
      k lane s
  in
  (* [run] holds the current run's code, latest first *)
  let rec go cycles bytes run (b : Ir.block) =
    match b with
    | [] ->
      if run = [] && cycles = 0 && bytes = 0 then []
      else [ charged cycles bytes run ]
    | i :: rest ->
      let ends_run, (cy, by) = instr_cost i in
      let code = compile_instr env i in
      if ends_run then
        charged (cycles + cy) (bytes + by) (code :: run) :: go 0 0 [] rest
      else go (cycles + cy) (bytes + by) (code :: run) rest
  in
  seq (go pre 0 [] b)

and compile_instr env (i : Ir.instr) : code =
  match i with
  | Ir.I_let (v, r) | Ir.I_set (v, r) ->
    assign env ~unguarded:(env.e_proven i) v.Ir.v_id r
  | Ir.I_do r -> assign env ~unguarded:(env.e_proven i) (extra_slot env V.Unit) r
  | Ir.I_astore (a, idx, x) ->
    let a = slot env a and idx = slot env idx and x = slot env x in
    let set = if env.e_proven i then I.array_set_unchecked else I.array_set in
    fun _ s -> (
      match s.(idx) with
      | V.Int i -> set s.(a) i s.(x)
      | _ -> fail "non-integer index")
  | Ir.I_setfield _ -> fun _ _ -> fail "field write on the device"
  | Ir.I_if (cond, a, b) ->
    let cond = slot env cond in
    let a = compile_block env a and b = compile_block env b in
    fun lane s -> (
      match s.(cond) with
      | V.Bool true ->
        lane.branch_sig <- (lane.branch_sig * 31) + 1;
        a lane s
      | V.Bool false ->
        lane.branch_sig <- (lane.branch_sig * 31) + 2;
        b lane s
      | _ -> fail "non-boolean condition")
  | Ir.I_while (cond_block, cond, body) ->
    (* the 1-cycle test is charged with the condition's first run *)
    let cond_block = compile_block env ~pre:1 cond_block in
    let cond = slot env cond in
    let body = compile_block env body in
    fun lane s ->
      let looping = ref true in
      while !looping do
        cond_block lane s;
        match s.(cond) with
        | V.Bool true ->
          lane.branch_sig <- (lane.branch_sig * 31) + 1;
          body lane s
        | V.Bool false ->
          lane.branch_sig <- (lane.branch_sig * 31) + 2;
          looping := false
        | _ -> fail "non-boolean loop condition"
      done
  | Ir.I_return (Some o) ->
    let o = slot env o in
    fun _ s -> raise (Return s.(o))
  | Ir.I_return None -> fun _ _ -> raise (Return V.Unit)
  | Ir.I_run_graph _ -> fun _ _ -> fail "nested graph on the device"

(* [s.(d) <- r] *)
and assign env ~unguarded d (r : Ir.rhs) : code =
  match r with
  | Ir.R_op o ->
    let x = slot env o in
    fun _ s -> s.(d) <- s.(x)
  | Ir.R_unop (op, a) -> unop_into op d (slot env a)
  | Ir.R_binop (op, a, b) ->
    let a = slot env a in
    binop_into op d a (slot env b)
  | Ir.R_alen a ->
    let a = slot env a in
    fun _ s -> s.(d) <- V.Int (I.array_length s.(a))
  | Ir.R_aload (a, idx) ->
    let a = slot env a and idx = slot env idx in
    let get = if unguarded then I.array_get_unchecked else I.array_get in
    fun _ s -> (
      match s.(idx) with
      | V.Int i -> s.(d) <- get s.(a) i
      | _ -> fail "non-integer index")
  | Ir.R_call (key, args) ->
    let call = invoke env.e_compiled key in
    let args = Array.of_list (List.map (slot env) args) in
    fun lane s -> s.(d) <- call lane s args
  | Ir.R_newarr _ | Ir.R_freeze _ | Ir.R_newobj _ | Ir.R_field _
  | Ir.R_map _ | Ir.R_reduce _ | Ir.R_mkgraph _ ->
    fun _ _ -> fail "construct not supported on the device (should be excluded)"

(* Aggregate per-lane traces into device timing. *)
let aggregate ?(device = Device.gtx580) ~model_divergence
    (lanes : lane array) : timing =
  let n = Array.length lanes in
  let warp = device.Device.lanes_per_warp in
  let warps = (n + warp - 1) / max warp 1 in
  let total_cycles = ref 0 in
  let total_groups = ref 0 in
  (* distinct branch signatures of one warp and their max cycles; lane
     cycles are integer-valued, so the summation order is immaterial *)
  let sigs = Array.make warp 0 and costs = Array.make warp 0 in
  for w = 0 to warps - 1 do
    let lo = w * warp in
    let hi = min (lo + warp) n - 1 in
    if model_divergence then begin
      (* Divergent signatures serialize: the warp pays the max cost of
         each distinct control-flow group. *)
      let groups = ref 0 in
      for i = lo to hi do
        let l = lanes.(i) in
        let g = ref 0 in
        while !g < !groups && sigs.(!g) <> l.branch_sig do
          incr g
        done;
        if !g = !groups then begin
          sigs.(!g) <- l.branch_sig;
          costs.(!g) <- l.cycles;
          incr groups
        end
        else costs.(!g) <- max costs.(!g) l.cycles
      done;
      for g = 0 to !groups - 1 do
        total_cycles := !total_cycles + costs.(g)
      done;
      total_groups := !total_groups + !groups
    end
    else begin
      let m = ref 0 in
      for i = lo to hi do
        if lanes.(i).cycles > !m then m := lanes.(i).cycles
      done;
      total_cycles := !total_cycles + !m;
      incr total_groups
    end
  done;
  let total_cycles = float_of_int !total_cycles in
  let mem_bytes = Array.fold_left (fun acc l -> acc + l.mem_bytes) 0 lanes in
  (* Warps spread across SMs; memory traffic is bandwidth-limited. *)
  let compute_ns =
    Device.cycles_to_ns device (total_cycles /. float_of_int device.Device.sms)
  in
  let bw_bytes_per_ns = device.Device.mem_bandwidth_gbps /. 1.0 in
  let mem_ns = float_of_int mem_bytes /. bw_bytes_per_ns in
  {
    items = n;
    compute_cycles = total_cycles;
    mem_bytes;
    kernel_ns = Float.max compute_ns mem_ns +. device.Device.launch_overhead_ns;
    avg_divergence_groups =
      (if warps = 0 then 1.0 else float_of_int !total_groups /. float_of_int warps);
  }

let fresh_lane () = { cycles = 0; mem_bytes = 0; branch_sig = 0 }

(* Device-model telemetry: each simulated kernel launch becomes a span
   (category ["gpu"]) whose end carries the item count and modeled
   kernel time. Free when tracing is off. *)
let traced kind name (f : unit -> V.t * timing) =
  if not (Support.Trace.enabled ()) then f ()
  else
    let sp =
      Support.Trace.begin_span ~cat:"gpu"
        ~args:[ "kind", Support.Trace.Str kind ]
        name
    in
    match f () with
    | (_, t) as r ->
      Support.Trace.end_span
        ~args:
          [
            "items", Support.Trace.Int t.items;
            "kernel_ns", Support.Trace.Float t.kernel_ns;
          ]
        sp;
      r
    | exception e ->
      Support.Trace.end_span sp;
      raise e

(* The kernel entry of a launch: [key] called on an argument array. *)
let entry (prog : Ir.program) (key : string) ~arity :
    lane -> V.t array -> V.t =
  let call = invoke (compiled_for prog) key in
  let slots = Array.init arity Fun.id in
  fun lane args -> call lane args slots

let run_map ?(device = Device.gtx580) ?(model_divergence = true)
    (prog : Ir.program) (site : Ir.map_site) (args : V.t list) :
    V.t * timing =
  Support.Fault.check ~device:"gpu" ~segment:site.map_uid;
  traced "map" site.map_uid @@ fun () ->
  let args = Array.of_list args in
  let mapped = Array.of_list (List.map snd site.map_args) in
  if Array.length args <> Array.length mapped then
    fail "%s: %d argument(s) for %d map operand(s)" site.map_uid
      (Array.length args) (Array.length mapped);
  let n = ref (-1) in
  Array.iteri
    (fun k a ->
      if mapped.(k) then begin
        let m = I.array_length a in
        if !n < 0 then n := m
        else if m <> !n then fail "mapped arrays have different lengths"
      end)
    args;
  let n = if !n < 0 then fail "map kernel without array arguments" else !n in
  let call = entry prog site.map_fn ~arity:(Array.length args) in
  (* input reads + output write *)
  let lane_bytes =
    elem_bytes site.map_elem_ty
    + Array.fold_left (fun acc m -> if m then acc + 4 else acc) 0 mapped
  in
  let result = I.new_array site.map_elem_ty n in
  let lanes = Array.init n (fun _ -> fresh_lane ()) in
  (* the callee copies its arguments into a fresh frame, so one
     argument array serves every lane *)
  let call_args = Array.copy args in
  for i = 0 to n - 1 do
    let lane = lanes.(i) in
    for k = 0 to Array.length args - 1 do
      if mapped.(k) then call_args.(k) <- I.array_get args.(k) i
    done;
    let r = call lane call_args in
    lane.mem_bytes <- lane.mem_bytes + lane_bytes;
    I.array_set result i r
  done;
  I.freeze result, aggregate ~device ~model_divergence lanes

let run_reduce ?(device = Device.gtx580) ?(model_divergence = true)
    (prog : Ir.program) (site : Ir.reduce_site) (arg : V.t) : V.t * timing =
  Support.Fault.check ~device:"gpu" ~segment:site.red_uid;
  traced "reduce" site.red_uid @@ fun () ->
  (* Tree reductions keep warps uniform; divergence does not apply. *)
  ignore model_divergence;
  let n = I.array_length arg in
  if n = 0 then fail "reduce of an empty array";
  (* Values fold left (identical to the CPU), but the device timing is
     that of a tree: ~2n/lanes combiner applications worth of cycles
     plus log n synchronization stages. *)
  let call = entry prog site.red_fn ~arity:2 in
  let lane = fresh_lane () in
  let call_args = [| V.Unit; V.Unit |] in
  let acc = ref (I.array_get arg 0) in
  for i = 1 to n - 1 do
    call_args.(0) <- !acc;
    call_args.(1) <- I.array_get arg i;
    acc := call lane call_args
  done;
  let per_apply =
    let cycles = float_of_int lane.cycles in
    if n > 1 then cycles /. float_of_int (n - 1) else cycles
  in
  let lanes_total = float_of_int (Device.total_lanes device) in
  let stages = ceil (log (float_of_int (max n 2)) /. log 2.0) in
  let tree_cycles =
    (2.0 *. float_of_int n /. lanes_total *. per_apply) +. (stages *. 20.0)
  in
  let mem_bytes = (n * elem_bytes site.red_elem_ty) + elem_bytes site.red_elem_ty in
  let compute_ns = Device.cycles_to_ns device tree_cycles in
  let mem_ns = float_of_int mem_bytes /. device.Device.mem_bandwidth_gbps in
  let timing =
    {
      items = n;
      compute_cycles = tree_cycles;
      mem_bytes;
      kernel_ns =
        Float.max compute_ns mem_ns +. device.Device.launch_overhead_ns;
      avg_divergence_groups = 1.0;
    }
  in
  !acc, timing

let run_filter_chain ?(device = Device.gtx580) ?(model_divergence = true)
    ?uid (prog : Ir.program) ~(chain : string list) ~(output_ty : Ir.ty)
    (input : V.t) : V.t * timing =
  if chain = [] then fail "empty filter chain";
  let name = Option.value uid ~default:(String.concat "|" chain) in
  (* Fused kernels are fault-checked by the engine's launch prelude
     under their pre-fusion alias names — checking the fused uid here
     too would double-charge one launch. *)
  if not (Lime_ir.Fuse.is_fused_uid name) then
    Support.Fault.check ~device:"gpu" ~segment:name;
  traced "filter-chain" name @@ fun () ->
  let stages = List.map (entry prog ~arity:1) chain in
  let n = I.array_length input in
  let result = I.new_array output_ty n in
  let lanes = Array.init n (fun _ -> fresh_lane ()) in
  let call_args = [| V.Unit |] in
  for i = 0 to n - 1 do
    let lane = lanes.(i) in
    let x = ref (I.array_get input i) in
    List.iter
      (fun call ->
        call_args.(0) <- !x;
        x := call lane call_args)
      stages;
    lane.mem_bytes <- lane.mem_bytes + 4 + elem_bytes output_ty;
    I.array_set result i !x
  done;
  I.freeze result, aggregate ~device ~model_divergence lanes
