module Ir = Lime_ir.Ir

module I = Lime_ir.Interp
module V = Wire.Value

type v = I.v

exception Vm_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Vm_error s)) fmt

type hooks = {
  on_map : Insn.map_desc -> v list -> v option;
  on_reduce : Insn.reduce_desc -> v -> v option;
  on_run_graph : (Ir.graph_template -> v list -> blocking:bool -> bool) option;
}

let no_hooks =
  { on_map = (fun _ _ -> None); on_reduce = (fun _ _ -> None); on_run_graph = None }

type result = { value : v; executed : int }

(* The state of one [run]: nested runs (from hooks) get their own. *)
type state = {
  hooks : hooks;
  mutable executed : int;
  mutable graph_counter : int;
  mutable pending : (int * (Ir.graph_template * v list)) list;
}

(* --- Compiling bytecode to closures ---------------------------------

   Each function is compiled once per unit, on its first call, into
   OCaml closures over a frame of slots: its locals, then one slot per
   operand-stack position, then its constants (pre-filled, so every
   operand is a slot read). Stack depths are static in the code
   [Compile] emits, so the operand stack exists only at compile time:
   [LOAD]/[CONST]/[DUP]/[POP] move slot references around, and every
   other instruction reads its operand slots and writes its result
   into the next stack slot — or straight into the local of an
   immediately following [STORE]. Callees, class metadata, graph
   templates and the checked/unchecked accessor of every instruction
   are resolved then, not per execution.

   Code is split into basic blocks at jump targets and after jumps and
   returns. A block charges its instruction count to [executed] in one
   add on entry: a run returns the count only when it completes, and a
   completed run executes every block it enters to its end, so the
   total is the per-instruction count exactly. Blocks continue by tail
   call into their successor.

   Value semantics delegate to the reference interpreter's primitives:
   the operator fast paths for [Int]/[Float]/[Bool] operands compute
   what [I.eval_binop]/[I.eval_unop] would, anything else falls back
   to them, and operands convert in the order the stack machine did,
   so values and trap messages are unchanged. Malformed code (stack
   underflow, an unknown class, a wrong argument count ...) compiles
   to a closure that raises the trap when that instruction is reached. *)

type code = state -> v array -> unit

(* A block runs to the function's return and yields its result. *)
type block = state -> v array -> v

(* A call reads its arguments from the caller's frame, at the given
   slots, and returns the callee's result. *)
type call = state -> v array -> int array -> v

(* A compiled block variant; [run] is a placeholder until [ready]. *)
type cell = { mutable run : block; mutable ready : bool }

(* The most entry stack depths one block is compiled for. *)
let max_variants = 4

type fn_entry = {
  fe_code : Compile.code;
  mutable fe_run : call;  (** compiles the body on its first call *)
}

type callee = Fn of fn_entry | Intrinsic of string | Missing

(* The compiled functions of one unit, attached to it: they live as
   long as the unit does. *)
type compiled = { c_unit : Compile.unit_; c_fns : (string, callee) Hashtbl.t }

type Compile.attachment += Vm_compiled of compiled

let compiled_for (unit_ : Compile.unit_) : compiled =
  match unit_.Compile.u_attached with
  | Some (Vm_compiled c) when c.c_unit == unit_ -> c
  | _ ->
    let c = { c_unit = unit_; c_fns = Hashtbl.create 16 } in
    unit_.u_attached <- Some (Vm_compiled c);
    c

(* Operand conversions, local so the closures below inline them. *)
let prim (x : v) = match x with I.Prim p -> p | _ -> I.prim_exn x

let as_int (x : v) =
  match x with
  | I.Prim (V.Int i) -> i
  | _ -> fail "expected an int on the operand stack"

let vunit = I.Prim V.Unit
let vtrue = I.Prim (V.Bool true)
let vfalse = I.Prim (V.Bool false)
let vbool b = if b then vtrue else vfalse

(* [Wire.Value.norm32]/[f32], restated so the fast paths inline them
   (dev builds compile libraries [-opaque]). *)
let norm32 x =
  let x = x land 0xffffffff in
  if x land 0x80000000 <> 0 then x - 0x100000000 else x

let round32 x = Int32.float_of_bits (Int32.bits_of_float x)
let vint x = I.Prim (V.Int (norm32 x))
let vfloat x = I.Prim (V.Float (round32 x))

(* [s.(d) <- op s.(x)], specialised by operator. *)
let unop_into (op : Ir.unop) d x : code =
  let slow a = I.Prim (I.eval_unop op (prim a)) in
  match op with
  | Ir.Neg_i ->
    fun _ s -> s.(d) <- (match s.(x) with I.Prim (V.Int a) -> vint (-a) | a -> slow a)
  | Ir.Neg_f ->
    fun _ s ->
      s.(d) <- (match s.(x) with I.Prim (V.Float a) -> vfloat (-.a) | a -> slow a)
  | Ir.Not_b ->
    fun _ s ->
      s.(d) <- (match s.(x) with I.Prim (V.Bool a) -> vbool (not a) | a -> slow a)
  | Ir.I2f ->
    fun _ s ->
      s.(d) <-
        (match s.(x) with I.Prim (V.Int a) -> vfloat (float_of_int a) | a -> slow a)
  | Ir.Bnot_i -> fun _ s -> s.(d) <- slow s.(x)

(* The reference operator, right operand converted first as the stack
   machine did. *)
let binop_slow op a b =
  let b = prim b in
  I.Prim (I.eval_binop op (prim a) b)

(* [s.(d) <- s.(x) op s.(y)], specialised by operator: the common
   operand shape takes [fast], any other falls back to the reference
   primitive. Each helper binds [slow] before returning its closure,
   which keeps the closure a genuine two-argument function rather than
   a curried partial application of the helper. *)
let binop_into (op : Ir.binop) d x y : code =
  let ints fast =
    let slow = binop_slow op in
    fun _ s ->
      s.(d) <-
        (match s.(x), s.(y) with
        | I.Prim (V.Int a), I.Prim (V.Int b) -> fast a b
        | a, b -> slow a b)
  in
  (* division: a zero divisor takes the reference path and its trap *)
  let ints_nz fast =
    let slow = binop_slow op in
    fun _ s ->
      s.(d) <-
        (match s.(x), s.(y) with
        | I.Prim (V.Int a), I.Prim (V.Int b) when b <> 0 -> fast a b
        | a, b -> slow a b)
  in
  let floats fast =
    let slow = binop_slow op in
    fun _ s ->
      s.(d) <-
        (match s.(x), s.(y) with
        | I.Prim (V.Float a), I.Prim (V.Float b) -> fast a b
        | a, b -> slow a b)
  in
  let bools fast =
    let slow = binop_slow op in
    fun _ s ->
      s.(d) <-
        (match s.(x), s.(y) with
        | I.Prim (V.Bool a), I.Prim (V.Bool b) -> fast a b
        | a, b -> slow a b)
  in
  match op with
  | Ir.Add_i -> ints (fun a b -> vint (a + b))
  | Ir.Sub_i -> ints (fun a b -> vint (a - b))
  | Ir.Mul_i -> ints (fun a b -> vint (a * b))
  | Ir.Div_i -> ints_nz (fun a b -> vint (a / b))
  | Ir.Rem_i -> ints_nz (fun a b -> vint (a mod b))
  | Ir.Shl_i -> ints (fun a b -> vint (a lsl (b land 31)))
  | Ir.Shr_i -> ints (fun a b -> vint (norm32 a asr (b land 31)))
  | Ir.And_i -> ints (fun a b -> I.Prim (V.Int (a land b)))
  | Ir.Or_i -> ints (fun a b -> I.Prim (V.Int (a lor b)))
  | Ir.Xor_i -> ints (fun a b -> vint (a lxor b))
  | Ir.Eq -> ints (fun a b -> vbool (a = b))
  | Ir.Neq -> ints (fun a b -> vbool (a <> b))
  | Ir.Lt_i -> ints (fun a b -> vbool (a < b))
  | Ir.Leq_i -> ints (fun a b -> vbool (a <= b))
  | Ir.Gt_i -> ints (fun a b -> vbool (a > b))
  | Ir.Geq_i -> ints (fun a b -> vbool (a >= b))
  | Ir.Add_f -> floats (fun a b -> vfloat (a +. b))
  | Ir.Sub_f -> floats (fun a b -> vfloat (a -. b))
  | Ir.Mul_f -> floats (fun a b -> vfloat (a *. b))
  | Ir.Div_f -> floats (fun a b -> vfloat (a /. b))
  | Ir.Lt_f -> floats (fun a b -> vbool (a < b))
  | Ir.Leq_f -> floats (fun a b -> vbool (a <= b))
  | Ir.Gt_f -> floats (fun a b -> vbool (a > b))
  | Ir.Geq_f -> floats (fun a b -> vbool (a >= b))
  | Ir.And_b -> bools (fun a b -> vbool (a && b))
  | Ir.Or_b -> bools (fun a b -> vbool (a || b))
  | Ir.Xor_b -> bools (fun a b -> vbool (a <> b))
  | Ir.Rem_f | Ir.And_bit | Ir.Or_bit | Ir.Xor_bit ->
    let slow = binop_slow op in
    fun _ s -> s.(d) <- slow s.(x) s.(y)

(* Operands popped and values pushed by an instruction. *)
let stack_effect (i : Insn.t) : int * int =
  match i with
  | Insn.CONST _ | Insn.LOAD _ | Insn.NEW _ -> 0, 1
  | Insn.STORE _ | Insn.POP | Insn.JMPF _ | Insn.RUNGRAPH _ | Insn.RET -> 1, 0
  | Insn.DUP -> 1, 2
  | Insn.UNOP _ | Insn.ALEN | Insn.NEWARR _ | Insn.FREEZE | Insn.GETFIELD _
  | Insn.REDUCE _ ->
    1, 1
  | Insn.BINOP _ | Insn.ALOAD | Insn.ALOAD_U -> 2, 1
  | Insn.ASTORE | Insn.ASTORE_U -> 3, 0
  | Insn.PUTFIELD _ -> 2, 0
  | Insn.CALL (_, n) | Insn.MKGRAPH (_, n) -> n, 1
  | Insn.MAP m -> List.length m.Insn.bm_flags, 1
  | Insn.RETVOID | Insn.JMP _ -> 0, 0

(* The trap an instruction raises whenever it executes at this stack
   depth, checked in the order the stack machine checked them. *)
let static_trap (u : Compile.unit_) (code : Compile.code) ~nlocals pc depth :
    exn option =
  let err fmt = Format.kasprintf (fun m -> Some (Vm_error m)) fmt in
  let bad_slot n = n < 0 || n >= nlocals in
  let insn = code.Compile.c_insns.(pc) in
  let prog = u.Compile.u_program in
  match insn with
  | Insn.LOAD n when bad_slot n -> Some (Invalid_argument "index out of bounds")
  | Insn.NEW cls when not (Ir.String_map.mem cls prog.Ir.classes) ->
    err "no class named %s" cls
  | Insn.MKGRAPH (uid, _) when not (Ir.String_map.mem uid prog.Ir.templates) ->
    err "no task-graph template %s" uid
  | _ when (let pops = fst (stack_effect insn) in pops >= 0 && depth >= pops) -> (
    match insn with
    | Insn.STORE n when bad_slot n -> Some (Invalid_argument "index out of bounds")
    | _ -> None)
  | Insn.CALL (key, _) -> err "operand stack underflow calling %s" key
  | Insn.MAP _ -> err "operand stack underflow at map"
  | Insn.MKGRAPH _ -> err "operand stack underflow at mkgraph"
  | _ -> err "operand stack underflow in %s at %d" code.Compile.c_key pc

let rec chain (ops : code list) (k : block) : block =
  match ops with
  | [] -> k
  | [ a ] ->
    fun st s ->
      a st s;
      k st s
  | [ a; b ] ->
    fun st s ->
      a st s;
      b st s;
      k st s
  | a :: b :: c :: rest ->
    let k = chain rest k in
    fun st s ->
      a st s;
      b st s;
      c st s;
      k st s

(* The values at [slots], in order. *)
let values (s : v array) (slots : int array) =
  Array.fold_right (fun i acc -> s.(i) :: acc) slots []

let rec resolve (c : compiled) (key : string) : callee =
  match Hashtbl.find_opt c.c_fns key with
  | Some callee -> callee
  | None ->
    let callee =
      if Lime_ir.Intrinsics.is_intrinsic key then Intrinsic key
      else
        match Ir.String_map.find_opt key c.c_unit.Compile.u_funcs with
        | None -> Missing
        | Some code ->
          let rec fe =
            {
              fe_code = code;
              fe_run =
                (fun st src args ->
                  let run = compile_fn c code in
                  fe.fe_run <- run;
                  run st src args);
            }
          in
          Fn fe
    in
    Hashtbl.add c.c_fns key callee;
    callee

(* [invoke c key ~argc] is a call of [key] with [argc] arguments; a
   wrong argument count is known here and traps when the call runs. *)
and invoke (c : compiled) (key : string) ~argc : call =
  match resolve c key with
  | Missing -> fun _ _ _ -> fail "no function named %s" key
  | Intrinsic key ->
    let apply = Lime_ir.Intrinsics.apply key in
    fun st src args ->
      (* one dispatch charge for the intrinsic call *)
      st.executed <- st.executed + 1;
      let rec prims i =
        if i = Array.length args then []
        else
          let p = prim src.(args.(i)) in
          p :: prims (i + 1)
      in
      (match apply (prims 0) with
      | v -> I.Prim v
      | exception Lime_ir.Intrinsics.Error m -> fail "%s" m)
  | Fn fe ->
    let code = fe.fe_code in
    if argc <> code.Compile.c_params then fun _ _ _ ->
      fail "%s expects %d argument(s), got %d" code.c_key code.c_params argc
    else fun st src args -> fe.fe_run st src args

and compile_fn (c : compiled) (code : Compile.code) : call =
  let insns = code.Compile.c_insns in
  let n = Array.length insns in
  let key = code.Compile.c_key in
  let nlocals = max code.c_slots code.c_params in
  let trap_at = static_trap c.c_unit code ~nlocals in
  (* Basic blocks: [starts.(b)] is the first pc of block [b]. *)
  let leader = Array.make n false in
  let mark t = if t >= 0 && t < n then leader.(t) <- true in
  mark 0;
  Array.iteri
    (fun pc i ->
      match i with
      | Insn.JMP t | Insn.JMPF t ->
        mark t;
        mark (pc + 1)
      | Insn.RET | Insn.RETVOID -> mark (pc + 1)
      | _ -> ())
    insns;
  let raise_ e : block = fun _ _ -> raise e in
  let fell_off : block =
   fun _ _ -> fail "%s fell off the end without returning a value" key
  in
  let block_of = Array.make n (-1) in
  let starts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then starts := pc :: !starts
  done;
  let starts = Array.of_list !starts in
  let nblocks = Array.length starts in
  Array.iteri (fun b pc -> block_of.(pc) <- b) starts;
  let stop b = if b + 1 < nblocks then starts.(b + 1) else n in
  (* The reachable (block, entry stack depth) pairs, and the deepest
     stack (the number of stack slots). [Compile] enters each block at
     one depth; hand-built code may join at several, and each depth
     gets its own variant, as a dynamic stack would behave. Code whose
     stack grows around a loop would need a variant per iteration:
     past [max_variants] depths, entering a block traps. *)
  let variants : (int * int, cell) Hashtbl.t = Hashtbl.create nblocks in
  let nvariants = Array.make nblocks 0 in
  let max_depth = ref 0 in
  let work = Queue.create () in
  let reach pc depth =
    if pc >= 0 && pc < n then begin
      let b = block_of.(pc) in
      if (not (Hashtbl.mem variants (b, depth))) && nvariants.(b) < max_variants
      then begin
        nvariants.(b) <- nvariants.(b) + 1;
        Hashtbl.add variants (b, depth) { run = fell_off; ready = false };
        Queue.add (b, depth) work
      end
    end
  in
  reach 0 0;
  while not (Queue.is_empty work) do
    let b, depth = Queue.pop work in
    let rec go pc depth =
      max_depth := max !max_depth depth;
      if pc = stop b then reach pc depth
      else if trap_at pc depth = None then
        let pops, pushes = stack_effect insns.(pc) in
        let depth' = depth - pops + pushes in
        match insns.(pc) with
        | Insn.JMP t -> reach t depth'
        | Insn.JMPF t ->
          reach (pc + 1) depth';
          reach t depth'
        | Insn.RET | Insn.RETVOID -> ()
        | _ -> go (pc + 1) depth'
    in
    go starts.(b) depth
  done;
  let base = nlocals in
  (* constants live past the stack slots, one slot per distinct
     constant (floats told apart by bits: 0.0 is not -0.0) *)
  let consts = ref [] in
  let nslots = ref (base + !max_depth) in
  let same (a : Ir.const) (b : Ir.const) =
    match a, b with
    | Ir.C_f32 x, Ir.C_f32 y -> Int64.bits_of_float x = Int64.bits_of_float y
    | _ -> a = b
  in
  let const_slot k =
    match List.find_opt (fun (k', _, _) -> same k k') !consts with
    | Some (_, i, _) -> i
    | None ->
      let i = !nslots in
      incr nslots;
      consts := (k, i, I.Prim (I.const_value k)) :: !consts;
      i
  in
  let goto t depth : block =
    if t < 0 then raise_ (Invalid_argument "index out of bounds")
    else if t >= n then fell_off
    else
      match Hashtbl.find_opt variants (block_of.(t), depth) with
      | None ->
        raise_
          (Vm_error
             (Printf.sprintf "unbounded operand stack growth in %s at %d" key t))
      | Some cell -> if cell.ready then cell.run else fun st s -> cell.run st s
  in
  let compile_block (b, depth) (cell : cell) =
    let lo = starts.(b) and hi = stop b in
    (* the compile-time operand stack: the slot of each entry, top
       first; entry [j] (from the bottom) canonically lives in slot
       [base + j] *)
    let stack = ref (List.init depth (fun j -> base + depth - 1 - j)) in
    let ops = ref [] in
    let emit op = ops := op :: !ops in
    let pop () =
      match !stack with
      | x :: rest ->
        stack := rest;
        x
      | [] -> assert false (* [static_trap] rules underflow out *)
    in
    let pop_n k =
      let a = Array.make k 0 in
      for i = k - 1 downto 0 do
        a.(i) <- pop ()
      done;
      a
    in
    let move d x = if d <> x then emit (fun _ s -> s.(d) <- s.(x)) in
    (* Before local [l] is written, entries still reading it get their
       own slot. *)
    let spill l =
      let depth = List.length !stack in
      stack :=
        List.mapi
          (fun p x ->
            if x <> l then x
            else
              let j = base + depth - 1 - p in
              move j l;
              j)
          !stack
    in
    (* Every entry into its canonical slot, top first: an entry only
       ever reads a slot at or below its own depth. *)
    let canonicalize () =
      let depth = List.length !stack in
      stack :=
        List.mapi
          (fun p x ->
            let j = base + depth - 1 - p in
            move j x;
            j)
          !stack
    in
    let finish (term : block) =
      let body = chain (List.rev !ops) term in
      let count = hi - lo in
      cell.run <-
        (fun st s ->
          st.executed <- st.executed + count;
          body st s);
      cell.ready <- true
    in
    (* [target pc]: where the value-producing instruction at [pc]
       (operands already popped) stores its result — the local of a
       [STORE] that follows it in the block, or the next stack slot —
       and the pc after it. *)
    let target pc =
      match if pc + 1 < hi then insns.(pc + 1) else Insn.RETVOID with
      | Insn.STORE l when l >= 0 && l < nlocals ->
        spill l;
        l, pc + 2
      | _ ->
        let d = base + List.length !stack in
        stack := d :: !stack;
        d, pc + 1
    in
    let rec go pc =
      if pc = hi then begin
        canonicalize ();
        finish (goto pc (List.length !stack))
      end
      else
        match trap_at pc (List.length !stack) with
        | Some e -> finish (raise_ e)
        | None -> (
          match insns.(pc) with
          | Insn.CONST k ->
            stack := const_slot k :: !stack;
            go (pc + 1)
          | Insn.LOAD l ->
            stack := l :: !stack;
            go (pc + 1)
          | Insn.STORE l ->
            let x = pop () in
            spill l;
            move l x;
            go (pc + 1)
          | Insn.DUP ->
            stack := List.hd !stack :: !stack;
            go (pc + 1)
          | Insn.POP ->
            ignore (pop ());
            go (pc + 1)
          | Insn.UNOP op ->
            let x = pop () in
            let d, next = target pc in
            emit (unop_into op d x);
            go next
          | Insn.BINOP op ->
            let y = pop () in
            let x = pop () in
            let d, next = target pc in
            emit (binop_into op d x y);
            go next
          | (Insn.ALOAD | Insn.ALOAD_U) as insn ->
            let get =
              if insn = Insn.ALOAD then I.array_get else I.array_get_unchecked
            in
            let i = pop () in
            let a = pop () in
            let d, next = target pc in
            emit (fun _ s ->
                let i = as_int s.(i) in
                s.(d) <- I.Prim (get (prim s.(a)) i));
            go next
          | (Insn.ASTORE | Insn.ASTORE_U) as insn ->
            let set =
              if insn = Insn.ASTORE then I.array_set else I.array_set_unchecked
            in
            let x = pop () in
            let i = pop () in
            let a = pop () in
            emit (fun _ s ->
                let x = prim s.(x) in
                let i = as_int s.(i) in
                set (prim s.(a)) i x);
            go (pc + 1)
          | Insn.ALEN ->
            let a = pop () in
            let d, next = target pc in
            emit (fun _ s -> s.(d) <- I.Prim (V.Int (I.array_length (prim s.(a)))));
            go next
          | Insn.NEWARR ty ->
            let len = pop () in
            let d, next = target pc in
            emit (fun _ s -> s.(d) <- I.Prim (I.new_array ty (as_int s.(len))));
            go next
          | Insn.FREEZE ->
            let a = pop () in
            let d, next = target pc in
            emit (fun _ s -> s.(d) <- I.Prim (I.freeze (prim s.(a))));
            go next
          | Insn.GETFIELD slot ->
            let o = pop () in
            let d, next = target pc in
            emit (fun _ s ->
                match s.(o) with
                | I.Obj obj ->
                  if slot >= 0 && slot < Array.length obj.I.obj_fields then
                    s.(d) <- obj.I.obj_fields.(slot)
                  else fail "%s" (I.unset_field obj slot)
                | _ -> fail "getfield on a non-object");
            go next
          | Insn.PUTFIELD slot ->
            let x = pop () in
            let o = pop () in
            emit (fun _ s ->
                match s.(o) with
                | I.Obj obj ->
                  if slot >= 0 && slot < Array.length obj.I.obj_fields then
                    obj.I.obj_fields.(slot) <- s.(x)
                  else fail "%s" (I.unset_field obj slot)
                | _ -> fail "putfield on a non-object");
            go (pc + 1)
          | Insn.NEW cls ->
            let meta =
              Ir.String_map.find cls c.c_unit.Compile.u_program.Ir.classes
            in
            (* defaults are immutable, so instances may share them *)
            let defaults =
              Array.of_list
                (List.map (fun (_, ty) -> I.default_value ty) meta.Ir.cm_fields)
            in
            let d, next = target pc in
            emit (fun _ s ->
                s.(d) <- I.Obj { I.obj_class = cls; obj_fields = Array.copy defaults });
            go next
          | Insn.CALL (key, argc) ->
            let args = pop_n argc in
            let d, next = target pc in
            (match resolve c key with
            | Fn fe when fe.fe_code.Compile.c_params = argc ->
              emit (fun st s -> s.(d) <- fe.fe_run st s args)
            | _ ->
              let call = invoke c key ~argc in
              emit (fun st s -> s.(d) <- call st s args));
            go next
          | Insn.MAP desc ->
            let args = pop_n (List.length desc.Insn.bm_flags) in
            let call = invoke c desc.bm_fn ~argc:(Array.length args) in
            let d, next = target pc in
            emit (fun st s ->
                let args = values s args in
                s.(d) <-
                  (match st.hooks.on_map desc args with
                  | Some r -> r
                  | None -> eval_map st call desc args));
            go next
          | Insn.REDUCE desc ->
            let a = pop () in
            let call = invoke c desc.Insn.br_fn ~argc:2 in
            let d, next = target pc in
            emit (fun st s ->
                s.(d) <-
                  (match st.hooks.on_reduce desc s.(a) with
                  | Some r -> r
                  | None -> eval_reduce st call s.(a)));
            go next
          | Insn.MKGRAPH (uid, argc) ->
            let template =
              Ir.String_map.find uid c.c_unit.Compile.u_program.Ir.templates
            in
            let ops = pop_n argc in
            let d, next = target pc in
            emit (fun st s ->
                let ops = values s ops in
                st.graph_counter <- st.graph_counter + 1;
                st.pending <- (st.graph_counter, (template, ops)) :: st.pending;
                s.(d) <- I.Graph_handle st.graph_counter);
            go next
          | Insn.RUNGRAPH blocking ->
            let g = pop () in
            emit (fun st s ->
                match s.(g) with
                | I.Graph_handle h -> run_graph st c h ~blocking
                | _ -> fail "rungraph on a non-graph");
            go (pc + 1)
          | Insn.RET ->
            let x = pop () in
            finish (fun _ s -> s.(x))
          | Insn.RETVOID -> finish (fun _ _ -> vunit)
          | Insn.JMP t ->
            canonicalize ();
            finish (goto t (List.length !stack))
          | Insn.JMPF t ->
            let cond = pop () in
            canonicalize ();
            let depth = List.length !stack in
            let taken = goto t depth and next = goto (pc + 1) depth in
            finish (fun st s ->
                match s.(cond) with
                | I.Prim (V.Bool true) -> next st s
                | I.Prim (V.Bool false) -> taken st s
                | _ -> fail "expected a boolean on the operand stack"))
    in
    go lo
  in
  (* Later blocks first, so most jumps (forward ones) bind their
     target directly. *)
  Hashtbl.fold (fun bd cell acc -> (bd, cell) :: acc) variants []
  |> List.sort (fun (x, _) (y, _) -> compare y x)
  |> List.iter (fun (bd, cell) -> compile_block bd cell);
  let template = Array.make !nslots vunit in
  List.iter (fun (_, i, v) -> template.(i) <- v) !consts;
  let body = goto 0 0 in
  let nparams = code.c_params in
  fun st src args ->
    let s = Array.copy template in
    for i = 0 to nparams - 1 do
      s.(i) <- src.(args.(i))
    done;
    body st s

(* Inline map: each element application is a real VM call, so the
   instruction count reflects interpretation. *)
and eval_map st (call : call) (desc : Insn.map_desc) (args : v list) : v =
  let args = Array.of_list args in
  let mapped = Array.of_list desc.bm_flags in
  let n = ref (-1) in
  Array.iteri
    (fun k a ->
      if mapped.(k) then begin
        let m = I.array_length (prim a) in
        if !n < 0 then n := m
        else if m <> !n then fail "mapped arrays have different lengths"
      end)
    args;
  let n = if !n < 0 then fail "map needs at least one array argument" else !n in
  let result = I.new_array desc.bm_elem_ty n in
  (* the callee copies its arguments into a fresh frame, so one
     argument array serves every element *)
  let call_args = Array.copy args in
  let slots = Array.init (Array.length args) Fun.id in
  for i = 0 to n - 1 do
    Array.iteri
      (fun k a -> if mapped.(k) then call_args.(k) <- I.Prim (I.array_get (prim a) i))
      args;
    I.array_set result i (prim (call st call_args slots))
  done;
  I.Prim (I.freeze result)

and eval_reduce st (call : call) (arg : v) : v =
  let p = prim arg in
  let n = I.array_length p in
  if n = 0 then fail "reduce of an empty array";
  let call_args = [| I.Prim (I.array_get p 0); vunit |] in
  let slots = [| 0; 1 |] in
  for i = 1 to n - 1 do
    call_args.(1) <- I.Prim (I.array_get p i);
    call_args.(0) <- call st call_args slots
  done;
  call_args.(0)

and run_graph st c h ~blocking =
  match List.assoc_opt h st.pending with
  | None -> fail "stale task-graph handle"
  | Some (template, ops) ->
    st.pending <- List.remove_assoc h st.pending;
    let handled =
      match st.hooks.on_run_graph with
      | Some hook -> hook template ops ~blocking
      | None -> false
    in
    if not handled then run_graph_seq st c template ops

(* Default graph execution on the VM: every filter application is a
   bytecode call (the all-bytecode configuration of section 4.1). *)
and run_graph_seq st c (template : Ir.graph_template) (ops : v list) : unit =
  let take k ops =
    let rec go k acc = function
      | rest when k = 0 -> List.rev acc, rest
      | x :: rest -> go (k - 1) (x :: acc) rest
      | [] -> fail "graph template operand underflow"
    in
    go k [] ops
  in
  let nodes, rest =
    List.fold_left
      (fun (acc, ops) node ->
        let mine, ops = take (Ir.tnode_operand_count node) ops in
        (node, mine) :: acc, ops)
      ([], ops) template.Ir.gt_nodes
  in
  if rest <> [] then fail "graph template operand overflow";
  let nodes = List.rev nodes in
  let source, filters, sink =
    match nodes with
    | (Ir.N_source _, [ arr; _rate ]) :: rest -> (
      let rec split fs = function
        | [ (Ir.N_sink _, [ dest ]) ] -> List.rev fs, dest
        | (Ir.N_filter f, fops) :: rest -> split ((f, fops) :: fs) rest
        | _ -> fail "malformed graph template"
      in
      let fs, dest = split [] rest in
      prim arr, fs, prim dest)
    | _ -> fail "malformed graph template"
  in
  let stage ((f : Ir.filter_info), fops) : v -> v =
    match f.Ir.target, fops with
    | Ir.F_static key, [] ->
      let call = invoke c key ~argc:1 in
      let a = [| vunit |] in
      fun x ->
        a.(0) <- x;
        call st a [| 0 |]
    | Ir.F_instance (cls, m), [ recv ] ->
      let call = invoke c (cls ^ "." ^ m) ~argc:2 in
      let a = [| recv; vunit |] in
      fun x ->
        a.(1) <- x;
        call st a [| 0; 1 |]
    | _ -> fun _ -> fail "malformed filter operands"
  in
  let stages = List.map stage filters in
  for i = 0 to I.array_length source - 1 do
    let x = ref (I.Prim (I.array_get source i)) in
    List.iter (fun f -> x := f !x) stages;
    I.array_set sink i (prim !x)
  done

let entry ?(hooks = no_hooks) (unit_ : Compile.unit_) key : v list -> result =
  let c = compiled_for unit_ in
  let fresh () = { hooks; executed = 0; graph_counter = 0; pending = [] } in
  match resolve c key with
  | Missing -> fun _ -> fail "no function named %s" key
  | Intrinsic _ ->
    fun args ->
      let args = Array.of_list args in
      let st = fresh () in
      let call = invoke c key ~argc:(Array.length args) in
      let value = call st args (Array.init (Array.length args) Fun.id) in
      { value; executed = st.executed }
  | Fn fe ->
    let code = fe.fe_code in
    let slots = Array.init code.Compile.c_params Fun.id in
    fun args ->
      let args = Array.of_list args in
      if Array.length args <> code.c_params then
        fail "%s expects %d argument(s), got %d" code.c_key code.c_params
          (Array.length args);
      let st = fresh () in
      let value = fe.fe_run st args slots in
      { value; executed = st.executed }

let run ?hooks (unit_ : Compile.unit_) key args = entry ?hooks unit_ key args
