module Ir = Lime_ir.Ir
(* Bytecode compiler + VM tests, including differential tests against
   the reference interpreter: the two execution engines must agree
   bit-for-bit on every program (the "functionally-equivalent
   configurations" property of paper section 1). *)

module I = Lime_ir.Interp
module V = Wire.Value

let check_int = Alcotest.(check int)

let compile src =
  Bytecode.Compile.compile_program
    (Lime_ir.Lower.lower
       (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"t" src)))

let prim v = I.Prim v

let interp_value = Alcotest.testable I.pp (fun a b ->
    match a, b with
    | I.Prim x, I.Prim y -> V.equal x y
    | _ -> a == b)

(* Run the same entry point on the VM and the interpreter and require
   identical results. *)
let differential unit_ key args =
  let vm = (Bytecode.Vm.run unit_ key args).value in
  let ref_ = I.call unit_.Bytecode.Compile.u_program key args in
  Alcotest.check interp_value (key ^ " (vm = interp)") ref_ vm;
  vm

let fig1 = compile Test_syntax.figure1_source

let test_fig1_on_vm () =
  let input = prim (V.Bits (Bits.Bitvec.of_literal "101010101")) in
  (match differential fig1 "Bitflip.mapFlip" [ input ] with
  | I.Prim (V.Bits b) ->
    Alcotest.(check string) "mapFlip" "010101010" (Bits.Bitvec.to_literal b)
  | v -> Alcotest.failf "got %a" I.pp v);
  match differential fig1 "Bitflip.taskFlip" [ input ] with
  | I.Prim (V.Bits b) ->
    Alcotest.(check string) "taskFlip" "010101010" (Bits.Bitvec.to_literal b)
  | v -> Alcotest.failf "got %a" I.pp v

let test_sum_program () =
  let u = compile Test_ir.sum_src in
  let xs = prim (V.Int_array [| 5; 6; 7 |]) in
  (match differential u "Sum.sumOfSquares" [ xs ] with
  | I.Prim (V.Int 110) -> ()
  | v -> Alcotest.failf "sumOfSquares: %a" I.pp v);
  match differential u "Sum.loopSum" [ xs ] with
  | I.Prim (V.Int 18) -> ()
  | v -> Alcotest.failf "loopSum: %a" I.pp v

let test_control_flow () =
  let u =
    compile
      {|
class C {
  local static int collatzSteps(int n) {
    int steps = 0;
    while (n != 1) {
      if (n % 2 == 0) {
        n = n / 2;
      } else {
        n = 3 * n + 1;
      }
      steps++;
    }
    return steps;
  }
  local static int gcd(int a, int b) {
    while (b != 0) {
      int t = b;
      b = a % b;
      a = t;
    }
    return a;
  }
}
|}
  in
  (match differential u "C.collatzSteps" [ prim (V.Int 27) ] with
  | I.Prim (V.Int 111) -> ()
  | v -> Alcotest.failf "collatz: %a" I.pp v);
  match differential u "C.gcd" [ prim (V.Int 1071); prim (V.Int 462) ] with
  | I.Prim (V.Int 21) -> ()
  | v -> Alcotest.failf "gcd: %a" I.pp v

let test_stateful_pipeline_on_vm () =
  let u =
    compile
      {|
class Acc {
  int total;
  local Acc(int start) { total = start; }
  local int push(int x) { total += x; return total; }
}
class Main {
  static int[[]] prefixSums(int[[]] xs) {
    int[] out = new int[xs.length];
    var acc = new Acc(0);
    var g = xs.source(1) => ([ task acc.push ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  match differential u "Main.prefixSums" [ prim (V.Int_array [| 2; 4; 8 |]) ] with
  | I.Prim (V.Int_array [| 2; 6; 14 |]) -> ()
  | v -> Alcotest.failf "prefixSums: %a" I.pp v

let test_instruction_counting () =
  let u =
    compile
      {|
class C {
  local static int sumTo(int n) {
    int acc = 0;
    for (int i = 1; i <= n; i++) {
      acc += i;
    }
    return acc;
  }
}
|}
  in
  let r10 = Bytecode.Vm.run u "C.sumTo" [ prim (V.Int 10) ] in
  let r100 = Bytecode.Vm.run u "C.sumTo" [ prim (V.Int 100) ] in
  (match r100.value with
  | I.Prim (V.Int 5050) -> ()
  | v -> Alcotest.failf "sumTo(100): %a" I.pp v);
  Alcotest.(check bool)
    "instruction count scales with work" true
    (r100.executed > 5 * r10.executed);
  check_int "deterministic count" r10.executed
    (Bytecode.Vm.run u "C.sumTo" [ prim (V.Int 10) ]).executed

let test_disassembler () =
  let code =
    Ir.String_map.find "Bitflip.flip" fig1.Bytecode.Compile.u_funcs
  in
  let text = Bytecode.Compile.disassemble code in
  Alcotest.(check bool) "mentions call" true
    (Test_types.contains text "call bit");
  Alcotest.(check bool) "one-instruction body has load" true
    (Test_types.contains text "load 0")

let test_vm_errors () =
  let u =
    compile
      {|
class C {
  local static int div(int a, int b) { return a / b; }
}
|}
  in
  (match Bytecode.Vm.run u "C.div" [ prim (V.Int 1); prim (V.Int 0) ] with
  | exception I.Runtime_error _ -> ()
  | exception Bytecode.Vm.Vm_error _ -> ()
  | _ -> Alcotest.fail "expected a trap");
  match Bytecode.Vm.run u "C.nothere" [] with
  | exception Bytecode.Vm.Vm_error _ -> ()
  | _ -> Alcotest.fail "expected missing-function error"

(* Exact instruction counts, captured from the per-instruction stack
   interpreter the compiled VM replaced: block-level charging must add
   up to the same total. *)
let test_exact_counts () =
  let u =
    compile
      {|
class C {
  local static int sumTo(int n) {
    int acc = 0;
    for (int i = 1; i <= n; i++) {
      acc += i;
    }
    return acc;
  }
}
|}
  in
  let count n = (Bytecode.Vm.run u "C.sumTo" [ prim (V.Int n) ]).executed in
  check_int "sumTo 10" 202 (count 10);
  check_int "sumTo 100" 1912 (count 100)

(* --- trap parity ------------------------------------------------------

   Every trap raises the exception constructor and message the
   per-instruction stack interpreter raised (expected strings captured
   from it). Hand-built code covers the traps [Compile] never emits. *)

let traps_src =
  {|
class Box { int v; public Box(int x){v=x;} int val(){return v;} }
class Holder { Box b; public Holder(){} int get(){return b.val();} static int main(int n){ return new Holder().get()+n; } }
class C {
  local static int div(int a, int b) { return a / b; }
  local static int get(int[[]] xs, int i) { return xs[i]; }
}
|}

let outcome f =
  match f () with
  | (r : Bytecode.Vm.result) ->
    Format.asprintf "ok %a %d" I.pp r.value r.executed
  | exception Bytecode.Vm.Vm_error m -> "Vm_error: " ^ m
  | exception I.Runtime_error m -> "Runtime_error: " ^ m
  | exception Invalid_argument m -> "Invalid_argument: " ^ m

let test_trap_parity () =
  let u = compile traps_src in
  let int n = prim (V.Int n) in
  (* [K.f]: one hand-built function added to the unit *)
  let hand ?(ret = Ir.I32) ?(params = 1) insns =
    let code =
      {
        Bytecode.Compile.c_key = "K.f";
        c_insns = Array.of_list insns;
        c_slots = 2;
        c_params = params;
        c_ret = ret;
      }
    in
    { u with Bytecode.Compile.u_funcs = Ir.String_map.add "K.f" code u.u_funcs }
  in
  let run ?(u = u) key args () = Bytecode.Vm.run u key args in
  let f ?ret ?params insns args = run ~u:(hand ?ret ?params insns) "K.f" args in
  let xs = prim (V.Int_array [| 1; 2; 3 |]) in
  let obj = I.default_value (Ir.Obj "Box") in
  let g = I.Graph_handle 2 in
  let open Bytecode.Insn in
  let cases =
    [
      "division by zero", run "C.div" [ int 1; int 0 ],
      "Runtime_error: division by zero";
      "index out of bounds", run "C.get" [ xs; int 3 ],
      "Runtime_error: array index 3 out of bounds (length 3)";
      "unchecked load out of bounds",
      f ~params:2 [ LOAD 0; LOAD 1; ALOAD_U; RET ] [ xs; int 5 ],
      "Invalid_argument: index out of bounds";
      "unchecked load of a non-array",
      f ~params:2 [ LOAD 0; LOAD 1; ALOAD_U; RET ] [ int 4; int 0 ],
      "Runtime_error: indexing a non-array int";
      "unchecked store into bits",
      f ~params:2 ~ret:Ir.Unit
        [ LOAD 0; LOAD 1; CONST (Ir.C_bit true); ASTORE_U; RETVOID ]
        [ prim (V.Bits (Bits.Bitvec.of_literal "101")); int 0 ],
      "Runtime_error: value bit arrays are immutable";
      "missing function", run "C.nothere" [],
      "Vm_error: no function named C.nothere";
      "missing callee", f [ LOAD 0; CALL ("C.nothere", 1); RET ] [ int 1 ],
      "Vm_error: no function named C.nothere";
      "wrong argument count", run "C.div" [ int 1 ],
      "Vm_error: C.div expects 2 argument(s), got 1";
      "call with wrong argument count",
      f [ LOAD 0; CALL ("C.div", 1); RET ] [ int 1 ],
      "Vm_error: C.div expects 2 argument(s), got 1";
      "intrinsic with wrong argument count",
      f [ LOAD 0; LOAD 0; CALL ("Math.sqrt", 2); RET ] [ prim (V.Float 2.0) ],
      "Vm_error: Math.sqrt expects one float argument";
      "unknown class", f [ NEW "Nope"; RET ] [ int 1 ],
      "Vm_error: no class named Nope";
      "stale graph handle",
      f ~ret:Ir.Unit [ LOAD 0; RUNGRAPH true; RETVOID ] [ I.Graph_handle 7 ],
      "Vm_error: stale task-graph handle";
      "unknown graph template", f [ MKGRAPH ("nope", 3); RET ] [ int 1 ],
      "Vm_error: no task-graph template nope";
      "non-void falling off the end", f [ CONST (Ir.C_i32 1); POP ] [ int 1 ],
      "Vm_error: K.f fell off the end without returning a value";
      "empty body", f [] [ int 1 ],
      "Vm_error: K.f fell off the end without returning a value";
      "underflow at pop", f [ POP; RET ] [ int 1 ],
      "Vm_error: operand stack underflow in K.f at 0";
      "underflow at binop", f [ LOAD 0; BINOP Ir.Add_i; RET ] [ int 1 ],
      "Vm_error: operand stack underflow in K.f at 1";
      "underflow at call", f [ LOAD 0; CALL ("C.div", 2); RET ] [ int 1 ],
      "Vm_error: operand stack underflow calling C.div";
      "negative argument count", f [ LOAD 0; CALL ("C.div", -1); RET ] [ int 1 ],
      "Vm_error: operand stack underflow calling C.div";
      "underflow at ret", f [ RET ] [ int 1 ],
      "Vm_error: operand stack underflow in K.f at 0";
      "branch on a non-boolean", f [ LOAD 0; JMPF 0; LOAD 0; RET ] [ int 1 ],
      "Vm_error: expected a boolean on the operand stack";
      "getfield on a non-object", f [ LOAD 0; GETFIELD 0; RET ] [ int 1 ],
      "Vm_error: getfield on a non-object";
      (* operands convert in the stack machine's order *)
      "binop converts its right operand first",
      f ~params:2 [ LOAD 0; LOAD 1; BINOP Ir.Add_i; RET ] [ obj; g ],
      "Runtime_error: expected a value but found a task graph";
      "aload converts its index first",
      f ~params:2 [ LOAD 0; LOAD 1; ALOAD; RET ] [ g; prim (V.Float 1.0) ],
      "Vm_error: expected an int on the operand stack";
      "astore converts its value first",
      f ~params:2 ~ret:Ir.Unit [ LOAD 0; LOAD 1; LOAD 1; ASTORE; RETVOID ]
        [ g; obj ],
      "Runtime_error: expected a value but found an instance of Box";
      "intrinsic converts left to right",
      f ~params:2 [ LOAD 0; LOAD 1; CALL ("Math.pow", 2); RET ] [ g; obj ],
      "Runtime_error: expected a value but found a task graph";
      (* operand-stack values that outlive a store to their local, or
         cross a jump, keep the value and count they had *)
      "load, then store to the same local",
      f [ LOAD 0; CONST (Ir.C_i32 5); STORE 0; RET ] [ int 1 ], "ok 1 4";
      "stack across a jump", f [ LOAD 0; JMP 2; RET ] [ int 7 ], "ok 7 3";
      "float constants differing only in sign",
      f [ CONST (Ir.C_f32 0.0); POP; CONST (Ir.C_f32 (-0.0)); RET ] [ int 1 ],
      "ok -0 4";
      "stack across a taken branch",
      f ~params:2
        [ LOAD 0; LOAD 1; JMPF 5; CONST (Ir.C_i32 10); BINOP Ir.Add_i; RET ]
        [ int 1; prim (V.Bool true) ],
      "ok 11 6";
      "stack across an untaken branch",
      f ~params:2
        [ LOAD 0; LOAD 1; JMPF 5; CONST (Ir.C_i32 10); BINOP Ir.Add_i; RET ]
        [ int 1; prim (V.Bool false) ],
      "ok 1 4";
      "stack across a loop",
      f
        [
          LOAD 0; DUP; CONST (Ir.C_i32 3); BINOP Ir.Lt_i; JMPF 8;
          CONST (Ir.C_i32 1); BINOP Ir.Add_i; JMP 1; RET;
        ]
        [ int 0 ],
      "ok 3 27";
    ]
  in
  List.iter
    (fun (name, thunk, expected) ->
      Alcotest.(check string) name expected (outcome thunk))
    cases;
  (* effects before a trap in the same block still happen *)
  let arr = [| 0 |] in
  Alcotest.(check string)
    "trap after a store" "Runtime_error: division by zero"
    (outcome
       (f ~params:2 ~ret:Ir.Unit
          [
            LOAD 0; CONST (Ir.C_i32 0); CONST (Ir.C_i32 9); ASTORE;
            LOAD 1; LOAD 1; BINOP Ir.Div_i; POP; RETVOID;
          ]
          [ prim (V.Int_array arr); int 0 ]));
  check_int "store before the trap" 9 arr.(0);
  (* A join reached with two stack depths (never emitted by [Compile])
     is compiled once per depth: each path behaves as it did on a
     dynamic operand stack. *)
  let join = [ LOAD 0; JMPF 3; CONST (Ir.C_i32 1); RET ] in
  Alcotest.(check string)
    "join reached with one operand" "ok 1 4"
    (outcome (f join [ prim (V.Bool true) ]));
  Alcotest.(check string)
    "join reached with none" "Vm_error: operand stack underflow in K.f at 3"
    (outcome (f join [ prim (V.Bool false) ]));
  (* a stack that grows on every iteration has no finite slot layout *)
  Alcotest.(check string)
    "operand stack growing around a loop"
    "Vm_error: unbounded operand stack growth in K.f at 0"
    (outcome
       (f [ LOAD 0; JMPF 4; CONST (Ir.C_i32 1); JMP 0; RET ] [ prim (V.Bool true) ]))

(* An object-typed field that was never assigned holds a field-less
   default instance: both engines trap with one typed message. *)
let test_unset_field () =
  let u = compile traps_src in
  let args = [ prim (V.Int 3) ] in
  let expected = "field slot 0 of Box accessed through an unset reference" in
  (match Bytecode.Vm.run u "Holder.main" args with
  | exception Bytecode.Vm.Vm_error m -> Alcotest.(check string) "vm" expected m
  | _ -> Alcotest.fail "vm: expected a trap");
  match I.call u.Bytecode.Compile.u_program "Holder.main" args with
  | exception I.Runtime_error m -> Alcotest.(check string) "interp" expected m
  | _ -> Alcotest.fail "interp: expected a trap"

(* Property: for random inputs, VM and interpreter agree on a small
   arithmetic-heavy kernel. *)
let mix_src =
  {|
class Mix {
  local static int mix(int a, int b) {
    int x = a ^ (b << 3);
    x = x + (a * 7) - (b / (1 + (a & 15)));
    if (x > 1000) {
      x = x % 1001;
    } else {
      x = -x;
    }
    return x ^ (x >> 2);
  }
}
|}

let prop_vm_matches_interp =
  let u = compile mix_src in
  QCheck2.Test.make ~name:"vm: agrees with interpreter on Mix.mix" ~count:300
    QCheck2.Gen.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b) ->
      let args = [ prim (V.Int a); prim (V.Int b) ] in
      let vm = (Bytecode.Vm.run u "Mix.mix" args).value in
      let ref_ = I.call u.Bytecode.Compile.u_program "Mix.mix" args in
      match vm, ref_ with
      | I.Prim x, I.Prim y -> V.equal x y
      | _ -> false)

let suite =
  ( "bytecode",
    [
      Alcotest.test_case "figure 1 on the VM" `Quick test_fig1_on_vm;
      Alcotest.test_case "map/reduce program" `Quick test_sum_program;
      Alcotest.test_case "control flow" `Quick test_control_flow;
      Alcotest.test_case "stateful pipeline" `Quick test_stateful_pipeline_on_vm;
      Alcotest.test_case "instruction counting" `Quick test_instruction_counting;
      Alcotest.test_case "disassembler" `Quick test_disassembler;
      Alcotest.test_case "vm traps" `Quick test_vm_errors;
      Alcotest.test_case "exact instruction counts" `Quick test_exact_counts;
      Alcotest.test_case "trap parity" `Quick test_trap_parity;
      Alcotest.test_case "unset object field" `Quick test_unset_field;
      QCheck_alcotest.to_alcotest prop_vm_matches_interp;
    ] )
