(* Failure injection: dynamic errors must surface as errors (never
   wrong answers or hangs) on every execution path, and malformed API
   use must be rejected. *)

module Lm = Liquid_metal.Lm
module I = Lime_ir.Interp
module V = Wire.Value

let check_bool = Alcotest.(check bool)

(* A pipeline whose filter traps on a specific element. *)
let trapping_src =
  {|
class P {
  local static int risky(int x) {
    return 100 / (x - 5);
  }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task risky ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}

let traps f =
  match f () with
  | exception I.Runtime_error _ -> true
  | exception Bytecode.Vm.Vm_error _ -> true
  | exception Gpu.Simt.Device_error _ -> true
  | exception Rtl.Sim.Simulation_error _ -> true
  | _ -> false

let test_filter_trap_propagates_per_policy () =
  let bad = Lm.int_array [| 1; 2; 5; 9 |] in
  let good = Lm.int_array [| 1; 2; 6; 9 |] in
  List.iter
    (fun policy ->
      let s = Lm.load ~policy trapping_src in
      check_bool "trap surfaces" true (traps (fun () -> Lm.run s "P.run" [ bad ]));
      (* and the engine still works afterwards *)
      match Lm.run s "P.run" [ good ] with
      | I.Prim (V.Int_array [| -25; -33; 100; 25 |]) -> ()
      | v -> Alcotest.failf "bad recovery result %s" (Lm.show v))
    [
      Runtime.Substitute.Bytecode_only;
      Runtime.Substitute.Prefer_accelerators;
      Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ];
      Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Native ];
    ]

let test_map_trap_propagates () =
  let src =
    {|
class M {
  local static int inv(int x) { return 1000 / x; }
  static int[[]] run(int[[]] xs) { return M @ inv(xs); }
}
|}
  in
  List.iter
    (fun policy ->
      let s = Lm.load ~policy src in
      check_bool "map trap surfaces" true
        (traps (fun () -> Lm.run s "M.run" [ Lm.int_array [| 4; 0; 2 |] ])))
    [ Runtime.Substitute.Bytecode_only; Runtime.Substitute.Prefer_accelerators ]

let test_sink_too_small () =
  let src =
    {|
class S {
  local static int id(int x) { return x; }
  static void run(int[[]] xs) {
    int[] out = new int[2];
    var g = xs.source(1) => ([ task id ]) => out.<int>sink();
    g.finish();
  }
}
|}
  in
  let s = Lm.load ~policy:Runtime.Substitute.Bytecode_only src in
  check_bool "overflowing sink traps" true
    (traps (fun () -> Lm.run s "S.run" [ Lm.int_array [| 1; 2; 3 |] ]))

let test_unknown_entry_point () =
  let s = Lm.load "class C { local static int f(int x) { return x; } }" in
  check_bool "unknown entry" true (traps (fun () -> Lm.run s "C.nope" []))

let test_wrong_arity () =
  let s = Lm.load "class C { local static int f(int x) { return x; } }" in
  check_bool "wrong arity" true (traps (fun () -> Lm.run s "C.f" []))

let test_negative_array_length () =
  let s =
    Lm.load
      "class C { local static int f(int n) { int[] a = new int[n]; return \
       a.length; } }"
  in
  check_bool "negative length traps" true
    (traps (fun () -> Lm.run s "C.f" [ Lm.int (-3) ]));
  match Lm.run s "C.f" [ Lm.int 4 ] with
  | I.Prim (V.Int 4) -> ()
  | v -> Alcotest.failf "got %s" (Lm.show v)

(* Stateful filters that trap inside the RTL simulator (which runs
   them on the VM) report the bytecode path's exact message: a
   division by zero, and a field read through a receiver that was
   never assigned (the field-less default instance). *)
let fpga_trap_programs =
  [
    ( "division by zero",
      {|
class Acc {
  int total;
  local Acc(int start) { total = start; }
  local int push(int x) { total += x; return total / x; }
}
class Main {
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var acc = new Acc(0);
    var g = xs.source(1) => ([ task acc.push ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|} );
    ( "unset receiver",
      {|
class Acc {
  int total;
  local Acc(int start) { total = start; }
  local int push(int x) { total += x; return total; }
}
class Holder { Acc acc; public Holder() {} Acc get() { return acc; } }
class Main {
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var acc = new Holder().get();
    var g = xs.source(1) => ([ task acc.push ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|} );
  ]

let test_fpga_trap_parity () =
  let trap policy src =
    let s = Lm.load ~policy src in
    match Lm.run s "Main.run" [ Lm.int_array [| 1; 2; 0; 3 |] ] with
    | v -> Alcotest.failf "expected a trap, got %s" (Lm.show v)
    | exception (I.Runtime_error m | Bytecode.Vm.Vm_error m) -> m
  in
  List.iter
    (fun (what, src) ->
      let sink = Support.Trace.ring () in
      Support.Trace.set_sink sink;
      let on_fpga =
        Fun.protect
          ~finally:(fun () -> Support.Trace.set_sink Support.Trace.null)
          (fun () ->
            trap
              (Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ])
              src)
      in
      check_bool (what ^ ": trapped in the RTL simulator") true
        (List.exists
           (function
             | Support.Trace.Span { cat = "fpga"; _ } -> true
             | _ -> false)
           (Support.Trace.events sink));
      Alcotest.(check string) (what ^ ": bytecode message")
        (trap Runtime.Substitute.Bytecode_only src)
        on_fpga)
    fpga_trap_programs

let test_infinite_rtl_guard () =
  (* A wedged netlist must hit the cycle guard, not hang. *)
  let prog =
    Lime_ir.Lower.lower
      (Lime_types.Typecheck.check
         (Lime_syntax.Parser.parse ~file:"t" Test_syntax.figure1_source))
  in
  let filters = List.map snd (Lime_ir.Ir.filter_sites prog) in
  let pl =
    Rtl.Synth.pipeline_of_chain prog ~name:"guard"
      (List.map (fun f -> f, None) filters)
  in
  match
    Rtl.Sim.run ~max_cycles:5 (Bytecode.Compile.compile_program prog) pl
      (List.init 50 (fun _ -> V.Bit true))
  with
  | exception Rtl.Sim.Simulation_error _ -> ()
  | _ -> Alcotest.fail "expected the max-cycles guard to fire"

let test_stale_source_text_error_quality () =
  (* Frontend errors carry location and phase. *)
  match Lm.load "class C { local static int f(int x) { return y; } }" with
  | exception Support.Diag.Compile_error d ->
    check_bool "has phase" true (d.phase = "typecheck");
    check_bool "mentions name" true (Test_types.contains d.message "y");
    check_bool "has location" true (d.loc.line > 0)
  | _ -> Alcotest.fail "expected a compile error"

(* Malformed device launches surface as typed [Device_error]s, never
   stray OCaml exceptions ([Failure "nth"], [Invalid_argument]). The IR
   is built by hand: the frontend never produces these shapes. *)
module Ir = Lime_ir.Ir

let device_prog () : Ir.program =
  let var id = { Ir.v_id = id; v_name = Printf.sprintf "v%d" id; v_ty = Ir.I32 } in
  let fn key params body =
    {
      Ir.fn_key = key;
      fn_kind = Ir.K_static;
      fn_params = params;
      fn_ret = Ir.I32;
      fn_body = body;
      fn_local = true;
      fn_pure = true;
      fn_loc = Support.Srcloc.dummy;
    }
  in
  let x = var 0 and r = var 1 in
  let funcs =
    [
      (* T.id(x) = x *)
      fn "T.id" [ x ] [ Ir.I_return (Some (Ir.O_var x)) ];
      (* T.bad(x) = T.id(x, x): one argument too many *)
      fn "T.bad" [ x ]
        [
          Ir.I_let (r, Ir.R_call ("T.id", [ Ir.O_var x; Ir.O_var x ]));
          Ir.I_return (Some (Ir.O_var r));
        ];
    ]
  in
  {
    Ir.funcs =
      List.fold_left
        (fun m (f : Ir.func) -> Ir.String_map.add f.fn_key f m)
        Ir.String_map.empty funcs;
    classes = Ir.String_map.empty;
    enums = Ir.String_map.empty;
    templates = Ir.String_map.empty;
  }

let map_site fn n_args : Ir.map_site =
  {
    Ir.map_uid = fn ^ ".map";
    map_fn = fn;
    map_args =
      List.init n_args (fun i ->
          Ir.O_var { Ir.v_id = i; v_name = "xs"; v_ty = Ir.Arr Ir.I32 }, true);
    map_elem_ty = Ir.I32;
    map_loc = Support.Srcloc.dummy;
  }

let device_error what f =
  match f () with
  | exception Gpu.Simt.Device_error m ->
    check_bool (what ^ ": " ^ m) true (Test_types.contains m "argument")
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: no error" what

let test_device_call_arity () =
  let prog = device_prog () in
  let xs = V.Int_array [| 1; 2; 3 |] in
  device_error "call with too many arguments" (fun () ->
      Gpu.Simt.run_map prog (map_site "T.bad" 1) [ xs ]);
  device_error "kernel with too many mapped operands" (fun () ->
      Gpu.Simt.run_map prog (map_site "T.id" 2) [ xs; xs ]);
  device_error "reduce over a one-parameter combiner" (fun () ->
      Gpu.Simt.run_reduce prog
        {
          Ir.red_uid = "T.id.reduce";
          red_fn = "T.id";
          red_arg = Ir.O_const (Ir.C_i32 0);
          red_elem_ty = Ir.I32;
          red_loc = Support.Srcloc.dummy;
        }
        xs)

let test_map_argument_count () =
  let prog = device_prog () in
  let xs = V.Int_array [| 1; 2; 3 |] in
  device_error "more arguments than map operands" (fun () ->
      Gpu.Simt.run_map prog (map_site "T.id" 1) [ xs; xs ]);
  device_error "fewer arguments than map operands" (fun () ->
      Gpu.Simt.run_map prog (map_site "T.id" 2) [ xs ])

let suite =
  ( "failures",
    [
      Alcotest.test_case "filter trap propagates (all policies)" `Quick
        test_filter_trap_propagates_per_policy;
      Alcotest.test_case "map trap propagates" `Quick test_map_trap_propagates;
      Alcotest.test_case "sink too small" `Quick test_sink_too_small;
      Alcotest.test_case "unknown entry" `Quick test_unknown_entry_point;
      Alcotest.test_case "device call arity" `Quick test_device_call_arity;
      Alcotest.test_case "map argument count" `Quick test_map_argument_count;
      Alcotest.test_case "wrong arity" `Quick test_wrong_arity;
      Alcotest.test_case "negative array length" `Quick test_negative_array_length;
      Alcotest.test_case "rtl cycle guard" `Quick test_infinite_rtl_guard;
      Alcotest.test_case "fpga trap parity" `Quick test_fpga_trap_parity;
      Alcotest.test_case "frontend error quality" `Quick
        test_stale_source_text_error_quality;
    ] )
