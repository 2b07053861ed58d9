(* Workload-suite tests: every benchmark program compiles through all
   backends, validates against its OCaml reference, and produces
   identical results under every substitution policy. *)

module Lm = Liquid_metal.Lm
module V = Wire.Value
open Workloads

let check_bool = Alcotest.(check bool)

let small_size (w : Workloads.t) =
  match w.name with
  | "matmul" -> 8
  | "conv2d" -> 8
  | "nbody" -> 16
  | "mandelbrot" -> 12
  | "blackscholes" -> 64
  | _ -> 64

let value_equal (a : Lm.I.v) (b : Lm.I.v) =
  match a, b with
  | Lm.I.Prim x, Lm.I.Prim y -> V.equal x y
  | _ -> false

let test_workload (w : Workloads.t) () =
  let size = small_size w in
  let bytecode = Lm.load ~policy:Runtime.Substitute.Bytecode_only w.source in
  let accel = Lm.load ~policy:Runtime.Substitute.Prefer_accelerators w.source in
  let r_bc = Lm.run bytecode w.entry (w.args ~size) in
  let r_ac = Lm.run accel w.entry (w.args ~size) in
  check_bool
    (w.name ^ ": bytecode and accelerated results identical")
    true (value_equal r_bc r_ac);
  (match w.validate with
  | Some validate -> (
    match validate ~size r_ac with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)
  | None -> ());
  (* the GPU-class workloads must actually reach the accelerator *)
  match w.category with
  | Gpu_map ->
    check_bool (w.name ^ ": gpu kernel launched") true
      ((Lm.metrics accel).gpu_kernels > 0)
  | Pipeline | Fpga_stream ->
    check_bool (w.name ^ ": substitution happened") true
      ((Lm.metrics accel).substitutions <> [])

let test_fpga_stream_on_fpga (w : Workloads.t) () =
  let size = small_size w in
  let s =
    Lm.load ~policy:(Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ])
      w.source
  in
  let r = Lm.run s w.entry (w.args ~size) in
  (match w.validate with
  | Some validate -> (
    match validate ~size r with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)
  | None -> ());
  check_bool (w.name ^ ": ran on the rtl simulator") true
    ((Lm.metrics s).fpga_runs > 0)

let test_catalog () =
  Alcotest.(check int) "thirteen workloads" 13 (List.length Workloads.all);
  check_bool "find works" true (Workloads.find "saxpy" == Workloads.saxpy);
  (match Workloads.find "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "find of unknown should raise");
  List.iter
    (fun (w : Workloads.t) ->
      check_bool (w.name ^ " has description") true (w.description <> "");
      check_bool (w.name ^ " default size positive") true (w.default_size > 0))
    Workloads.all

let test_rng_determinism () =
  let a = Workloads.Rng.create () in
  let b = Workloads.Rng.create () in
  check_bool "same stream" true
    (List.init 20 (fun _ -> Workloads.Rng.int a 1000)
    = List.init 20 (fun _ -> Workloads.Rng.int b 1000));
  let arr = Workloads.Rng.float_array (Workloads.Rng.create ()) 100 ~lo:0.0 ~hi:1.0 in
  check_bool "floats in range" true
    (Array.for_all (fun f -> f >= 0.0 && f < 1.0) arr);
  check_bool "floats are f32" true
    (Array.for_all (fun f -> f = V.f32 f) arr)

(* Golden VM records at default size, captured from the per-instruction
   stack interpreter the compiled VM replaced: per workload, the MD5 of
   [Lm.show] of the output, then [Metrics.vm_instructions] and
   [Metrics.native_instructions]. Bytecode-only runs everything on the
   VM; native-first runs the kernels as native code, whose instruction
   count is the same bytecode's. *)
let vm_golden =
  [
    ( "bytecode-only",
      Runtime.Substitute.Bytecode_only,
      [
        "saxpy", "dbb3a41e3f0772bbd8a29ad4acb11e5a", 163847, 0;
        "dotproduct", "ce2e8f18d023bd0bb4e1978a6c00422c", 196611, 0;
        "matmul", "b15219ed48c5722351e20ed3c4e6579f", 5292318, 0;
        "conv2d", "c0e075747e70da921f05f1f60f00aa12", 4259103, 0;
        "nbody", "d3a98d4e19839176be9897190a9a1327", 5240343, 0;
        "blackscholes", "94702f906c1bee35e786e10ec0b0eb28", 1085024, 0;
        "mandelbrot", "e1700543bd96592708cdcb7db45e53cb", 11782819, 0;
        "sumsq", "da4213639b8e2b466be233e7686ed3be", 786434, 0;
        "bitflip", "b13f1e62a5d7d21f760a262baa2d99db", 3983, 0;
        "dsp_chain", "668d6e147d023510dc5b9f1b23f7a495", 12610, 0;
        "prefix_sum", "d5a1a800b3c5b24320cae1976f0e4807", 7709, 0;
        "fir4", "2fa765683c0bb3137fd12d17c68f3ded", 27683, 0;
        "crc8", "8447a3e5cade17c7f7ccf420eb61f688", 100201, 0;
      ] );
    ( "native-first",
      Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Native ],
      [
        "saxpy", "dbb3a41e3f0772bbd8a29ad4acb11e5a", 7, 163840;
        "dotproduct", "ce2e8f18d023bd0bb4e1978a6c00422c", 9, 196602;
        "matmul", "b15219ed48c5722351e20ed3c4e6579f", 48414, 5243904;
        "conv2d", "c0e075747e70da921f05f1f60f00aa12", 86047, 4173056;
        "nbody", "d3a98d4e19839176be9897190a9a1327", 4375, 5235968;
        "blackscholes", "94702f906c1bee35e786e10ec0b0eb28", 9, 1085015;
        "mandelbrot", "e1700543bd96592708cdcb7db45e53cb", 193566, 11589253;
        "sumsq", "da4213639b8e2b466be233e7686ed3be", 26, 786408;
        "bitflip", "b13f1e62a5d7d21f760a262baa2d99db", 18, 3965;
        "dsp_chain", "668d6e147d023510dc5b9f1b23f7a495", 18, 14640;
        "prefix_sum", "d5a1a800b3c5b24320cae1976f0e4807", 29, 7680;
        "fir4", "2fa765683c0bb3137fd12d17c68f3ded", 35, 27648;
        "crc8", "8447a3e5cade17c7f7ccf420eb61f688", 29, 100172;
      ] );
  ]

let test_vm_golden () =
  List.iter
    (fun (label, policy, records) ->
      List.iter
        (fun (name, digest, vm, native) ->
          let w = Workloads.find name in
          let s = Lm.load ~policy w.source in
          let r = Lm.run s w.entry (w.args ~size:w.default_size) in
          let m = Lm.metrics s in
          let what = Printf.sprintf "%s %s " label name in
          Alcotest.(check string)
            (what ^ "output") digest
            (Digest.to_hex (Digest.string (Lm.show r)));
          Alcotest.(check int) (what ^ "vm instructions") vm m.vm_instructions;
          Alcotest.(check int)
            (what ^ "native instructions") native m.native_instructions)
        records)
    vm_golden

let suite =
  ( "workloads",
    Alcotest.test_case "catalog" `Quick test_catalog
    :: Alcotest.test_case "rng determinism" `Quick test_rng_determinism
    :: Alcotest.test_case "golden vm records" `Quick test_vm_golden
    :: List.map
         (fun (w : Workloads.t) ->
           Alcotest.test_case (w.name ^ " validates") `Quick (test_workload w))
         Workloads.all
    @ List.filter_map
        (fun (w : Workloads.t) ->
          match w.category with
          | Fpga_stream | Pipeline ->
            Some
              (Alcotest.test_case (w.name ^ " on fpga") `Quick
                 (test_fpga_stream_on_fpga w))
          | Gpu_map -> None)
        Workloads.all )
