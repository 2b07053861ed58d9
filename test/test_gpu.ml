module Ir = Lime_ir.Ir
(* GPU substrate tests: functional equivalence with the CPU paths,
   timing-model shape (parallel scaling, divergence, bandwidth), the
   suitability analysis, and the OpenCL artifact text. *)

module I = Lime_ir.Interp
module V = Wire.Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile src =
  Lime_ir.Lower.lower
    (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"t" src))

let saxpy_src =
  {|
class M {
  local static float axpy(float a, float x, float y) { return a * x + y; }
  local static float addf(float a, float b) { return a + b; }
  static float[[]] saxpy(float a, float[[]] xs, float[[]] ys) {
    return M @ axpy(a, xs, ys);
  }
  static float sum(float[[]] xs) { return M @@ addf(xs); }
}
|}

let saxpy_prog = compile saxpy_src

let map_site prog =
  match Ir.kernel_sites prog with
  | `Map m :: _ -> m
  | _ -> Alcotest.fail "expected a map site"

let reduce_site prog =
  match
    List.find_opt (function `Reduce _ -> true | `Map _ -> false)
      (Ir.kernel_sites prog)
  with
  | Some (`Reduce r) -> r
  | _ -> Alcotest.fail "expected a reduce site"

let test_map_matches_interpreter () =
  let site = map_site saxpy_prog in
  let xs = V.Float_array (Array.init 100 (fun i -> V.f32 (float_of_int i))) in
  let ys = V.Float_array (Array.init 100 (fun i -> V.f32 (float_of_int (i * 2)))) in
  let a = V.Float 1.5 in
  let gpu, _ = Gpu.Simt.run_map saxpy_prog site [ a; xs; ys ] in
  let expected =
    V.Float_array
      (Array.init 100 (fun i ->
           V.add_f32 (V.mul_f32 1.5 (V.f32 (float_of_int i)))
             (V.f32 (float_of_int (i * 2)))))
  in
  check_bool "bitwise equal to CPU arithmetic" true (V.equal gpu expected)

let test_reduce_matches_left_fold () =
  let site = reduce_site saxpy_prog in
  let xs = V.Float_array (Array.init 33 (fun i -> V.f32 (float_of_int i /. 7.0))) in
  let gpu, timing = Gpu.Simt.run_reduce saxpy_prog site xs in
  (* The value semantics are the left fold, so every device agrees. *)
  let expected =
    Array.fold_left
      (fun acc x -> V.add_f32 acc x)
      (match xs with V.Float_array a -> a.(0) | _ -> assert false)
      (match xs with
      | V.Float_array a -> Array.sub a 1 (Array.length a - 1)
      | _ -> assert false)
  in
  check_bool "left fold" true (V.equal gpu (V.Float expected));
  check_bool "timing present" true (timing.Gpu.Simt.kernel_ns > 0.0)

let test_kernel_time_scales_linearly () =
  (* Beyond lane saturation the throughput model is linear in n: 32x
     the elements costs about 32x the kernel time (minus the fixed
     launch overhead), never catastrophically more. *)
  let site = map_site saxpy_prog in
  let mk n = V.Float_array (Array.init n (fun i -> V.f32 (float_of_int i))) in
  let time n =
    let _, t =
      Gpu.Simt.run_map saxpy_prog site [ V.Float 2.0; mk n; mk n ]
    in
    t.Gpu.Simt.kernel_ns -. Gpu.Device.gtx580.Gpu.Device.launch_overhead_ns
  in
  let t512 = time 512 in
  let t16384 = time 16384 in
  check_bool "roughly 32x" true
    (t16384 > 20.0 *. t512 && t16384 < 40.0 *. t512)

let divergent_src =
  {|
class D {
  local static int f(int x) {
    if (x % 2 == 0) {
      return x + 1;
    }
    int a = x / 3;
    int b = x / 5;
    int c = x / 7;
    int d = x / 11;
    return a + b + c + d;
  }
  static int[[]] run(int[[]] xs) { return D @ f(xs); }
}
|}

let test_divergence_penalty () =
  let prog = compile divergent_src in
  let site = map_site prog in
  let mixed = V.Int_array (Array.init 1024 (fun i -> i)) in
  let uniform = V.Int_array (Array.init 1024 (fun i -> 2 * i)) in
  let _, t_mixed = Gpu.Simt.run_map prog site [ mixed ] in
  let _, t_uniform = Gpu.Simt.run_map prog site [ uniform ] in
  check_bool "divergent warps split into groups" true
    (t_mixed.Gpu.Simt.avg_divergence_groups > 1.5);
  check_bool "uniform warps stay converged" true
    (t_uniform.Gpu.Simt.avg_divergence_groups < 1.01);
  check_bool "divergence costs cycles" true
    (t_mixed.Gpu.Simt.compute_cycles > t_uniform.Gpu.Simt.compute_cycles);
  (* Ablation A3: with the model off, the penalty disappears. *)
  let _, t_off = Gpu.Simt.run_map ~model_divergence:false prog site [ mixed ] in
  check_bool "model off removes the penalty" true
    (t_off.Gpu.Simt.compute_cycles < t_mixed.Gpu.Simt.compute_cycles)

let test_filter_chain_execution () =
  let prog =
    compile
      {|
class P {
  local static int dbl(int x) { return x * 2; }
  local static int inc(int x) { return x + 1; }
}
|}
  in
  let input = V.Int_array (Array.init 50 (fun i -> i)) in
  let out, timing =
    Gpu.Simt.run_filter_chain prog ~chain:[ "P.dbl"; "P.inc" ]
      ~output_ty:Ir.I32 input
  in
  let expected = V.Int_array (Array.init 50 (fun i -> (2 * i) + 1)) in
  check_bool "composed filters" true (V.equal out expected);
  check_int "items" 50 timing.Gpu.Simt.items

let test_suitability_verdicts () =
  let prog =
    compile
      {|
class S {
  local static int pure(int x) { return x * 3; }
  global static int effectful(int x) { return x; }
  local static int allocates(int n) {
    int[] a = new int[n];
    return a.length;
  }
  local static int looped(int x) {
    int acc = 0;
    for (int i = 0; i < x; i++) { acc += i; }
    return acc;
  }
  global static int chained(int x) { return S.allocates(x); }
}
class Obj {
  int v;
  local Obj(int v0) { v = v0; }
  local int get(int unused) { return v; }
}
|}
  in
  let check key expect_ok substr =
    match Gpu.Suitability.check_fn prog key with
    | Gpu.Suitability.Suitable ->
      check_bool (key ^ " suitable") true expect_ok
    | Gpu.Suitability.Excluded reason ->
      check_bool (key ^ " excluded") false expect_ok;
      if substr <> "" then
        check_bool (key ^ " reason") true (Test_types.contains reason substr)
  in
  check "S.pure" true "";
  (* global but provably pure: the effect inference promotes it *)
  check "S.effectful" true "";
  check "S.allocates" false "alloc";
  (* loops are fine on a GPU, unlike the FPGA backend *)
  check "S.looped" true "";
  check "Obj.get" false "stateful";
  (* the effect and its witness call chain travel to the caller *)
  check "S.chained" false "alloc";
  check "S.chained" false "via S.chained"

let test_opencl_map_text () =
  let text = Gpu.Opencl_gen.map_kernel_text saxpy_prog (map_site saxpy_prog) in
  List.iter
    (fun needle -> check_bool needle true (Test_types.contains text needle))
    [
      "__kernel void";
      "get_global_id(0)";
      "__global const float* a1";
      "const float a0";  (* the broadcast scalar *)
      "static float M_axpy(float";
    ]

let test_opencl_reduce_text () =
  let text =
    Gpu.Opencl_gen.reduce_kernel_text saxpy_prog (reduce_site saxpy_prog)
  in
  List.iter
    (fun needle -> check_bool needle true (Test_types.contains text needle))
    [ "__kernel void"; "barrier(CLK_LOCAL_MEM_FENCE)"; "__local float*" ]

let test_device_models () =
  check_int "gtx580 lanes" 512 (Gpu.Device.total_lanes Gpu.Device.gtx580);
  check_bool "mobile is slower" true
    (Gpu.Device.total_lanes Gpu.Device.mobile
     < Gpu.Device.total_lanes Gpu.Device.gtx580);
  Alcotest.(check (float 1e-6))
    "cycles to ns" 100.0
    (Gpu.Device.cycles_to_ns Gpu.Device.gtx580 154.4)

(* Golden timing records, captured from the per-lane IR walker the
   closure compiler replaced: every Gpu_map catalog program's map and
   reduce sites at default sizes, plus dsp_chain's fused filter chain,
   the same stages unfused and a branch-order divergence kernel, with
   divergence modelling on and off.
   Floats compare by bit pattern. *)
let golden_timings =
  [
    ( "saxpy", "Saxpy.axpy.map@Saxpy.run/0", true,
      16384, 4656722014701092864L, 196608, 4663345472746815488L, 4607182418800017408L );
    ( "saxpy", "Saxpy.axpy.map@Saxpy.run/0", false,
      16384, 4656722014701092864L, 196608, 4663345472746815488L, 4607182418800017408L );
    ( "dotproduct", "Dot.mul.map@Dot.run/0", true,
      16384, 4654470214887407616L, 196608, 4663345472746815488L, 4607182418800017408L );
    ( "dotproduct", "Dot.mul.map@Dot.run/0", false,
      16384, 4654470214887407616L, 196608, 4663345472746815488L, 4607182418800017408L );
    ( "dotproduct", "Dot.add.reduce@Dot.run/1", true,
      16384, 4647011128004575232L, 65540, 4662594895715412651L, 4607182418800017408L );
    ( "dotproduct", "Dot.add.reduce@Dot.run/1", false,
      16384, 4647011128004575232L, 65540, 4662594895715412651L, 4607182418800017408L );
    ( "matmul", "MatMul.cell.map@MatMul.run/0", true,
      2304, 4679466512233267200L, 903168, 4666560444746432512L, 4607182418800017408L );
    ( "matmul", "MatMul.cell.map@MatMul.run/0", false,
      2304, 4679466512233267200L, 903168, 4666560444746432512L, 4607182418800017408L );
    ( "conv2d", "Conv.pixel.map@Conv.run/0", true,
      4096, 4680985212669132800L, 327680, 4665997968352099588L, 4611686018427387904L );
    ( "conv2d", "Conv.pixel.map@Conv.run/0", false,
      4096, 4676521195460362240L, 327680, 4664255965934907413L, 4607182418800017408L );
    ( "nbody", "NBody.force.map@NBody.run/0", true,
      256, 4702452352567738368L, 787456, 4681813095076523034L, 4629700416936869888L );
    ( "nbody", "NBody.force.map@NBody.run/0", false,
      256, 4679934354430885888L, 787456, 4666229125242596010L, 4607182418800017408L );
    ( "blackscholes", "Bs.callPrice.map@Bs.run/0", true,
      4096, 4679515165622796288L, 65536, 4665314619739080014L, 4613621158892273664L );
    ( "blackscholes", "Bs.callPrice.map@Bs.run/0", false,
      4096, 4672449429024800768L, 65536, 4663307690564870356L, 4607182418800017408L );
    ( "mandelbrot", "Mandel.escape.map@Mandel.run/0", true,
      9216, 4693333381084086272L, 73728, 4673691905292885379L, 4619891795873438834L );
    ( "mandelbrot", "Mandel.escape.map@Mandel.run/0", false,
      9216, 4686038293232484352L, 73728, 4668377424741516707L, 4607182418800017408L );
    ( "sumsq", "SumSq.sq.map@SumSq.run/0", true,
      65536, 4665729213955833856L, 524288, 4665221972591553194L, 4607182418800017408L );
    ( "sumsq", "SumSq.sq.map@SumSq.run/0", false,
      65536, 4665729213955833856L, 524288, 4665221972591553194L, 4607182418800017408L );
    ( "sumsq", "SumSq.add.reduce@SumSq.run/1", true,
      65536, 4652499890050433024L, 262148, 4663720795622255275L, 4607182418800017408L );
    ( "sumsq", "SumSq.add.reduce@SumSq.run/1", false,
      65536, 4652499890050433024L, 262148, 4663720795622255275L, 4607182418800017408L );
    ( "dsp_chain", "fuse:Dsp.scale@Dsp.run/0+Dsp.offset@Dsp.run/1+Dsp.clamp@Dsp.run/2", true,
      512, 4645744490609377280L, 4096, 4662243029088032085L, 4613937818241073152L );
    ( "dsp_chain", "fuse:Dsp.scale@Dsp.run/0+Dsp.offset@Dsp.run/1+Dsp.clamp@Dsp.run/2", false,
      512, 4639270566145032192L, 4096, 4662243029088032085L, 4607182418800017408L );
    ( "dsp_chain", "Dsp.scale|Dsp.offset|Dsp.clamp", true,
      512, 4648418502888128512L, 4096, 4662245921240379413L, 4613937818241073152L );
    ( "dsp_chain", "Dsp.scale|Dsp.offset|Dsp.clamp", false,
      512, 4641522365958717440L, 4096, 4662243029088032085L, 4607182418800017408L );
    ( "branches", "B.f.map@B.run/0", true,
      1024, 4663336676653793280L, 8192, 4662487329557617797L, 4616189618054758400L );
    ( "branches", "B.f.map@B.run/0", false,
      1024, 4654470214887407616L, 8192, 4662287936257243911L, 4607182418800017408L );
  ]

module W = Workloads

let golden_records () =
  let out = ref [] in
  (* runs [launch] with divergence modelling on and off, recording
     both timings; the value comes from the first *)
  let record name uid launch =
    let v, t_on = launch true in
    let _, t_off = launch false in
    out := (name, uid, false, t_off) :: (name, uid, true, t_on) :: !out;
    v
  in
  List.iter
    (fun (w : W.t) ->
      let prog = (Liquid_metal.Compiler.compile w.W.source).Liquid_metal.Compiler.ir in
      let on_map (site : Ir.map_site) args =
        let args = List.map I.prim_exn args in
        Some
          (I.Prim
             (record w.W.name site.Ir.map_uid (fun model_divergence ->
                  Gpu.Simt.run_map ~model_divergence prog site args)))
      in
      let on_reduce (site : Ir.reduce_site) arg =
        let arg = I.prim_exn arg in
        Some
          (I.Prim
             (record w.W.name site.Ir.red_uid (fun model_divergence ->
                  Gpu.Simt.run_reduce ~model_divergence prog site arg)))
      in
      ignore
        (I.call ~hooks:{ I.no_hooks with on_map; on_reduce } prog w.W.entry
           (w.W.args ~size:w.W.default_size)))
    (List.filter (fun (w : W.t) -> w.W.category = W.Gpu_map) W.all);
  let w = W.dsp_chain in
  let prog = (Liquid_metal.Compiler.compile w.W.source).Liquid_metal.Compiler.ir in
  let input =
    match w.W.args ~size:w.W.default_size with
    | [ a ] -> I.prim_exn a
    | _ -> Alcotest.fail "dsp_chain takes one argument"
  in
  let fn_key uid =
    match List.find (fun (_, f) -> f.Ir.uid = uid) (Ir.filter_sites prog) with
    | _, { Ir.target = Ir.F_static key; _ } -> key
    | _ -> Alcotest.fail "expected a static filter"
  in
  let fused =
    Ir.String_map.fold
      (fun key _ acc -> if Lime_ir.Fuse.is_fused_uid key then key :: acc else acc)
      prog.Ir.funcs []
  in
  check_bool "dsp_chain fuses" true (fused <> []);
  List.iter
    (fun key ->
      List.iter
        (fun chain ->
          ignore
            (record w.W.name (String.concat "|" chain) (fun model_divergence ->
                 Gpu.Simt.run_filter_chain ~model_divergence prog ~chain
                   ~output_ty:Ir.I32 input)))
        [ [ key ]; List.map fn_key (Lime_ir.Fuse.member_uids key) ])
    fused;
  (* divergence: lanes whose branch outcomes differ only in order must
     still land in distinct groups *)
  let prog =
    compile
      {|
class B {
  local static int f(int x) {
    int a = 0;
    if (x % 2 == 0) { a = a + 1; }
    if (x % 3 == 0) { a = a + 2; }
    return a;
  }
  static int[[]] run(int[[]] xs) { return B @ f(xs); }
}
|}
  in
  let site = map_site prog in
  let xs = V.Int_array (Array.init 1024 (fun i -> i)) in
  ignore
    (record "branches" site.Ir.map_uid (fun model_divergence ->
         Gpu.Simt.run_map ~model_divergence prog site [ xs ]));
  List.rev !out

let test_golden_timings () =
  let got = golden_records () in
  check_int "record count" (List.length golden_timings) (List.length got);
  List.iter2
    (fun (name, uid, md, items, cycles, mem, ns, groups)
         (name', uid', md', (t : Gpu.Simt.timing)) ->
      let what = Printf.sprintf "%s %s divergence=%b" name uid md in
      check_bool (what ^ " site") true (name = name' && uid = uid' && md = md');
      check_int (what ^ " items") items t.Gpu.Simt.items;
      Alcotest.(check int64) (what ^ " compute_cycles") cycles
        (Int64.bits_of_float t.Gpu.Simt.compute_cycles);
      check_int (what ^ " mem_bytes") mem t.Gpu.Simt.mem_bytes;
      Alcotest.(check int64) (what ^ " kernel_ns") ns
        (Int64.bits_of_float t.Gpu.Simt.kernel_ns);
      Alcotest.(check int64) (what ^ " avg_divergence_groups") groups
        (Int64.bits_of_float t.Gpu.Simt.avg_divergence_groups))
    golden_timings got

(* Folding a straight-line run's charges into one add is exact only
   because every cost is a small integer-valued float. *)
let test_costs_integer_valued () =
  let integral what c =
    check_bool (what ^ " is a small integer") true
      (Float.is_integer c && c >= 0.0 && c < 1024.0)
  in
  List.iter
    (fun op -> integral "binop" (Gpu.Simt.binop_cycles op))
    Ir.
      [
        Add_i; Sub_i; Mul_i; Div_i; Rem_i; Add_f; Sub_f; Mul_f; Div_f; Rem_f;
        Shl_i; Shr_i; And_i; Or_i; Xor_i; And_b; Or_b; Xor_b; And_bit; Or_bit;
        Xor_bit; Eq; Neq; Lt_i; Leq_i; Gt_i; Geq_i; Lt_f; Leq_f; Gt_f; Geq_f;
      ];
  List.iter
    (fun op -> integral "unop" (Gpu.Simt.unop_cycles op))
    Ir.[ Neg_i; Neg_f; Not_b; Bnot_i; I2f ];
  List.iter
    (fun (name, _) ->
      integral name (Lime_ir.Intrinsics.device_cycles ("Math." ^ name)))
    Lime_ir.Intrinsics.signatures;
  integral "unknown intrinsic" (Lime_ir.Intrinsics.device_cycles "Math.nope");
  integral "mem op" Gpu.Simt.mem_op_cycles;
  integral "call overhead" Gpu.Simt.call_overhead

(* Property: GPU map result equals the interpreter's map on random
   programs and inputs. Device bodies mix branches, bounded [for] and
   [while] loops, a nested call into a helper that branches on [Math]
   intrinsics, and array reads that may run out of bounds or divide by
   zero: the value must match [Lime_ir.Interp], and a trap must carry
   the interpreter's message. *)
module Dev_gen = struct
  open QCheck2.Gen

  let rec int_expr env n =
    if n <= 0 then oneof [ map string_of_int (int_range (-9) 40); oneofl env ]
    else
      let sub = int_expr env (n / 2) in
      frequency
        [
          4, map2 (Printf.sprintf "(%s + %s)") sub sub;
          4, map2 (Printf.sprintf "(%s - %s)") sub sub;
          4, map2 (Printf.sprintf "(%s * %s)") sub sub;
          4, map (Printf.sprintf "t[%s & 3]") sub;
          4, map2 (Printf.sprintf "G.h(%s, %s)") sub sub;
          4, map3 (Printf.sprintf "(%s <= %s ? %s : 3)") sub sub sub;
          (* may divide by zero *)
          1, map2 (Printf.sprintf "(%s / (%s %% 5))") sub sub;
          (* may index out of bounds: t has 7 elements *)
          1, map (Printf.sprintf "t[%s %% 9]") sub;
        ]

  let float_expr =
    oneofl
      [
        "Math.sqrt(Math.abs(u))"; "Math.floor(u * 0.5)"; "Math.exp(u * 0.01)";
        "Math.log(Math.abs(u) + 1.0)"; "Math.sin(u)"; "Math.cos(u)";
        "Math.pow(Math.abs(u), 0.5)"; "Math.min(u, 3.0)"; "Math.max(u, -2.0)";
      ]

  (* the helper: branches on intrinsics, one bounded while loop *)
  let helper =
    let* c1 = float_expr and* c2 = float_expr and* bound = int_range 0 4 in
    return
      (Printf.sprintf
         {|local static int h(int p, int q) {
    float u = p;
    int k = 0;
    while (k < %d) { q = q + k; k = k + 1; }
    if (%s > %s) { return p + q; }
    return p - q;
  }|}
         bound c1 c2)

  let rec stmts env depth =
    let leaf =
      let* v = oneofl env and* e = int_expr env 3 in
      return (Printf.sprintf "%s = %s;" v e)
    in
    if depth >= 2 then leaf
    else
      let branch =
        let* a = int_expr env 2 and* b = int_expr env 2 in
        let* yes = stmts env (depth + 1) and* no = stmts env (depth + 1) in
        return (Printf.sprintf "if (%s < %s) { %s } else { %s }" a b yes no)
      in
      let for_loop =
        let i = Printf.sprintf "i%d" depth in
        let* bound = int_range 0 5 and* body = stmts env (depth + 1) in
        return
          (Printf.sprintf "for (int %s = 0; %s < %d; %s++) { %s }" i i bound i body)
      in
      let while_loop =
        let w = Printf.sprintf "w%d" depth in
        let* bound = int_range 0 5 and* body = stmts env (depth + 1) in
        return
          (Printf.sprintf "{ int %s = 0; while (%s < %d) { %s %s = %s + 1; } }" w
             w bound body w w)
      in
      let* first = oneof [ leaf; branch; for_loop; while_loop ] in
      let* more = bool in
      if more then map (fun rest -> first ^ "\n    " ^ rest) (stmts env depth)
      else return first

  let program =
    let* helper = helper in
    let* body = stmts [ "x"; "y" ] 0 in
    let* ret = int_expr [ "x"; "y" ] 3 in
    return
      (Printf.sprintf
         {|
class G {
  %s
  local static int f(int x, int[[]] t) {
    int y = x * 2;
    %s
    return %s;
  }
  static int[[]] run(int[[]] xs, int[[]] t) { return G @ f(xs, t); }
}
|}
         helper body ret)

  let inputs =
    list_size (int_range 1 40) (int_range (-50) 50)
    |> map (fun xs -> V.Int_array (Array.of_list xs))
end

type outcome = Value of V.t | Trap of string

let outcome f =
  match f () with
  | v -> Value v
  | exception I.Runtime_error m -> Trap m
  | exception Gpu.Simt.Device_error m -> Trap m

let show_outcome = function
  | Value v -> V.to_string v
  | Trap m -> "trap: " ^ m

let table = V.Int_array [| 5; -3; 11; 0; 7; 2; -8 |]

let gpu_vs_interp src xs =
  let prog = compile src in
  let site = map_site prog in
  let gpu = outcome (fun () -> fst (Gpu.Simt.run_map prog site [ xs; table ])) in
  let cpu =
    outcome (fun () -> I.prim_exn (I.call prog "G.run" [ I.Prim xs; I.Prim table ]))
  in
  gpu, cpu

let prop_gpu_map_differential =
  QCheck2.Test.make ~name:"gpu: map agrees with interpreter" ~count:200
    ~print:(fun (src, xs) ->
      let gpu, cpu = gpu_vs_interp src xs in
      Printf.sprintf "%s\nxs = %s\ngpu: %s\ninterp: %s" src (V.to_string xs)
        (show_outcome gpu) (show_outcome cpu))
    QCheck2.Gen.(pair Dev_gen.program Dev_gen.inputs)
    (fun (src, xs) ->
      let gpu, cpu = gpu_vs_interp src xs in
      match gpu, cpu with
      | Value g, Value c -> V.equal g c
      | Trap g, Trap c -> String.equal g c
      | _ -> false)

let suite =
  ( "gpu",
    [
      Alcotest.test_case "map matches interpreter" `Quick test_map_matches_interpreter;
      Alcotest.test_case "reduce is the left fold" `Quick test_reduce_matches_left_fold;
      Alcotest.test_case "parallel scaling" `Quick test_kernel_time_scales_linearly;
      Alcotest.test_case "divergence penalty" `Quick test_divergence_penalty;
      Alcotest.test_case "filter chain" `Quick test_filter_chain_execution;
      Alcotest.test_case "suitability verdicts" `Quick test_suitability_verdicts;
      Alcotest.test_case "opencl map text" `Quick test_opencl_map_text;
      Alcotest.test_case "opencl reduce text" `Quick test_opencl_reduce_text;
      Alcotest.test_case "device models" `Quick test_device_models;
      Alcotest.test_case "golden timings" `Quick test_golden_timings;
      Alcotest.test_case "costs are integer-valued" `Quick test_costs_integer_valued;
      QCheck_alcotest.to_alcotest prop_gpu_map_differential;
    ] )
