module Ir = Lime_ir.Ir
(* RTL substrate tests: the Figure-4 behaviours (FIFO next-rising-edge
   output, 3-cycle read/compute/publish latency, 9 inReady transitions
   for 9 input bits), netlist encodings, synthesis exclusions and the
   Verilog artifact text. *)

module I = Lime_ir.Interp
module V = Wire.Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile src =
  Lime_ir.Lower.lower
    (Lime_types.Typecheck.check (Lime_syntax.Parser.parse ~file:"t" src))

let fig1 = compile Test_syntax.figure1_source
let fig1_unit = Bytecode.Compile.compile_program fig1

let flip_filter () =
  match Ir.filter_sites fig1 with
  | [ (_, f) ] -> f
  | _ -> Alcotest.fail "expected one filter"

let flip_pipeline () =
  Rtl.Synth.pipeline_of_chain fig1 ~name:"taskFlip" [ flip_filter (), None ]

(* --- encodings ------------------------------------------------------- *)

let test_value_encodings () =
  let roundtrip ty v =
    check_bool
      (Ir.ty_to_string ty)
      true
      (V.equal v (Rtl.Netlist.value_of_bits ty (Rtl.Netlist.bits_of_value ty v)))
  in
  roundtrip Ir.Bit (V.Bit true);
  roundtrip Ir.Bit (V.Bit false);
  roundtrip Ir.Bool (V.Bool true);
  roundtrip Ir.I32 (V.Int (-12345));
  roundtrip Ir.I32 (V.Int 2147483647);
  roundtrip Ir.F32 (V.Float (V.f32 3.14));
  roundtrip (Ir.Enum "dir") (V.Enum { enum = "dir"; tag = 3 });
  check_int "bit width" 1 (Rtl.Netlist.width_of_ty Ir.Bit);
  check_int "int width" 32 (Rtl.Netlist.width_of_ty Ir.I32)

let prop_i32_encoding =
  QCheck2.Test.make ~name:"netlist: i32 bits roundtrip" ~count:300
    QCheck2.Gen.int (fun i ->
      let v = V.Int (V.norm32 i) in
      V.equal v (Rtl.Netlist.value_of_bits Ir.I32 (Rtl.Netlist.bits_of_value Ir.I32 v)))

let prop_f32_encoding =
  QCheck2.Test.make ~name:"netlist: f32 bits roundtrip" ~count:300
    QCheck2.Gen.float (fun f ->
      let v = V.Float (V.f32 f) in
      V.equal v (Rtl.Netlist.value_of_bits Ir.F32 (Rtl.Netlist.bits_of_value Ir.F32 v)))

(* --- figure 4 behaviour ---------------------------------------------- *)

let bits9 = "101010101"

let run_flip_with_vcd () =
  let vcd = Rtl.Vcd.create () in
  let inputs =
    List.map (fun b -> V.Bit b)
      (Array.to_list (Bits.Bitvec.to_bool_array (Bits.Bitvec.of_literal bits9)))
  in
  let outputs, stats = Rtl.Sim.run ~vcd ~clock_ns:4 fig1_unit (flip_pipeline ()) inputs in
  outputs, stats, Rtl.Vcd.contents vcd

let test_flip_pipeline_results () =
  let outputs, stats, _ = run_flip_with_vcd () in
  check_int "9 outputs" 9 stats.Rtl.Sim.items;
  let expected =
    List.map (fun b -> V.Bit (not b))
      (Array.to_list (Bits.Bitvec.to_bool_array (Bits.Bitvec.of_literal bits9)))
  in
  check_bool "flipped stream" true (List.for_all2 V.equal expected outputs)

(* Extract (time, value) transitions of a named VCD signal. *)
let vcd_transitions vcd_text name =
  let lines = String.split_on_char '\n' vcd_text in
  let code = ref None in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "$var"; "wire"; _w; c; n; "$end" ] when n = name -> code := Some c
      | _ -> ())
    lines;
  let code = match !code with Some c -> c | None -> Alcotest.failf "no signal %s" name in
  let time = ref 0 in
  let out = ref [] in
  List.iter
    (fun line ->
      if String.length line > 1 && line.[0] = '#' then
        time := int_of_string (String.sub line 1 (String.length line - 1))
      else if
        String.length line = 1 + String.length code
        && String.sub line 1 (String.length code) = code
        && (line.[0] = '0' || line.[0] = '1')
      then out := (!time, Char.code line.[0] - Char.code '0') :: !out)
    lines;
  List.rev !out

let test_figure4_nine_inready_transitions () =
  (* "these are represented by the 9 transitions on the inReady
     signal" — 9 rising edges, one per input bit. *)
  let _, _, vcd = run_flip_with_vcd () in
  let rises =
    List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd "Bitflip_flip_0_inReady")
  in
  check_int "nine inReady rises" 9 (List.length rises)

let test_figure4_three_cycle_latency () =
  (* "one cycle to read, one cycle to compute, and one cycle to
     publish": outReady rises two cycles (8ns at 4ns clock) after the
     corresponding inReady, making results available on the third
     cycle. *)
  let _, _, vcd = run_flip_with_vcd () in
  let in_rises =
    List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd "Bitflip_flip_0_inReady")
  in
  let out_rises =
    List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd "Bitflip_flip_0_outReady")
  in
  check_int "one publish per read" (List.length in_rises) (List.length out_rises);
  let first_in = fst (List.hd in_rises) in
  let first_out = fst (List.hd out_rises) in
  check_int "read->publish is 2 clocks later (3-cycle occupancy)" (4 * 2)
    (first_out - first_in)

let test_fifo_next_rising_edge () =
  (* The source enqueues at cycle 0; the FIFO's registered output makes
     the stage's first inReady appear at cycle 1, not 0. *)
  let _, _, vcd = run_flip_with_vcd () in
  let in_rises =
    List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd "Bitflip_flip_0_inReady")
  in
  check_int "first pop on the edge after the write" 4 (fst (List.hd in_rises))

let test_unpipelined_throughput () =
  (* An unpipelined stage accepts one element every 3 cycles, so 9
     elements need at least 27 cycles. *)
  let _, stats, _ = run_flip_with_vcd () in
  check_bool "at least 3 cycles per element" true (stats.Rtl.Sim.cycles >= 27);
  check_bool "but not wildly more" true (stats.Rtl.Sim.cycles < 45)

let test_vcd_well_formed () =
  let _, _, vcd = run_flip_with_vcd () in
  check_bool "timescale" true (Test_types.contains vcd "$timescale 1ns $end");
  check_bool "clk declared" true (Test_types.contains vcd "$var wire 1 ! clk $end");
  check_bool "enddefinitions" true (Test_types.contains vcd "$enddefinitions");
  check_bool "has time marks" true (Test_types.contains vcd "#0")

(* --- multi-stage and stateful pipelines ------------------------------- *)

let test_two_stage_pipeline () =
  let prog =
    compile
      {|
class P {
  local static int dbl(int x) { return x * 2; }
  local static int inc(int x) { return x + 1; }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task dbl ]) => ([ task inc ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  let filters = List.map snd (Ir.filter_sites prog) in
  let pl =
    Rtl.Synth.pipeline_of_chain prog ~name:"p"
      (List.map (fun f -> f, None) filters)
  in
  let inputs = List.map (fun i -> V.Int i) [ 1; 2; 3; 4; 5 ] in
  let outputs, stats =
    Rtl.Sim.run (Bytecode.Compile.compile_program prog) pl inputs
  in
  check_bool "values" true
    (List.for_all2 V.equal
       (List.map (fun i -> V.Int ((2 * i) + 1)) [ 1; 2; 3; 4; 5 ])
       outputs);
  (* Two stages overlap: the pipeline beats 2x the single-stage time. *)
  check_bool "pipeline parallelism" true (stats.Rtl.Sim.cycles < 2 * 3 * 5 + 10)

let test_stateful_stage_registers () =
  let prog =
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
  let filters = List.map snd (Ir.filter_sites prog) in
  let receiver =
    I.Obj { I.obj_class = "Acc"; obj_fields = [| I.Prim (V.Int 0) |] }
  in
  let pl =
    Rtl.Synth.pipeline_of_chain prog ~name:"acc"
      (List.map (fun f -> f, Some receiver) filters)
  in
  let outputs, _ =
    Rtl.Sim.run
      (Bytecode.Compile.compile_program prog)
      pl
      (List.map (fun i -> V.Int i) [ 1; 2; 3 ])
  in
  check_bool "prefix sums through registers" true
    (List.for_all2 V.equal [ V.Int 1; V.Int 3; V.Int 6 ] outputs)

(* --- synthesis exclusions and latency -------------------------------- *)

let test_synth_excludes_loops () =
  let prog =
    compile
      {|
class C {
  local static int f(int x) {
    int acc = 0;
    while (acc < x) { acc = acc + 3; }
    return acc;
  }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task f ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  match Ir.filter_sites prog with
  | [ (_, f) ] -> (
    match Rtl.Synth.check_filter prog f with
    | Rtl.Synth.Excluded reason ->
      check_bool "mentions FSM" true (Test_types.contains reason "FSM")
    | Rtl.Synth.Suitable -> Alcotest.fail "loops must be excluded")
  | _ -> Alcotest.fail "expected one filter"

(* A receiver field of object type has no register to live in: the
   filter is excluded (it used to pass the check and then crash
   Verilog generation). *)
let test_synth_excludes_object_fields () =
  let prog =
    compile
      {|
class Box { int v; public Box(int x) { v = x; } local int val() { return v; } }
class Holder {
  Box b;
  local Holder() {}
  local int get(int x) { return b.val() + x; }
}
class Main {
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var h = new Holder();
    var g = xs.source(1) => ([ task h.get ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  match Ir.filter_sites prog with
  | [ (_, f) ] -> (
    match Rtl.Synth.check_filter prog f with
    | Rtl.Synth.Excluded reason ->
      check_bool reason true (Test_types.contains reason "field b of type obj:Box")
    | Rtl.Synth.Suitable -> Alcotest.fail "object fields must be excluded")
  | _ -> Alcotest.fail "expected one filter"

let test_synth_latency_scales_with_ops () =
  let prog =
    compile
      {|
class C {
  local static int cheap(int x) { return x + 1; }
  local static int costly(int x) {
    int a = x / 3;
    int b = x / 5;
    int c = x / 7;
    return a + b + c;
  }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task cheap ]) => ([ task costly ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  match List.map snd (Ir.filter_sites prog) with
  | [ cheap; costly ] ->
    let lc = Rtl.Synth.latency_of prog cheap in
    let le = Rtl.Synth.latency_of prog costly in
    check_int "cheap is single-cycle" 1 lc;
    check_bool "dividers cost cycles" true (le > lc)
  | _ -> Alcotest.fail "expected two filters"

let test_verilog_text_shape () =
  let text = Rtl.Verilog_gen.pipeline_text fig1 (flip_pipeline ()) in
  List.iter
    (fun needle ->
      check_bool needle true (Test_types.contains text needle))
    [
      "module lm_fifo";
      "visible at the output at cycle t+1";
      "module Bitflip_flip_0";
      "IDLE"; "COMPUTE"; "PUBLISH";
      "module taskFlip_top";
      "one cycle to read";
    ]

let test_verilog_stateful_has_registers () =
  let prog =
    compile
      {|
class Acc {
  int total;
  local Acc(int start) { total = start; }
  local int push(int x) { total += x; return total; }
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
|}
  in
  let filters = List.map snd (Ir.filter_sites prog) in
  let pl =
    Rtl.Synth.pipeline_of_chain prog ~name:"acc"
      (List.map (fun f -> f, None) filters)
  in
  let text = Rtl.Verilog_gen.pipeline_text prog pl in
  check_bool "field register" true (Test_types.contains text "reg [31:0] field_0");
  check_bool "register commit" true (Test_types.contains text "field_0 <=")

(* The range analysis narrows the data ports of a masking filter:
   [x & 255] provably fits 8 unsigned bits, so the output register,
   the inter-stage wire, and the downstream stage's input all shrink
   from the 32 bits the int type would dictate. *)
let test_verilog_range_narrowing () =
  let prog =
    compile
      {|
class N {
  local static int mask(int x) { return x & 255; }
  local static int half(int x) { return x / 2; }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task mask ]) => ([ task half ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  let filters = List.map snd (Ir.filter_sites prog) in
  let pl =
    Rtl.Synth.pipeline_of_chain prog ~name:"narrow"
      (List.map (fun f -> f, None) filters)
  in
  (match pl.Rtl.Netlist.pl_stages with
  | [ mask; half ] ->
    check_int "mask in 32" 32 mask.Rtl.Netlist.st_in_width;
    check_int "mask out 8" 8 mask.Rtl.Netlist.st_out_width;
    (* the interval chains: half sees [0,255], returns [0,127] *)
    check_int "half in 8" 8 half.Rtl.Netlist.st_in_width;
    check_int "half out 7" 7 half.Rtl.Netlist.st_out_width
  | _ -> Alcotest.fail "expected two stages");
  let text = Rtl.Verilog_gen.pipeline_text prog pl in
  check_bool "narrowed output reg" true
    (Test_types.contains text "output reg  [7:0] out_data");
  check_bool "top output narrowed" true
    (Test_types.contains text "output wire [6:0] out_data");
  check_bool "full-width input survives" true
    (Test_types.contains text "input  wire [31:0] in_data")


(* --- VCD reader -------------------------------------------------------- *)

let test_vcd_reader_roundtrip () =
  let _, _, vcd_text = run_flip_with_vcd () in
  let wave = Rtl.Vcd_reader.parse vcd_text in
  check_bool "has clk" true
    (List.exists (fun (s : Rtl.Vcd_reader.signal) -> s.name = "clk")
       (Rtl.Vcd_reader.signals wave));
  let in_ready = Rtl.Vcd_reader.signal wave "Bitflip_flip_0_inReady" in
  check_int "nine rises via reader" 9
    (List.length (Rtl.Vcd_reader.rises in_ready));
  (* agrees with the hand parser used elsewhere in this file *)
  let hand = List.filter (fun (_, v) -> v = 1)
      (vcd_transitions vcd_text "Bitflip_flip_0_inReady") in
  Alcotest.(check (list int)) "same times" (List.map fst hand)
    (Rtl.Vcd_reader.rises in_ready)

let test_vcd_reader_value_at () =
  let _, _, vcd_text = run_flip_with_vcd () in
  let wave = Rtl.Vcd_reader.parse vcd_text in
  let in_ready = Rtl.Vcd_reader.signal wave "Bitflip_flip_0_inReady" in
  let first = List.hd (Rtl.Vcd_reader.rises in_ready) in
  check_int "high at rise" 1 (Rtl.Vcd_reader.value_at in_ready first);
  check_int "low before dump" 0 (Rtl.Vcd_reader.value_at in_ready (first - 1));
  match Rtl.Vcd_reader.signal wave "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown signal should raise"

let test_vcd_ascii_render () =
  let _, _, vcd_text = run_flip_with_vcd () in
  let wave = Rtl.Vcd_reader.parse vcd_text in
  let text =
    Rtl.Vcd_reader.render_ascii ~signals:[ "clk"; "Bitflip_flip_0_inReady" ]
      ~until_ns:40 ~step_ns:2 wave
  in
  check_bool "clk row" true (Test_types.contains text "clk");
  check_bool "levels drawn" true
    (Test_types.contains text "#" && Test_types.contains text "_");
  check_int "three lines (ruler + 2 signals)" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)))

(* --- golden records ------------------------------------------------------ *)

(* Cycle, item, stall and occupancy counts and an MD5 of the outputs
   per FPGA pipeline, and an MD5 of the Figure-4 VCD, all captured from
   the IR-interpreter-backed simulator the compiled-VM one replaced.
   They pin the exact clock semantics: any drift in FIFO visibility,
   FSM timing, backpressure or waveform encoding changes a record. *)

let stream_of_args = function
  | [ I.Prim (V.Bits b) ] ->
    List.map (fun x -> V.Bit x) (Array.to_list (Bits.Bitvec.to_bool_array b))
  | [ I.Prim (V.Int_array a) ] -> List.map (fun x -> V.Int x) (Array.to_list a)
  | [ I.Prim (V.Float_array a) ] ->
    List.map (fun x -> V.Float x) (Array.to_list a)
  | _ -> Alcotest.fail "expected one stream argument"

(* The catalog's stateful filters are all constructed with a zero
   initial value, which is their fields' default. *)
let default_receiver (prog : Ir.program) (f : Ir.filter_info) =
  match f.Ir.target with
  | Ir.F_static _ -> None
  | Ir.F_instance (cls, _) ->
    let meta = Ir.String_map.find cls prog.Ir.classes in
    Some
      (I.Obj
         {
           I.obj_class = cls;
           obj_fields =
             Array.of_list
               (List.map (fun (_, ty) -> I.default_value ty) meta.Ir.cm_fields);
         })

let digest_outputs outputs =
  Digest.to_hex (Digest.string (String.concat "," (List.map V.to_string outputs)))

(* workload, size, fused II=1 pipeline, FIFO depth,
   (cycles, items, stalls, max FIFO occupancy, outputs MD5) *)
let rtl_golden =
  [
    "bitflip", 64, false, 16, (194, 64, 0, 16, "4874f207654bd1c26d4f785f79b91f03");
    "bitflip", 512, false, 16, (1538, 512, 0, 16, "22b65825ce2064ddd8d99fc7b256a79f");
    "prefix_sum", 64, false, 16, (194, 64, 0, 16, "179c7fab69e6212232695880ac4ab742");
    "prefix_sum", 512, false, 16, (1538, 512, 0, 16, "967e0242567641c15f1c213cdc3b0a0c");
    "fir4", 64, false, 16, (450, 64, 0, 16, "1b2af3096ba6ed5d9afbcf7a95a08005");
    "fir4", 512, false, 16, (3586, 512, 0, 16, "0063206ecc53acea3b12b6ac482e7308");
    "crc8", 64, false, 16, (962, 64, 0, 16, "99b94046bfe1aa3574f1fd31aa6cf7b0");
    "crc8", 512, false, 16, (7682, 512, 0, 16, "cee80a6a6399fcdeb80c4a1571cd5299");
    "dsp_chain", 512, true, 16, (516, 512, 0, 1, "ef9eaebabe3110fb93e67f202be228c7");
    "dsp_chain", 512, false, 2, (1544, 512, 0, 2, "ef9eaebabe3110fb93e67f202be228c7");
  ]

let check_record what (cycles, items, stalls, occupancy, digest)
    (outputs, (st : Rtl.Sim.stats)) =
  check_int (what ^ " cycles") cycles st.cycles;
  check_int (what ^ " items") items st.items;
  check_int (what ^ " stalls") stalls st.stalls;
  check_int (what ^ " max FIFO occupancy") occupancy st.max_fifo_occupancy;
  Alcotest.(check string) (what ^ " outputs") digest (digest_outputs outputs)

let test_rtl_golden () =
  List.iter
    (fun (name, size, fused, fifo_depth, record) ->
      let w = Workloads.find name in
      let c = Liquid_metal.Compiler.compile w.source in
      let prog = c.Liquid_metal.Compiler.ir in
      let filters = List.map snd (Ir.filter_sites prog) in
      let chain =
        if fused then
          match
            Runtime.Store.find_fusion c.Liquid_metal.Compiler.store
              ~chain:(Runtime.Artifact.chain_uid filters)
          with
          | Some f -> [ f, None ]
          | None -> Alcotest.failf "%s: no fused filter" name
        else List.map (fun f -> f, default_receiver prog f) filters
      in
      let pl =
        Rtl.Synth.pipeline_of_chain prog ~name ~fifo_depth ~pipelined:fused
          chain
      in
      check_record
        (Printf.sprintf "%s@%d%s" name size (if fused then " fused" else ""))
        record
        (Rtl.Sim.run c.Liquid_metal.Compiler.unit_ pl
           (stream_of_args (w.args ~size))))
    rtl_golden

(* A fast stage feeding a slow one through shallow FIFOs, unpipelined
   and at initiation interval 1: the only records with backpressure
   stalls. *)
let test_rtl_golden_stalls () =
  let prog =
    compile
      {|
class C {
  local static int cheap(int x) { return x + 1; }
  local static int costly(int x) {
    int a = x / 3;
    int b = x / 5;
    int c = x / 7;
    return a + b + c;
  }
  static int[[]] run(int[[]] xs) {
    int[] out = new int[xs.length];
    var g = xs.source(1) => ([ task cheap ]) => ([ task costly ]) => out.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
|}
  in
  let unit_ = Bytecode.Compile.compile_program prog in
  let filters = List.map snd (Ir.filter_sites prog) in
  List.iter
    (fun (fifo_depth, pipelined, record) ->
      let pl =
        Rtl.Synth.pipeline_of_chain prog ~name:"slow" ~fifo_depth ~pipelined
          (List.map (fun f -> f, None) filters)
      in
      check_record
        (Printf.sprintf "depth %d%s" fifo_depth
           (if pipelined then " pipelined" else ""))
        record
        (Rtl.Sim.run unit_ pl (List.init 64 (fun i -> V.Int ((i * 37) - 900)))))
    [
      1, false, (581, 64, 371, 1, "84db540c22573f7d5da34e820b53e768");
      2, false, (581, 64, 362, 2, "84db540c22573f7d5da34e820b53e768");
      1, true, (138, 64, 63, 1, "84db540c22573f7d5da34e820b53e768");
      2, true, (75, 64, 0, 1, "84db540c22573f7d5da34e820b53e768");
    ]

let test_figure4_vcd_golden () =
  let _, _, vcd = run_flip_with_vcd () in
  Alcotest.(check string) "Figure-4 VCD" "efc1d9cb0820c3ab1b18e4fa31f4b517"
    (Digest.to_hex (Digest.string vcd))

let suite =
  ( "rtl",
    [
      Alcotest.test_case "value encodings" `Quick test_value_encodings;
      QCheck_alcotest.to_alcotest prop_i32_encoding;
      QCheck_alcotest.to_alcotest prop_f32_encoding;
      Alcotest.test_case "flip pipeline results" `Quick test_flip_pipeline_results;
      Alcotest.test_case "figure 4: nine inReady transitions" `Quick
        test_figure4_nine_inready_transitions;
      Alcotest.test_case "figure 4: 3-cycle latency" `Quick
        test_figure4_three_cycle_latency;
      Alcotest.test_case "figure 4: FIFO next rising edge" `Quick
        test_fifo_next_rising_edge;
      Alcotest.test_case "unpipelined throughput" `Quick test_unpipelined_throughput;
      Alcotest.test_case "vcd well-formed" `Quick test_vcd_well_formed;
      Alcotest.test_case "two-stage pipeline" `Quick test_two_stage_pipeline;
      Alcotest.test_case "stateful stage registers" `Quick
        test_stateful_stage_registers;
      Alcotest.test_case "loops excluded" `Quick test_synth_excludes_loops;
      Alcotest.test_case "object fields excluded" `Quick
        test_synth_excludes_object_fields;
      Alcotest.test_case "latency scales with ops" `Quick
        test_synth_latency_scales_with_ops;
      Alcotest.test_case "verilog text shape" `Quick test_verilog_text_shape;
      Alcotest.test_case "verilog stateful registers" `Quick
        test_verilog_stateful_has_registers;
      Alcotest.test_case "verilog range narrowing" `Quick
        test_verilog_range_narrowing;
      Alcotest.test_case "vcd reader roundtrip" `Quick test_vcd_reader_roundtrip;
      Alcotest.test_case "vcd reader value_at" `Quick test_vcd_reader_value_at;
      Alcotest.test_case "vcd ascii render" `Quick test_vcd_ascii_render;
      Alcotest.test_case "golden rtl records" `Quick test_rtl_golden;
      Alcotest.test_case "golden rtl stalls" `Quick test_rtl_golden_stalls;
      Alcotest.test_case "golden figure-4 vcd" `Quick test_figure4_vcd_golden;
    ] )
