(* FPGA co-simulation: the design flow of paper section 5 / Figure 4.

   Directs the taskFlip graph to the FPGA backend, co-executes the
   Liquid Metal runtime against the RTL simulator, and writes the two
   artifacts a developer would inspect: the generated Verilog and the
   VCD waveform showing the FIFO next-rising-edge behaviour and the
   3-cycle read/compute/publish latency.

   Run with: dune exec examples/fpga_cosim.exe
   Outputs:  _artifacts/taskflip.v, _artifacts/taskflip.vcd *)

module Lm = Liquid_metal.Lm
module Ir = Lime_ir.Ir
module V = Wire.Value

let () =
  let w = Workloads.find "bitflip" in
  print_endline "=== CPU+FPGA co-simulation: taskFlip (Figure 4) ===";
  let session =
    Lm.load ~policy:(Runtime.Substitute.Prefer_devices [ Runtime.Artifact.Fpga ])
      w.Workloads.source
  in
  (* Drive the graph with the 9 input bits of Figure 4. *)
  let input = "101010101" in
  let r = Lm.run session "Bitflip.taskFlip" [ Lm.bits input ] in
  Printf.printf "taskFlip(%sb) = %sb  (plan: %s)\n" input
    (Lm.as_bits_literal r)
    (Option.value (Lm.last_plan session) ~default:"?");
  let m = Lm.metrics session in
  Printf.printf "RTL simulation: %d cycles at 250 MHz = %.0f ns\n" m.fpga_cycles
    m.fpga_ns;
  (* Regenerate the artifacts standalone so they can be written out
     with a waveform: the same netlist the engine just ran. *)
  let prog = Lm.program session in
  let filters = List.map snd (Ir.filter_sites prog) in
  let pipeline =
    Rtl.Synth.pipeline_of_chain prog ~name:"taskFlip"
      (List.map (fun f -> f, None) filters)
  in
  let vcd = Rtl.Vcd.create () in
  let bits =
    Array.to_list
      (Array.map (fun b -> V.Bit b)
         (Bits.Bitvec.to_bool_array (Bits.Bitvec.of_literal input)))
  in
  let outputs, stats =
    Rtl.Sim.run ~vcd ~clock_ns:4
      (Bytecode.Compile.compile_program prog)
      pipeline bits
  in
  ignore outputs;
  (try Unix.mkdir "_artifacts" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  write "_artifacts/taskflip.v" (Rtl.Verilog_gen.pipeline_text prog pipeline);
  write "_artifacts/taskflip.vcd" (Rtl.Vcd.contents vcd);
  (* Render the waveform right here, the terminal version of the
     paper's Figure 4 viewer screenshot. *)
  let wave = Rtl.Vcd_reader.parse (Rtl.Vcd.contents vcd) in
  print_newline ();
  print_endline "Waveform (1 column = 2 ns, # = high):";
  print_string
    (Rtl.Vcd_reader.render_ascii
       ~signals:
         [ "clk"; "Bitflip_flip_0_inReady"; "Bitflip_flip_0_inData";
           "Bitflip_flip_0_outReady"; "Bitflip_flip_0_outData" ]
       ~step_ns:2 wave);
  Printf.printf
    "\nWaveform summary (open the VCD in any viewer, e.g. GTKWave):\n";
  Printf.printf "  %d clock cycles for %d elements (unpipelined: ~3/element)\n"
    stats.Rtl.Sim.cycles stats.Rtl.Sim.items;
  print_endline "  - inReady pulses once per input bit (9 transitions)";
  print_endline "  - the FIFO output appears on the next rising edge";
  print_endline "  - outReady follows inReady by 2 clocks: read, compute, publish"
