module I = Lime_ir.Interp
module V = Wire.Value

type stats = {
  cycles : int;
  items : int;
  stalls : int;
  max_fifo_occupancy : int;
}

exception Simulation_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Simulation_error s)) fmt

(* A bounded queue whose elements each carry the cycle from which they
   may leave. As a hardware FIFO with a registered output, an element
   written at cycle [t] first appears at the output at cycle [t + 1] —
   "the generated logic uses a FIFO which produces a value on the next
   rising edge of the clock" (paper section 5). As a pipelined stage's
   registers, a result becomes publishable [st_latency] cycles after
   its input entered. *)
module Fifo = struct
  type t = {
    depth : int;
    q : (V.t * int) Queue.t;  (* value, cycle it becomes visible *)
  }

  let create depth = { depth; q = Queue.create () }
  let length t = Queue.length t.q
  let has_space t = Queue.length t.q < t.depth

  let push_at t ~visible v =
    if not (has_space t) then invalid_arg "Fifo.push: full";
    Queue.push (v, visible) t.q

  let push t ~cycle v = push_at t ~visible:(cycle + 1) v

  (* Whether the oldest element is visible at [cycle]. *)
  let ready t ~cycle =
    (not (Queue.is_empty t.q)) && snd (Queue.peek t.q) <= cycle

  let pop t = fst (Queue.pop t.q)
end

(* The unpipelined stage FSM: read (1 cycle), compute (latency
   cycles), publish (1 cycle). *)
type phase = Idle | Computing | Publishing

type wave = {
  vcd : Vcd.t;
  in_ready : Vcd.var;
  in_data : Vcd.var;
  out_ready : Vcd.var;
  out_data : Vcd.var;
}

type stage_state = {
  stage : Netlist.stage;
  filter : V.t -> V.t;
  input_fifo : Fifo.t;
  down : Fifo.t;  (* the next stage's input FIFO, or the sink *)
  inflight : Fifo.t;
      (* pipelined mode only: results in the stage's pipeline
         registers, with the cycle each becomes publishable *)
  mutable phase : phase;
  mutable held : V.t;
      (* the latched input while [Computing], the result while
         [Publishing] *)
  mutable remaining : int;  (* compute cycles left *)
  wave : wave option;  (* [None] when no VCD was requested *)
}

(* The stage's filter on the compiled VM, resolved once per run. *)
let filter_of unit_ (st : Netlist.stage) : V.t -> V.t =
  let call = Bytecode.Vm.entry unit_ st.st_fn in
  let value (r : Bytecode.Vm.result) =
    match r.value with
    | I.Prim v -> v
    | v -> fail "filter %s produced a non-value result %a" st.st_fn I.pp v
  in
  match st.st_state with
  | Some receiver -> fun x -> value (call [ receiver; I.Prim x ])
  | None -> fun x -> value (call [ I.Prim x ])

(* Declared output-first: the order of the VCD's [$var] lines and
   identifier codes. *)
let wave_of vcd (st : Netlist.stage) =
  let var name width = Vcd.add_var vcd ~name:(st.st_name ^ name) ~width in
  let out_data = var "_outData" (Netlist.width_of_ty st.st_output_ty) in
  let out_ready = var "_outReady" 1 in
  let in_data = var "_inData" (Netlist.width_of_ty st.st_input_ty) in
  let in_ready = var "_inReady" 1 in
  { vcd; in_ready; in_data; out_ready; out_data }

(* Waveform levels: both ready lines default low each cycle; an accept
   or publish raises its line and shows its data. *)
let wave_idle s ~time =
  match s.wave with
  | None -> ()
  | Some w ->
    Vcd.set w.vcd ~time_ns:time w.in_ready 0;
    Vcd.set w.vcd ~time_ns:time w.out_ready 0

let wave_accept s ~time x =
  match s.wave with
  | None -> ()
  | Some w ->
    Vcd.set w.vcd ~time_ns:time w.in_ready 1;
    Vcd.set w.vcd ~time_ns:time w.in_data
      (Netlist.bits_of_value s.stage.st_input_ty x)

let wave_publish s ~time y =
  match s.wave with
  | None -> ()
  | Some w ->
    Vcd.set w.vcd ~time_ns:time w.out_ready 1;
    Vcd.set w.vcd ~time_ns:time w.out_data
      (Netlist.bits_of_value s.stage.st_output_ty y)

let is_drained s =
  match s.phase with
  | Idle -> Fifo.length s.input_fifo = 0 && Fifo.length s.inflight = 0
  | Computing | Publishing -> false

let run ?vcd ?(clock_ns = 4) ?(max_cycles = 10_000_000)
    (unit_ : Bytecode.Compile.unit_) (pl : Netlist.pipeline)
    (inputs : V.t list) : V.t list * stats =
  (* Fused pipelines are fault-checked by the engine's launch prelude
     under their pre-fusion alias names — checking the fused uid here
     too would double-charge one launch. *)
  if not (Lime_ir.Fuse.is_fused_uid pl.Netlist.pl_name) then
    Support.Fault.check ~device:"fpga" ~segment:pl.Netlist.pl_name;
  (* Device-model telemetry: one span (category ["fpga"]) per RTL
     simulation, closed with cycle/item/stall counts. *)
  let traced f =
    if not (Support.Trace.enabled ()) then f ()
    else
      let sp = Support.Trace.begin_span ~cat:"fpga" pl.Netlist.pl_name in
      match f () with
      | (_, (st : stats)) as r ->
        Support.Trace.end_span
          ~args:
            [
              "cycles", Support.Trace.Int st.cycles;
              "items", Support.Trace.Int st.items;
              "stalls", Support.Trace.Int st.stalls;
            ]
          sp;
        r
      | exception e ->
        Support.Trace.end_span sp;
        raise e
  in
  traced @@ fun () ->
  let clk_var = Option.map (fun v -> Vcd.add_var v ~name:"clk" ~width:1) vcd in
  let depth = pl.Netlist.pl_fifo_depth in
  let pipelined = pl.Netlist.pl_pipelined in
  let specs = Array.of_list pl.Netlist.pl_stages in
  let n = Array.length specs in
  let input_fifos = Array.init n (fun _ -> Fifo.create depth) in
  let sink_fifo = Fifo.create depth in
  let stages =
    Array.mapi
      (fun i (st : Netlist.stage) ->
        {
          stage = st;
          filter = filter_of unit_ st;
          input_fifo = input_fifos.(i);
          down = (if i + 1 < n then input_fifos.(i + 1) else sink_fifo);
          inflight = Fifo.create (if pipelined then st.st_latency + 1 else 0);
          phase = Idle;
          held = V.Unit;
          remaining = 0;
          wave = Option.map (fun v -> wave_of v st) vcd;
        })
      specs
  in
  Option.iter Vcd.finalize_header vcd;
  let pending = ref inputs in
  let outputs = ref [] in
  let stalls = ref 0 in
  let max_occ = ref 0 in
  let cycle = ref 0 in
  let clk level time =
    match vcd, clk_var with
    | Some w, Some var -> Vcd.set w ~time_ns:time var level
    | _, _ -> ()
  in
  let occupancy f = if Fifo.length f > !max_occ then max_occ := Fifo.length f in
  let quiescent () =
    (match !pending with [] -> true | _ :: _ -> false)
    && Array.for_all is_drained stages
    && Fifo.length sink_fifo = 0
  in
  while not (quiescent ()) do
    let now = !cycle in
    if now > max_cycles then fail "pipeline wedged after %d cycles" max_cycles;
    let time = now * clock_ns in
    (* rising edge *)
    clk 1 time;
    (* Sink drains first so a full FIFO frees within the cycle order
       downstream-to-upstream (registered visibility still enforces the
       one-cycle FIFO delay). *)
    if Fifo.ready sink_fifo ~cycle:now then
      outputs := Fifo.pop sink_fifo :: !outputs;
    for i = 0 to n - 1 do
      let s = stages.(i) in
      wave_idle s ~time;
      if pipelined then begin
        (* Fully pipelined stage (initiation interval 1): publish the
           oldest in-flight result whose latency has elapsed, then
           accept one new element into the pipeline registers. The
           register file holds at most [st_latency + 1] values;
           downstream backpressure stalls acceptance. *)
        if Fifo.ready s.inflight ~cycle:now then
          if Fifo.has_space s.down then begin
            let y = Fifo.pop s.inflight in
            Fifo.push s.down ~cycle:now y;
            wave_publish s ~time y
          end
          else incr stalls;
        if
          Fifo.length s.inflight <= s.stage.st_latency
          && Fifo.ready s.input_fifo ~cycle:now
        then begin
          let x = Fifo.pop s.input_fifo in
          wave_accept s ~time x;
          Fifo.push_at s.inflight ~visible:(now + s.stage.st_latency)
            (s.filter x)
        end
      end
      else
        match s.phase with
        | Publishing ->
          if Fifo.has_space s.down then begin
            Fifo.push s.down ~cycle:now s.held;
            wave_publish s ~time s.held;
            s.held <- V.Unit;
            s.phase <- Idle
          end
          else incr stalls
        | Computing ->
          if s.remaining > 1 then s.remaining <- s.remaining - 1
          else begin
            s.held <- s.filter s.held;
            s.phase <- Publishing
          end
        | Idle ->
          if Fifo.ready s.input_fifo ~cycle:now then begin
            let x = Fifo.pop s.input_fifo in
            wave_accept s ~time x;
            s.held <- x;
            s.remaining <- s.stage.st_latency;
            s.phase <- Computing
          end
    done;
    (* Source feeds the first stage, one element per cycle. *)
    (match !pending with
    | x :: rest when n > 0 && Fifo.has_space stages.(0).input_fifo ->
      Fifo.push stages.(0).input_fifo ~cycle:now x;
      pending := rest
    | _ -> ());
    Array.iter occupancy input_fifos;
    occupancy sink_fifo;
    (* falling edge *)
    clk 0 (time + (clock_ns / 2));
    incr cycle
  done;
  ( List.rev !outputs,
    {
      cycles = !cycle;
      items = List.length !outputs;
      stalls = !stalls;
      max_fifo_occupancy = !max_occ;
    } )
