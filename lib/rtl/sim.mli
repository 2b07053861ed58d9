(** Clocked simulation of synthesized pipelines.

    Reproduces the behaviour visible in the paper's Figure 4 waveform:
    each stage's FIFO produces a value on the next rising clock edge
    after it is written, and an unpipelined stage spends one cycle
    reading, [st_latency] cycles computing and one cycle publishing.

    A pipeline marked [pl_pipelined] (fused segments) instead runs
    each stage at initiation interval 1: one element enters the
    pipeline registers every cycle and its result is publishable
    [st_latency] cycles later, so a stream of [n] elements drains in
    roughly [n + st_latency] cycles instead of [n * (st_latency + 2)].

    Passing a {!Vcd.t} records [clk], and per stage [<name>_inReady],
    [<name>_inData], [<name>_outReady], [<name>_outData], so the run
    can be inspected in a standard waveform viewer. Without one, no
    waveform is encoded at all.

    Each stage's filter evaluates on the compiled bytecode VM
    ({!Bytecode.Vm.entry}), resolved once per run; stateful receivers
    are the stages' registers and are updated in place. The clock loop
    allocates only for elements it moves, never per cycle. *)

type stats = {
  cycles : int;  (** total clock cycles until the pipeline drained *)
  items : int;  (** elements that reached the sink *)
  stalls : int;  (** publish attempts blocked on a full FIFO *)
  max_fifo_occupancy : int;
}

exception Simulation_error of string

val run :
  ?vcd:Vcd.t ->
  ?clock_ns:int ->
  ?max_cycles:int ->
  Bytecode.Compile.unit_ ->
  Netlist.pipeline ->
  Wire.Value.t list ->
  Wire.Value.t list * stats
(** [run unit_ pipeline inputs] streams every input element through the
    pipeline and returns the sink outputs in order.
    @raise Simulation_error on a wedged pipeline (deadlock /
    [max_cycles] exceeded, default 10 million).
    @raise Bytecode.Vm.Vm_error or [Lime_ir.Interp.Runtime_error] when a
    filter traps, as on the bytecode path. *)
