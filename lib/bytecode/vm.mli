module Ir = Lime_ir.Ir

(** The bytecode virtual machine (the reproduction's "JVM").

    The bytecode is the CPU artifact and the source of the modeled CPU
    cost: {!result} reports the executed-instruction count of the
    stack machine, which the cost model converts into modeled CPU time
    ([Metrics.cpu_ns_per_instruction]). Host dispatch is not
    interpretive: each function compiles once per unit, on its first
    call, to OCaml closures over a slot frame (operand-stack positions
    become slots, callees and metadata are resolved ahead, and the
    instruction count is charged once per basic block), so the
    interpretive cost is carried by the modeled count alone.

    Task graphs, map sites and reduce sites trap to {!hooks}; the
    Liquid Metal runtime installs hooks that perform artifact
    substitution and co-execution. With {!no_hooks} everything runs
    inline on the VM itself (pure CPU execution). *)

type v = Lime_ir.Interp.v

exception Vm_error of string

type hooks = {
  on_map : Insn.map_desc -> v list -> v option;
  on_reduce : Insn.reduce_desc -> v -> v option;
  on_run_graph : (Ir.graph_template -> v list -> blocking:bool -> bool) option;
}

val no_hooks : hooks

type result = {
  value : v;
  executed : int;  (** dynamic instruction count, including callees *)
}

val entry : ?hooks:hooks -> Compile.unit_ -> string -> v list -> result
(** [entry unit "Class.method"] resolves the function once; apply the
    result to each argument list. A missing function or wrong argument
    count raises when the handle is applied, not here. *)

val run : ?hooks:hooks -> Compile.unit_ -> string -> v list -> result
(** [run unit "Class.method" args] is [entry unit "Class.method" args].
    @raise Vm_error on stack underflow, missing functions, wrong
    argument counts, type confusion or unset object fields.
    @raise Lime_ir.Interp.Runtime_error on the shared primitives' traps
    (bounds, division by zero, non-value operands). *)
