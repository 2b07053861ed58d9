module Ir = Lime_ir.Ir

(** The bytecode compiler: IR functions to stack-machine code.

    Structured control flow (if / while) is linearized with forward
    labels and backpatching; virtual registers become local slots
    (parameters occupy their declared slots, matching the VM's calling
    convention). *)

type code = {
  c_key : string;  (** function key, e.g. ["Bitflip.flip"] *)
  c_insns : Insn.t array;
  c_slots : int;  (** local-variable slot count *)
  c_params : int;  (** parameter count (receiver included) *)
  c_ret : Ir.ty;
}

type attachment = ..
(** State a consumer derives from a unit and keeps for the unit's
    lifetime (the VM's compiled functions). *)

type unit_ = {
  u_funcs : code Ir.String_map.t;
  u_program : Ir.program;  (** class/enum/template metadata *)
  mutable u_attached : attachment option;
      (** set by the consumer on first use; [{ u with ... }] copies it,
          so a consumer checks that it is attached to this very unit *)
}

val compile_function : ?proven:(Ir.instr -> bool) -> Ir.func -> code
(** [proven] marks array accesses (by physical instruction identity)
    that were statically proven in bounds; they compile to the
    unchecked [ALOAD_U]/[ASTORE_U] opcodes. Default: none. *)

val compile_program :
  ?proven:(string -> Ir.instr -> bool) -> Ir.program -> unit_
(** [compile_program ?proven p] compiles every function; [proven key]
    is the bounds-proof predicate for function [key] (see
    [Analysis.Symbolic.prover]). *)

val disassemble : code -> string
