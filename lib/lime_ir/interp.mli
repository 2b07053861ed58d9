(** Reference interpreter for the IR.

    This is the test oracle and is on no execution path: the bytecode
    VM, the GPU simulator and the RTL simulator (which runs its stages
    on the VM) are all tested against it, and it gives host methods a
    direct execution path in unit tests, without the runtime. Every
    engine shares its value type and {{!section:prims}primitive
    semantics}.

    Map/reduce sites and task graphs execute inline by default; a test
    can intercept them through {!hooks}. *)

exception Runtime_error of string

(** Interpreter values: Lime wire values, plus class instances and
    task-graph handles (which never cross a device boundary). *)
type v =
  | Prim of Wire.Value.t
  | Obj of obj
  | Graph_handle of int

and obj = { obj_class : string; obj_fields : v array }

type hooks = {
  on_map : Ir.map_site -> v list -> v option;
      (** return [Some result] to intercept a map site *)
  on_reduce : Ir.reduce_site -> v -> v option;
  on_run_graph :
    (Ir.graph_template -> v list -> blocking:bool -> bool) option;
      (** full control over graph execution; return [true] if handled *)
}

val no_hooks : hooks

val default_value : Ir.ty -> v
(** Zero / false / empty value used for uninitialized slots. *)

val unset_field : obj -> int -> string
(** The trap message for field [slot] of an instance without it: an
    object-typed field or variable read before it was assigned holds
    the field-less default instance. Shared by every engine. *)

val prim_exn : v -> Wire.Value.t
(** @raise Runtime_error if the value is an object or graph handle. *)

val call :
  ?hooks:hooks ->
  ?proven:(Ir.instr -> bool) ->
  Ir.program ->
  string ->
  v list ->
  v
(** [call prog "Class.method" args] runs a function to completion.
    [proven] marks array accesses (by physical instruction identity)
    whose bounds were statically proven; those skip the per-access
    trap check (see [Analysis.Symbolic]).
    @raise Runtime_error on dynamic errors (bad index, missing
    function, sink overflow, division by zero...). *)

val run_graph_inline :
  ?hooks:hooks -> Ir.program -> Ir.graph_template -> v list -> unit
(** The default sequential graph execution: pull every element from
    the source, apply each filter in order, store into the sink. *)

val pp : Format.formatter -> v -> unit

(** {2:prims Primitive semantics}

    Shared with the bytecode VM (and usable by other backends) so that
    every execution engine agrees bit-for-bit on operator, array and
    constant semantics. All raise {!Runtime_error} on misuse. *)

val eval_unop : Ir.unop -> Wire.Value.t -> Wire.Value.t
val eval_binop : Ir.binop -> Wire.Value.t -> Wire.Value.t -> Wire.Value.t
val const_value : Ir.const -> Wire.Value.t
val array_length : Wire.Value.t -> int
val array_get : Wire.Value.t -> int -> Wire.Value.t
val array_set : Wire.Value.t -> int -> Wire.Value.t -> unit

val array_get_unchecked : Wire.Value.t -> int -> Wire.Value.t
(** [array_get] without the Lime-level bounds trap, for accesses a
    static analysis proved in bounds. The OCaml runtime check remains
    as a safety net. *)

val array_set_unchecked : Wire.Value.t -> int -> Wire.Value.t -> unit
val new_array : Ir.ty -> int -> Wire.Value.t
val freeze : Wire.Value.t -> Wire.Value.t
