(* perfbench: the repository's two-clock, layer-by-layer benchmark.

     perfbench --workload kernels|bytecode|streams|serve --seed N
               --seconds S --trace 0|1

   Every op is compiled, run and checked through the public API
   (Liquid_metal.Compiler, Runtime.Exec, Serve.Engine, Serve.Job); the
   benchmark measures from outside and adds no tracing inside lib/.

   --trace 0 times untraced passes and reports the end-to-end metrics.
   --trace 1 spends half the time on untraced passes (compile phases,
   per-program host time, counters) and half on traced passes, whose
   spans are folded into per-layer self times with Observe.Spans; the
   difference between the two halves is the tracing overhead.

   The last stdout line is one JSON object:
     {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
   Everything else, including the modeled and virtual figures (which
   are checked, and repeat exactly), is the human-readable report above
   it. See perfbench/README.md. *)

module Lm = Liquid_metal.Lm
module Compiler = Liquid_metal.Compiler
module Exec = Runtime.Exec
module Metrics = Runtime.Metrics
module Substitute = Runtime.Substitute
module Trace = Support.Trace
module Stats = Support.Stats
module Spans = Observe.Spans
module Json = Observe.Json
module Engine = Serve.Engine
module Job = Serve.Job

let now = Unix.gettimeofday
let median = function [] -> 0.0 | xs -> Stats.percentile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0
let assoc0 k l = Option.value (List.assoc_opt k l) ~default:0.0

(* ---------- command line ---------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let () =
  let usage =
    "perfbench --workload kernels|bytecode|streams|serve --seed N --seconds S \
     --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload [ "kernels"; "bytecode"; "streams"; "serve" ]))
    || !seconds < 1
    || not (List.mem !trace [ 0; 1 ])
  then begin
    prerr_endline usage;
    exit 2
  end

let traced_run = !trace = 1

(* The seed orders the programs of every pass. *)
let rng = Random.State.make [| !seed |]

let shuffle l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---------- failure accounting ---------- *)

let attempted = ref 0
let failed = ref 0

(* One checked op: [Some msg] is a failure. *)
let record outcome =
  incr attempted;
  Option.iter
    (fun msg ->
      incr failed;
      if !failed <= 20 then prerr_endline ("FAIL " ^ msg))
    outcome

let catch what f = try f () with e -> Error (what ^ ": " ^ Printexc.to_string e)

(* ---------- the host clock at reference speed ---------- *)

(* A shared host's speed drifts as other tenants come and go (by up to
   1.5x over seconds on the 2-vCPU VM the baseline was taken on). Every
   timed unit is bracketed by runs of the reference loop, and the host
   seconds measured inside it are rescaled to a machine on which one
   reference run takes [ref_nominal_s]. *)
let ref_nominal_s = 0.010
let ref_samples = ref []

let ref_time () =
  let t = Refloop.time () in
  ref_samples := t :: !ref_samples;
  t

(* [f ()] and the factor from host seconds measured during it to
   reference-speed seconds. *)
let at_ref_speed f =
  let before = ref_time () in
  let r = f () in
  let after = ref_time () in
  (r, ref_nominal_s /. ((before +. after) /. 2.0))

(* [f ()] and its reference-speed duration in seconds. *)
let timed_at_ref f =
  let (r, host_s), speed =
    at_ref_speed (fun () ->
        let t0 = now () in
        let r = f () in
        (r, now () -. t0))
  in
  (r, host_s *. speed)

(* ---------- scratch space: a fresh profile store per setup ---------- *)

(* Inside the checkout and removed at exit: the placement profile store
   must start cold and must never land in the repository. *)
let tmp_dir =
  Filename.concat (Sys.getcwd ()) (Printf.sprintf ".perfbench-tmp-%d" (Unix.getpid ()))

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let () = at_exit (fun () -> remove tmp_dir)

let fresh_profile_path () =
  remove tmp_dir;
  Sys.mkdir tmp_dir 0o755;
  Filename.concat tmp_dir "serve.profiles"

(* ---------- traced passes ---------- *)

(* Layer of a span category. The benchmark's own spans carry the name
   of the layer whose public call they wrap. *)
let layer_of_cat = function
  | "gpu" -> "gpu.simt"
  | "vm" | "run" -> "bytecode.vm"
  | "fpga" -> "rtl.sim"
  | "boundary" -> "wire.boundary"
  | "launch" -> "runtime.launch"
  | "runtime" | "backoff" -> "runtime.exec"
  | "job" | "serve" -> "serve.engine"
  | "compiler" | "liquid_metal" -> "liquid_metal.compile"
  | _ -> "perfbench"

(* Totals over every traced unit of the run. *)
let self_us : (string, float) Hashtbl.t = Hashtbl.create 16
let simt_items = ref 0
let rtl_cycles = ref 0
let wire_bytes = ref 0
let wire_crossings = ref 0
let job_ms : (string, float list) Hashtbl.t = Hashtbl.create 4

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

let fold events =
  List.iter
    (fun root ->
      List.iter
        (fun ((), (owner : Spans.span), t0, t1) ->
          add self_us (layer_of_cat owner.Spans.cat) (t1 -. t0))
        (Spans.slices ~init:() ~enter:(fun () _ -> ()) root))
    (Spans.build events);
  List.iter
    (function
      | Trace.Span { cat; args; dur_us; _ } -> (
        let int k = match List.assoc_opt k args with Some (Trace.Int n) -> n | _ -> 0 in
        match cat with
        | "gpu" -> simt_items := !simt_items + int "items"
        | "fpga" -> rtl_cycles := !rtl_cycles + int "cycles"
        | "boundary" ->
          wire_bytes := !wire_bytes + int "bytes";
          incr wire_crossings
        | "job" -> (
          match List.assoc_opt "workload" args with
          | Some (Trace.Str w) ->
            Hashtbl.replace job_ms w
              ((dur_us /. 1e3) :: Option.value (Hashtbl.find_opt job_ms w) ~default:[])
          | _ -> ())
        | _ -> ())
      | _ -> ())
    events

(* Ring capacity per traced unit: effectively unbounded the first time,
   then twice the largest count seen for that unit. A drop fails the
   run: the default 65536-event ring silently truncates long streams. *)
let ring_events : (string, int) Hashtbl.t = Hashtbl.create 16
let dropped = ref 0

let traced key f =
  let seen = Hashtbl.find_opt ring_events key in
  let capacity = match seen with Some n -> (2 * n) + 4096 | None -> 1 lsl 24 in
  let sink = Trace.ring ~capacity () in
  Trace.set_sink sink;
  let r = Fun.protect ~finally:(fun () -> Trace.set_sink Trace.null) f in
  if Trace.dropped sink > 0 then begin
    dropped := !dropped + Trace.dropped sink;
    record (Some (Printf.sprintf "trace ring dropped %d events in %s" (Trace.dropped sink) key))
  end;
  Hashtbl.replace ring_events key
    (max (Trace.event_count sink) (Option.value seen ~default:0));
  fold (Trace.events sink);
  r

(* ---------- modeled-clock reference ---------- *)

(* BENCH_fuse.json's fused_modeled_ns: the accelerator-first modeled
   cost of every catalog program at its default size. *)
let fuse_reference =
  lazy
    (let text = In_channel.with_open_bin "BENCH_fuse.json" In_channel.input_all in
     List.filter_map
       (fun row ->
         match
           ( Json.str_opt (Json.member "workload" row),
             Json.num_opt (Json.member "fused_modeled_ns" row) )
         with
         | Some w, Some ns -> Some (w, ns)
         | _ -> None)
       (Json.to_list
          (Option.value (Json.member "workloads" (Json.parse text)) ~default:Json.Null)))

let check_fuse_reference name modeled_ns =
  record
    (match List.assoc_opt name (Lazy.force fuse_reference) with
    | None -> Some (name ^ ": no BENCH_fuse.json row")
    | Some ns when Printf.sprintf "%.1f" ns = Printf.sprintf "%.1f" modeled_ns -> None
    | Some ns ->
      Some
        (Printf.sprintf "%s: modeled %.1f ns, BENCH_fuse.json has %.1f ns" name
           modeled_ns ns))

(* ---------- kernels, bytecode, streams: one op per program ---------- *)

type prog = {
  w : Workloads.t;
  size : int;
  args : Lm.I.v list;
  expected : string;  (** [Lm.show] of the validated output *)
  modeled_ns : float;  (** every run of this program must repeat it *)
}

let run_program ~policy (w : Workloads.t) args =
  let c = Compiler.compile ~file:(w.Workloads.name ^ ".lime") w.Workloads.source in
  let e = Compiler.engine ~policy c in
  let v = Exec.call e w.Workloads.entry args in
  (v, Exec.modeled_ns e)

(* Inputs, reference outputs and the warm-up pass: each program runs
   under both policies (one of them is the workload's own), both
   outputs are validated and must be bit-identical, and at the default
   size the accelerator-first modeled clock must match BENCH_fuse.json. *)
let setup_prog ~policy ~scale (w : Workloads.t) =
  let name = w.Workloads.name in
  let size = w.Workloads.default_size * scale in
  let args = w.Workloads.args ~size in
  let checked policy =
    catch name (fun () ->
        let v, ns = run_program ~policy w args in
        Result.map (fun () -> (Lm.show v, ns)) (Refs.validate w ~size args v))
  in
  let accel = checked Substitute.Prefer_accelerators in
  let bc = checked Substitute.Bytecode_only in
  let err = function Error m -> Some m | Ok _ -> None in
  record (err accel);
  record (err bc);
  (match accel, bc with
  | Ok (a, _), Ok (b, _) when a <> b ->
    record (Some (name ^ ": accelerator and bytecode outputs differ"))
  | _ -> ());
  let default_ns =
    if scale = 1 then Result.map snd accel
    else
      catch name (fun () ->
          let size = w.Workloads.default_size in
          Ok (snd (run_program ~policy:Substitute.Prefer_accelerators w (w.Workloads.args ~size))))
  in
  Result.iter (check_fuse_reference name) default_ns;
  match if policy = Substitute.Bytecode_only then bc else accel with
  | Ok (expected, modeled_ns) -> Some { w; size; args; expected; modeled_ns }
  | Error _ -> None

type op = {
  o_name : string;
  o_host_s : float;  (** compile + engine + call *)
  o_compile_s : float;
  o_call_s : float;
  o_speed : float;  (** host seconds -> reference-speed seconds *)
  o_phases : (string * float) list;
  o_metrics : Metrics.snapshot;
  o_modeled_ns : float;
}

(* One op: compile, build an engine, call, check. The check is outside
   the clock and outside the op span. Each op starts from a collected
   heap, as a fresh lmc process would, so no op pays for the garbage of
   the one the shuffle put before it. *)
let run_op ~policy p =
  let name = p.w.Workloads.name in
  Gc.full_major ();
  let op () =
    Trace.with_span ~cat:"perfbench" ("op:" ^ name) (fun () ->
        let t0 = now () in
        let c =
          Trace.with_span ~cat:"liquid_metal" "compile" (fun () ->
              Compiler.compile ~file:(name ^ ".lime") p.w.Workloads.source)
        in
        let t1 = now () in
        let e =
          Trace.with_span ~cat:"liquid_metal" "engine" (fun () -> Compiler.engine ~policy c)
        in
        let t2 = now () in
        let v =
          Trace.with_span ~cat:"runtime" "call" (fun () -> Exec.call e p.w.Workloads.entry p.args)
        in
        let t3 = now () in
        (v, c, e, (t1 -. t0, t3 -. t2, t3 -. t0)))
  in
  match at_ref_speed op with
  | exception e ->
    record (Some (name ^ ": " ^ Printexc.to_string e));
    None
  | (v, c, e, (compile_s, call_s, host_s)), speed ->
    let o =
      {
        o_name = name;
        o_host_s = host_s;
        o_compile_s = compile_s;
        o_call_s = call_s;
        o_speed = speed;
        o_phases = c.Compiler.phase_seconds;
        o_metrics = Metrics.snapshot (Exec.metrics e);
        o_modeled_ns = Exec.modeled_ns e;
      }
    in
    record
      (if Lm.show v <> p.expected then Some (name ^ ": output differs from the reference")
       else if o.o_modeled_ns <> p.modeled_ns then
         Some
           (Printf.sprintf "%s: modeled %.1f ns, first run %.1f ns" name o.o_modeled_ns
              p.modeled_ns)
       else None);
    Some o

let program_pass ~policy ~tracing progs =
  List.filter_map
    (fun p ->
      let go () = run_op ~policy p in
      if tracing then traced p.w.Workloads.name go else go ())
    (shuffle progs)

(* The sum over programs of each one's median across passes: a slow
   outlier in one pass does not move it. *)
let sum_of_medians f passes names =
  sum
    (List.map
       (fun name ->
         median
           (List.filter_map
              (fun ops -> Option.map f (List.find_opt (fun o -> o.o_name = name) ops))
              passes))
       names)

(* ---------- serve: an open-loop multi-tenant load ---------- *)

let tenants = [ ("gold", 2); ("silver", 1); ("bronze", 1) ]
let serve_programs = [ "saxpy"; "sumsq"; "dsp_chain"; "fir4" ]
let serve_size = 256

(* 1002 jobs per rung: p99 keeps at least ten samples beyond it. *)
let jobs_per_tenant = 334

(* Per-tenant interarrival gaps of the offered-rate ladder, slowest
   first; p50/p99 are reported at the nominal rung. *)
let ladder_ns = [ 40_000.0; 20_000.0; 10_000.0; 5_000.0 ]
let nominal_gap_ns = 20_000.0
let is_nominal gap_ns = gap_ns = nominal_gap_ns
let p99_limit_ns = 50_000.0
let offered_jps gap_ns = float_of_int (List.length tenants) /. (gap_ns /. 1e9)

type rung = {
  r_gap_ns : float;
  r_jobs : int;
  r_host_s : float;
  r_speed : float;
  r_wall_ns : float;  (** virtual drain time *)
  r_p50_ns : float;
  r_p99_ns : float;
  r_p99_first_ns : float;  (** p99 over the first half of the jobs *)
  r_p99_second_ns : float;
  r_service_ns : float;  (** modeled execution time of all jobs *)
  r_batched : int;
  r_busy : (string * float) list;  (** device -> busy share of the drain *)
  r_vm_insns : int;
  r_sched_steps : int;
  r_sched_blocked : int;
}

(* A rung keeps its p99 within the limit and has no growing backlog:
   the second half's p99 is at most [backlog_slack] times the first
   half's. The slack absorbs arrival jitter on 501-job halves (about
   10% at the nominal rung); a growing backlog doubles it. *)
let backlog_slack = 1.25

let sustained r =
  r.r_p99_ns <= p99_limit_ns && r.r_p99_second_ns <= backlog_slack *. r.r_p99_first_ns

(* The figures that must repeat exactly from pass to pass. *)
let virtual_key r = (r.r_wall_ns, r.r_p50_ns, r.r_p99_ns, r.r_service_ns, r.r_batched)

let drain ~profile_path ~expected (gap_ns, load) =
  let config = { Engine.default_config with Engine.c_profile_path = profile_path } in
  Gc.full_major ();
  let run () =
    let t0 = now () in
    let report = Trace.with_span ~cat:"serve" "drain" (fun () -> Engine.run ~config load) in
    (report, now () -. t0)
  in
  match at_ref_speed run with
  | exception e ->
    List.iter (fun _ -> record (Some ("serve drain: " ^ Printexc.to_string e))) load.Job.l_jobs;
    None
  | (report, host_s), speed ->
    let jobs = report.Engine.sr_jobs in
    List.iter
      (fun (j : Engine.job_result) ->
        let w = j.Engine.jr_spec.Job.j_workload in
        record
          (if Some j.Engine.jr_output = List.assoc_opt w expected then None
           else
             Some
               (Printf.sprintf "serve job %d (%s): output differs from its solo run"
                  j.Engine.jr_spec.Job.j_id w)))
      jobs;
    for _ = List.length jobs + 1 to List.length load.Job.l_jobs do
      record (Some "serve: a submitted job was not drained")
    done;
    let latency (j : Engine.job_result) =
      j.Engine.jr_finish_ns -. j.Engine.jr_spec.Job.j_arrival_ns
    in
    let pct q js = if js = [] then 0.0 else Stats.percentile (List.map latency js) q in
    let half = List.length jobs / 2 in
    let isum f =
      List.fold_left (fun a (j : Engine.job_result) -> a + f j.Engine.jr_metrics) 0 jobs
    in
    let wall = report.Engine.sr_wall_ns in
    Some
      {
        r_gap_ns = gap_ns;
        r_jobs = List.length jobs;
        r_host_s = host_s;
        r_speed = speed;
        r_wall_ns = wall;
        r_p50_ns = pct 0.5 jobs;
        r_p99_ns = pct 0.99 jobs;
        r_p99_first_ns = pct 0.99 (List.filteri (fun i _ -> i < half) jobs);
        r_p99_second_ns = pct 0.99 (List.filteri (fun i _ -> i >= half) jobs);
        r_service_ns =
          sum (List.map (fun (j : Engine.job_result) -> j.Engine.jr_service_ns) jobs);
        r_batched =
          List.length (List.filter (fun (j : Engine.job_result) -> j.Engine.jr_batched) jobs);
        r_busy =
          List.map
            (fun (d : Engine.device_report) ->
              (d.Engine.dr_device, ratio d.Engine.dr_busy_ns wall))
            report.Engine.sr_devices;
        r_vm_insns = isum (fun m -> m.Metrics.vm_instructions);
        r_sched_steps = isum (fun m -> m.Metrics.sched_steps);
        r_sched_blocked = isum (fun m -> m.Metrics.sched_blocked_steps);
      }

(* Each distinct (workload, size) is checked once: a direct run must
   pass the reference and equal Engine.solo_output, which every served
   job of that workload must then reproduce. *)
let serve_expected () =
  List.filter_map
    (fun name ->
      let w = Workloads.find name in
      let args = w.Workloads.args ~size:serve_size in
      let outcome =
        catch name (fun () ->
            let v, _ = run_program ~policy:Substitute.Prefer_accelerators w args in
            let solo =
              Engine.solo_output
                {
                  Job.j_id = 0;
                  j_tenant = "solo";
                  j_workload = name;
                  j_size = serve_size;
                  j_arrival_ns = 0.0;
                  j_class = Job.Batch;
                }
            in
            Result.bind (Refs.validate w ~size:serve_size args v) (fun () ->
                if Lm.show v = solo then Ok solo
                else Error (name ^ ": solo output differs from a direct run")))
      in
      record (match outcome with Ok _ -> None | Error m -> Some m);
      Result.to_option (Result.map (fun solo -> (name, solo)) outcome))
    serve_programs

(* The serve programs compiled [compile_reps] times each, as one timed
   unit: one compile of them all takes under 2 ms. *)
let compile_reps = 5

let compile_set () =
  at_ref_speed (fun () ->
      List.concat_map
        (fun name ->
          let w = Workloads.find name in
          List.init compile_reps (fun _ ->
              let t0 = now () in
              let c = Compiler.compile ~file:(name ^ ".lime") w.Workloads.source in
              (name, now () -. t0, c.Compiler.phase_seconds)))
        serve_programs)

(* ---------- passes ---------- *)

let min_passes = 2

(* The peak major heap over set-up and the first pass: a fixed amount of
   work, so the figure does not grow with the number of passes. *)
let peak_heap_mb = ref 0.0

let passes ~budget pass =
  let t_end = now () +. budget in
  let rec go acc =
    let acc = pass () :: acc in
    if !peak_heap_mb = 0.0 then
      peak_heap_mb :=
        float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6;
    if now () >= t_end && List.length acc >= min_passes then List.rev acc else go acc
  in
  go []

(* Set-up, repeated [setup_reps] times in an end-to-end run. [f] returns
   its result and its reference-speed duration, summed over units short
   enough for the reference loop to track the machine; setup_s is the
   median. *)
let setup_reps = 3

let repeated_setup f =
  let runs = List.init (if traced_run then 1 else setup_reps) (fun _ -> f ()) in
  (median (List.map snd runs), fst (List.nth runs (List.length runs - 1)))

(* ---------- metrics and output ---------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_clock : string }

let metric m_name m_unit m_clock m_value = { m_name; m_value; m_unit; m_clock }

(* Compiler.phase_seconds names -> layer metrics. *)
let phase_metric = function
  | "parse" -> Some "lime_syntax.parse_ms"
  | "typecheck" -> Some "lime_types.typecheck_ms"
  | "lower" -> Some "lime_ir.lower_ms"
  | "optimize" -> Some "lime_ir.optimize_ms"
  | "fuse" -> Some "lime_ir.fuse_ms"
  | "analyze" | "analyze-fused" -> Some "analysis.analyze_ms"
  | "bytecode-backend" -> Some "bytecode.backend_ms"
  | "native-backend" -> Some "native_cpu.backend_ms"
  | "gpu-backend" -> Some "gpu.backend_ms"
  | "fpga-backend" -> Some "rtl.backend_ms"
  | "fuse-backend" -> Some "liquid_metal.fuse_backend_ms"
  | _ -> None

let phase_metrics =
  [
    "lime_syntax.parse_ms"; "lime_types.typecheck_ms"; "lime_ir.lower_ms";
    "lime_ir.optimize_ms"; "lime_ir.fuse_ms"; "analysis.analyze_ms";
    "bytecode.backend_ms"; "native_cpu.backend_ms"; "gpu.backend_ms";
    "rtl.backend_ms"; "liquid_metal.fuse_backend_ms";
  ]

(* Per-pass phase seconds, keyed by layer metric. *)
let phases_by_metric phases =
  List.map
    (fun m -> (m, sum (List.filter_map (fun (ph, s) -> if phase_metric ph = Some m then Some s else None) phases)))
    phase_metrics

let ref_ms () = metric "perfbench.ref_ms" "ms" "host" (1e3 *. median !ref_samples)

let self_layers =
  [
    ("gpu.simt", "gpu.simt_self_ms"); ("bytecode.vm", "bytecode.vm_self_ms");
    ("rtl.sim", "rtl.sim_self_ms"); ("wire.boundary", "wire.boundary_self_ms");
    ("runtime.launch", "runtime.launch_self_ms"); ("runtime.exec", "runtime.exec_self_ms");
    ("serve.engine", "serve.engine_self_ms");
  ]

(* What a traced run measured, per traced pass; serve's unit is one
   drain of the nominal rung. *)
type layer_inputs = {
  li_phases : (string * float) list list;  (** per untraced pass, metric -> s *)
  li_traced_passes : int;
  li_untraced_s : float;  (** median reference-speed pass time *)
  li_traced_s : float;
  li_vm_insns : int;
  li_sched_steps : int;
  li_sched_blocked : int;
  li_prog_ms : (string * float) list;
  li_sim_cost : float;
  li_calibrate_ms : float;
  li_nominal : rung option;
}

(* The per-layer metrics every workload reports: zero where the
   workload does not exercise the layer. Times are raw host times;
   perfbench.ref_ms gives the machine speed they were taken at. *)
let layer_metrics li =
  let per_pass x = x /. float_of_int (max 1 li.li_traced_passes) in
  let self_s layer = per_pass (Option.value (Hashtbl.find_opt self_us layer) ~default:0.0) /. 1e6 in
  let per_s x layer = ratio x (self_s layer) in
  let host name unit v = metric name unit "host" v in
  let count name unit v = metric name unit "modeled" v in
  let items = per_pass (float_of_int !simt_items) in
  let cycles = per_pass (float_of_int !rtl_cycles) in
  let bytes = per_pass (float_of_int !wire_bytes) in
  let vm = float_of_int li.li_vm_insns and steps = float_of_int li.li_sched_steps in
  let nominal f = Option.fold ~none:0.0 ~some:f li.li_nominal in
  List.map
    (fun m -> host m "ms" (1e3 *. median (List.map (assoc0 m) li.li_phases)))
    phase_metrics
  @ List.map (fun (layer, name) -> host name "ms" (1e3 *. self_s layer)) self_layers
  @ [
      count "gpu.simt_items" "count" items;
      host "gpu.simt_items_per_s" "1/s" (per_s items "gpu.simt");
      count "bytecode.vm_insns" "count" vm;
      host "bytecode.vm_insns_per_s" "1/s" (per_s vm "bytecode.vm");
      count "rtl.sim_cycles" "count" cycles;
      host "rtl.sim_cycles_per_s" "1/s" (per_s cycles "rtl.sim");
      count "runtime.sched_steps" "count" steps;
      host "runtime.sched_steps_per_s" "1/s" (per_s steps "runtime.exec");
      count "runtime.blocked_ratio" "ratio" (ratio (float_of_int li.li_sched_blocked) steps);
      count "wire.bytes" "bytes" bytes;
      count "wire.crossings" "count" (per_pass (float_of_int !wire_crossings));
      host "wire.mb_per_s" "MB/s" (per_s (bytes /. 1e6) "wire.boundary");
      host "placement.calibrate_ms" "ms" li.li_calibrate_ms;
      metric "serve.batched_ratio" "ratio" "virtual"
        (nominal (fun r -> ratio (float_of_int r.r_batched) (float_of_int r.r_jobs)));
    ]
  @ List.map
      (fun d ->
        metric ("serve." ^ d ^ "_busy") "ratio" "virtual" (nominal (fun r -> assoc0 d r.r_busy)))
      [ "gpu"; "fpga"; "native"; "vm" ]
  @ List.map
      (fun (w : Workloads.t) ->
        let name = w.Workloads.name in
        host ("prog." ^ name ^ ".host_ms") "ms" (assoc0 name li.li_prog_ms))
      Workloads.all
  @ [
      host "sim_cost" "us/us" li.li_sim_cost;
      host "support.trace_overhead_pct" "%" (100.0 *. (ratio li.li_traced_s li.li_untraced_s -. 1.0));
      ref_ms ();
    ]

let print_shares li =
  Printf.printf "\ntrace ring: largest unit %d events, %d dropped\n"
    (Hashtbl.fold (fun _ n acc -> max n acc) ring_events 0)
    !dropped;
  Printf.printf "self time per traced pass (deepest owner)\n";
  let total = Hashtbl.fold (fun _ us acc -> acc +. us) self_us 0.0 in
  let t = Stats.Table.create ~columns:[ "layer"; "ms/pass"; "share" ] in
  Hashtbl.fold (fun layer us acc -> (layer, us) :: acc) self_us []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.iter (fun (layer, us) ->
         Stats.Table.add_row t
           [
             layer;
             Printf.sprintf "%.2f" (us /. 1e3 /. float_of_int (max 1 li.li_traced_passes));
             Printf.sprintf "%.1f%%" (100.0 *. ratio us total);
           ]);
  print_string (Stats.Table.render t)

let print_table rows =
  let t = Stats.Table.create ~columns:[ "metric"; "value"; "unit"; "clock" ] in
  List.iter
    (fun m -> Stats.Table.add_row t [ m.m_name; Printf.sprintf "%.6g" m.m_value; m.m_unit; m.m_clock ])
    rows;
  print_string (Stats.Table.render t)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value) m.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed (String.concat ", " fields)

let header detail =
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d\n%s\n" !workload !seed
    !seconds !trace detail

(* End-to-end metrics go to the JSON line of an untraced run, layer
   metrics to that of a traced run; the report shows both, plus the
   deterministic figures that are checked rather than timed. *)
let finish ~end_to_end ~checked ~layers =
  let checked = List.filter (fun m -> not (List.exists (fun l -> l.m_name = m.m_name) layers)) checked in
  print_newline ();
  print_table (end_to_end @ checked @ layers);
  print_result (if traced_run then layers else end_to_end);
  exit (if !failed = 0 then 0 else 1)

let failed_ratio () =
  metric "failed_ratio" "ratio" "-" (ratio (float_of_int !failed) (float_of_int !attempted))

let ops_per_s ~ops ~seconds = metric "ops_per_s" "1/s" "host@ref" (ratio ops seconds)

(* ---------- workloads ---------- *)

let stream_scale = 64

let run_programs () =
  let policy =
    if !workload = "bytecode" then Substitute.Bytecode_only else Substitute.Prefer_accelerators
  in
  let streams = !workload = "streams" in
  let programs =
    List.filter
      (fun (w : Workloads.t) -> (w.Workloads.category = Workloads.Gpu_map) <> streams)
      Workloads.all
  in
  let scale = if streams then stream_scale else 1 in
  let setup_s, progs =
    repeated_setup (fun () ->
        let timed = List.map (fun w -> timed_at_ref (fun () -> setup_prog ~policy ~scale w)) programs in
        (List.filter_map fst timed, sum (List.map snd timed)))
  in
  let names = List.map (fun p -> p.w.Workloads.name) progs in
  let budget = float_of_int !seconds in
  let pass tracing () = program_pass ~policy ~tracing progs in
  let untraced = passes ~budget:(if traced_run then budget /. 2.0 else budget) (pass false) in
  let traced_passes = if traced_run then passes ~budget:(budget /. 2.0) (pass true) else [] in
  let at_ref f o = f o *. o.o_speed in
  let med_sum f l = sum_of_medians f l names in
  let modeled_ns = sum (List.map (fun p -> p.modeled_ns) progs) in
  header
    (Printf.sprintf "%d programs x %d untraced + %d traced passes, %s policy, %dx default size"
       (List.length progs) (List.length untraced) (List.length traced_passes)
       (if policy = Substitute.Bytecode_only then "bytecode" else "accelerator-first")
       scale);
  let t = Stats.Table.create ~columns:[ "program"; "size"; "host ms"; "modeled us" ] in
  List.iter
    (fun p ->
      let name = p.w.Workloads.name in
      Stats.Table.add_row t
        [
          name;
          string_of_int p.size;
          Printf.sprintf "%.2f" (1e3 *. sum_of_medians (fun o -> o.o_host_s) untraced [ name ]);
          Printf.sprintf "%.3f" (p.modeled_ns /. 1e3);
        ])
    progs;
  print_string (Stats.Table.render t);
  let n = float_of_int (List.length progs) in
  let end_to_end =
    [
      metric "setup_s" "s" "host@ref" setup_s;
      ops_per_s ~ops:n ~seconds:(med_sum (at_ref (fun o -> o.o_host_s)) untraced);
      metric "compile_ms" "ms" "host@ref" (1e3 *. med_sum (at_ref (fun o -> o.o_compile_s)) untraced);
      metric "peak_heap_mb" "MB" "host" !peak_heap_mb;
    ]
  in
  let checked =
    [
      metric "ops_per_s_raw" "1/s" "host" (ratio n (med_sum (fun o -> o.o_host_s) untraced));
      metric "modeled_us" "us" "modeled" (modeled_ns /. 1e3);
      failed_ratio ();
      ref_ms ();
    ]
  in
  let layers =
    if not traced_run then []
    else begin
      let first = List.hd untraced in
      let isum f = List.fold_left (fun a o -> a + f o.o_metrics) 0 first in
      let li =
        {
          li_phases =
            List.map (fun ops -> phases_by_metric (List.concat_map (fun o -> o.o_phases) ops)) untraced;
          li_traced_passes = List.length traced_passes;
          li_untraced_s = med_sum (at_ref (fun o -> o.o_host_s)) untraced;
          li_traced_s = med_sum (at_ref (fun o -> o.o_host_s)) traced_passes;
          li_vm_insns = isum (fun m -> m.Metrics.vm_instructions);
          li_sched_steps = isum (fun m -> m.Metrics.sched_steps);
          li_sched_blocked = isum (fun m -> m.Metrics.sched_blocked_steps);
          li_prog_ms =
            List.map (fun name -> (name, 1e3 *. sum_of_medians (fun o -> o.o_host_s) untraced [ name ])) names;
          li_sim_cost = ratio (1e6 *. med_sum (fun o -> o.o_call_s) untraced) (modeled_ns /. 1e3);
          li_calibrate_ms = 0.0;
          li_nominal = None;
        }
      in
      print_shares li;
      layer_metrics li
    end
  in
  finish ~end_to_end ~checked ~layers

let run_serve () =
  let loads =
    List.map
      (fun gap ->
        ( gap,
          Job.synthetic ~workloads:serve_programs ~size:serve_size ~jobs_per_tenant
            ~interarrival_ns:gap ~seed:!seed tenants ))
      ladder_ns
  in
  (* Set-up: reference outputs, then a warm-up pass that calibrates
     every serve program into a fresh profile store. *)
  let setup_s, (profile_path, expected, warm) =
    repeated_setup (fun () ->
        let profile_path = fresh_profile_path () in
        let expected, expected_s = timed_at_ref serve_expected in
        let warm = List.filter_map (drain ~profile_path ~expected) loads in
        ( (profile_path, expected, warm),
          expected_s +. sum (List.map (fun r -> r.r_host_s *. r.r_speed) warm) ))
  in
  let budget = float_of_int !seconds in
  (* A traced pass drains the nominal rung only: the whole ladder would
     hold millions of events in the ring at once. *)
  let pass tracing () =
    let compiled = compile_set () in
    let rungs =
      List.filter_map
        (fun ((gap, _) as load) ->
          let go () = drain ~profile_path ~expected load in
          if not tracing then go ()
          else if is_nominal gap then traced "nominal rung" go
          else None)
        loads
    in
    (compiled, rungs)
  in
  let untraced = passes ~budget:(if traced_run then budget /. 2.0 else budget) (pass false) in
  let traced_passes = if traced_run then passes ~budget:(budget /. 2.0) (pass true) else [] in
  (* the virtual figures repeat exactly, from the warm-up pass on *)
  List.iter
    (fun (_, rungs) ->
      List.iter
        (fun r ->
          record
            (match List.find_opt (fun w -> w.r_gap_ns = r.r_gap_ns) warm with
            | Some w when virtual_key w = virtual_key r -> None
            | _ ->
              Some
                (Printf.sprintf "serve rung %.0f ns: virtual figures moved between passes"
                   r.r_gap_ns)))
        rungs)
    (untraced @ traced_passes);
  let rung_median f gap passes =
    median
      (List.filter_map
         (fun (_, rungs) -> Option.map f (List.find_opt (fun r -> r.r_gap_ns = gap) rungs))
         passes)
  in
  let ladder_s f passes = sum (List.map (fun gap -> rung_median f gap passes) ladder_ns) in
  let at_ref r = r.r_host_s *. r.r_speed in
  let jobs = float_of_int (List.fold_left (fun a r -> a + r.r_jobs) 0 warm) in
  let nominal = List.find_opt (fun r -> is_nominal r.r_gap_ns) warm in
  let capacity =
    List.fold_left
      (fun acc r -> if sustained r then Float.max acc (offered_jps r.r_gap_ns) else acc)
      0.0 warm
  in
  let compile_s f =
    sum
      (List.map
         (fun name ->
           median
             (List.concat_map
                (fun ((compiled, speed), _) ->
                  List.filter_map (fun (n, s, _) -> if n = name then Some (f s speed) else None) compiled)
                untraced))
         serve_programs)
  in
  header
    (Printf.sprintf
       "%d tenants, %d jobs per rung of %s at size %d, %d untraced + %d traced passes"
       (List.length tenants) (List.length tenants * jobs_per_tenant)
       (String.concat "/" serve_programs) serve_size (List.length untraced)
       (List.length traced_passes));
  let t =
    Stats.Table.create
      ~columns:
        [ "gap us"; "offered jps"; "jobs"; "p50 us"; "p99 us"; "p99 1st/2nd half"; "drain us"; "host s"; "sustained" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          Printf.sprintf "%.0f" (r.r_gap_ns /. 1e3);
          Printf.sprintf "%.0f" (offered_jps r.r_gap_ns);
          string_of_int r.r_jobs;
          Printf.sprintf "%.1f" (r.r_p50_ns /. 1e3);
          Printf.sprintf "%.1f" (r.r_p99_ns /. 1e3);
          Printf.sprintf "%.1f / %.1f" (r.r_p99_first_ns /. 1e3) (r.r_p99_second_ns /. 1e3);
          Printf.sprintf "%.1f" (r.r_wall_ns /. 1e3);
          Printf.sprintf "%.3f" (rung_median (fun r -> r.r_host_s) r.r_gap_ns untraced);
          string_of_bool (sustained r);
        ])
    warm;
  print_string (Stats.Table.render t);
  let end_to_end =
    [
      metric "setup_s" "s" "host@ref" setup_s;
      ops_per_s ~ops:jobs ~seconds:(ladder_s at_ref untraced);
      metric "compile_ms" "ms" "host@ref" (1e3 *. compile_s (fun s speed -> s *. speed));
      metric "peak_heap_mb" "MB" "host" !peak_heap_mb;
    ]
  in
  let virtual_ name f = metric name "us" "virtual" (Option.fold ~none:0.0 ~some:f nominal) in
  let checked =
    [
      metric "ops_per_s_raw" "1/s" "host" (ratio jobs (ladder_s (fun r -> r.r_host_s) untraced));
      virtual_ "modeled_us" (fun r -> r.r_wall_ns /. 1e3);
      virtual_ "p50_us" (fun r -> r.r_p50_ns /. 1e3);
      virtual_ "p99_us" (fun r -> r.r_p99_ns /. 1e3);
      metric "capacity_jps" "1/s" "virtual" capacity;
      failed_ratio ();
      ref_ms ();
    ]
  in
  let layers =
    if not traced_run then []
    else begin
      (* cold calibration of the serve programs, into a store of its own *)
      let calibrate_ms =
        let path = Filename.concat tmp_dir "calibrate.profiles" in
        let compiled =
          List.map (fun name -> Compiler.compile (Workloads.find name).Workloads.source) serve_programs
        in
        let t0 = now () in
        let reports = List.map (Placement.Planner.run ~profile_path:path ~n:serve_size) compiled in
        let ms = 1e3 *. (now () -. t0) in
        Printf.printf "\ncold calibration: %d profile entries calibrated in %.2f ms\n"
          (List.fold_left (fun a r -> a + r.Placement.Planner.rp_calibrated) 0 reports)
          ms;
        ms
      in
      let nom f = Option.fold ~none:0 ~some:f nominal in
      let li =
        {
          li_phases =
            List.map
              (fun ((compiled, _), _) ->
                List.map
                  (fun (m, s) -> (m, s /. float_of_int compile_reps))
                  (phases_by_metric (List.concat_map (fun (_, _, ph) -> ph) compiled)))
              untraced;
          li_traced_passes = List.length traced_passes;
          li_untraced_s = rung_median at_ref nominal_gap_ns untraced;
          li_traced_s = rung_median at_ref nominal_gap_ns traced_passes;
          li_vm_insns = nom (fun r -> r.r_vm_insns);
          li_sched_steps = nom (fun r -> r.r_sched_steps);
          li_sched_blocked = nom (fun r -> r.r_sched_blocked);
          li_prog_ms = Hashtbl.fold (fun w ms acc -> (w, median ms) :: acc) job_ms [];
          li_sim_cost =
            ratio
              (1e6 *. rung_median (fun r -> r.r_host_s) nominal_gap_ns untraced)
              (Option.fold ~none:0.0 ~some:(fun r -> r.r_service_ns /. 1e3) nominal);
          li_calibrate_ms = calibrate_ms;
          li_nominal = nominal;
        }
      in
      print_shares li;
      layer_metrics li
    end
  in
  finish ~end_to_end ~checked ~layers

let () = if !workload = "serve" then run_serve () else run_programs ()
