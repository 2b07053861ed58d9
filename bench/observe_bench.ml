(* Observability regression gate.

   Two claims keep the introspection layer honest, both checked here
   and recorded in BENCH_obs.json (path overridable as argv 1):

   1. Tracing off costs (almost) nothing. Every emission point is one
      [Trace.enabled ()] branch; this measures that disabled cost
      directly and counts the events a fully traced dsp_chain run
      emits. The gate is "disabled cost x events < 5% of the untraced
      wall", evaluated at the reference run recorded when the gate was
      set (4624 events, 642061 ns untraced): the disabled cost must
      stay under 5% x 642061 / 4624 ~ 6.94 ns per site, and the run
      must emit at most 4624 events. Pinning the denominator keeps the
      gate from tightening every time the simulators get faster; the
      overhead against this run's own untraced wall is still printed
      and recorded, for information.

   2. Attribution covers the run. On dsp_chain the deepest-owner
      partition must classify at least 99% of wall time into the named
      buckets (compute / marshal / sched / backoff) — an "other"
      share above 1% means spans have drifted out of the taxonomy.

   `make check` runs this as the observability gate. *)

module Trace = Support.Trace
module Compiler = Liquid_metal.Compiler
module Exec = Runtime.Exec
module Substitute = Runtime.Substitute
module Report = Observe.Report

let max_overhead_pct = 5.0
let min_coverage = 0.99

(* the reference dsp_chain run the overhead gate is evaluated at *)
let ref_events = 4624
let ref_untraced_wall_ns = 642061.0

let max_disabled_site_ns =
  max_overhead_pct /. 100.0 *. ref_untraced_wall_ns /. float_of_int ref_events

let () =
  let out_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_obs.json"
  in
  let w = Workloads.find "dsp_chain" in
  let size = w.Workloads.default_size in
  let c = Compiler.compile w.Workloads.source in
  let run_once () =
    let engine = Compiler.engine ~policy:Substitute.Prefer_accelerators c in
    ignore (Exec.call engine w.Workloads.entry (w.Workloads.args ~size))
  in

  (* untraced wall: warm up once, then take the fastest of 5 *)
  Trace.set_sink Trace.null;
  run_once ();
  let untraced_wall_ns = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    run_once ();
    let ns = 1e9 *. (Unix.gettimeofday () -. t0) in
    if ns < !untraced_wall_ns then untraced_wall_ns := ns
  done;

  (* the disabled emission path, measured directly *)
  let iters = 1_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (Trace.with_span ~cat:"launch" "bench" (fun () -> 0)))
  done;
  let disabled_site_ns =
    1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int iters
  in

  (* one traced run: how many emission points fire, and where the
     wall time goes *)
  let sink = Trace.ring () in
  Trace.set_sink sink;
  run_once ();
  Trace.set_sink Trace.null;
  let events = Trace.event_count sink + Trace.dropped sink in
  let r = Report.of_sink sink in
  let wall = r.Report.rp_wall_us in
  let a = r.Report.rp_attr in
  let covered =
    a.Report.at_compute +. a.Report.at_marshal +. a.Report.at_sched
    +. a.Report.at_backoff
  in
  let coverage = if wall > 0.0 then covered /. wall else 0.0 in
  let overhead_pct =
    100.0 *. disabled_site_ns *. float_of_int events /. !untraced_wall_ns
  in

  Printf.printf "disabled emission: %.2f ns/site x %d event(s) = %.1f us\n"
    disabled_site_ns events
    (disabled_site_ns *. float_of_int events /. 1000.0);
  Printf.printf "untraced wall:     %.1f us (best of 5)\n"
    (!untraced_wall_ns /. 1000.0);
  Printf.printf "disabled site:     %.2f ns (gate < %.2f ns); events: %d (gate <= %d)\n"
    disabled_site_ns max_disabled_site_ns events ref_events;
  Printf.printf "implied overhead:  %.3f%% of this run's untraced wall (informational)\n"
    overhead_pct;
  Printf.printf
    "attribution:       %.2f%% covered (compute %.1f + marshal %.1f + sched \
     %.1f + backoff %.1f of %.1f us; gate >= %.0f%%)\n"
    (100.0 *. coverage) a.Report.at_compute a.Report.at_marshal
    a.Report.at_sched a.Report.at_backoff wall (100.0 *. min_coverage);

  let oc = open_out out_path in
  Printf.fprintf oc
    "{\"workload\":\"dsp_chain\",\"size\":%d,\"disabled_site_ns\":%.3f,\"events\":%d,\"untraced_wall_ns\":%.0f,\"overhead_pct\":%.4f,\"coverage\":%.5f,\"attribution_us\":{\"compute\":%.3f,\"marshal\":%.3f,\"sched\":%.3f,\"backoff\":%.3f,\"other\":%.3f},\"wall_us\":%.3f,\"gates\":{\"max_disabled_site_ns\":%.3f,\"max_events\":%d,\"min_coverage\":%.2f}}\n"
    size disabled_site_ns events !untraced_wall_ns overhead_pct coverage
    a.Report.at_compute a.Report.at_marshal a.Report.at_sched
    a.Report.at_backoff a.Report.at_other wall max_disabled_site_ns ref_events
    min_coverage;
  close_out oc;
  Printf.printf "wrote %s\n" out_path;

  let failed = ref false in
  if disabled_site_ns >= max_disabled_site_ns then begin
    Printf.eprintf "FAIL: disabled emission site %.3f ns >= %.3f ns\n"
      disabled_site_ns max_disabled_site_ns;
    failed := true
  end;
  if events > ref_events then begin
    Printf.eprintf "FAIL: traced dsp_chain emits %d events > %d\n" events
      ref_events;
    failed := true
  end;
  if coverage < min_coverage then begin
    Printf.eprintf "FAIL: attribution coverage %.2f%% < %.0f%%\n"
      (100.0 *. coverage) (100.0 *. min_coverage);
    failed := true
  end;
  if !failed then exit 1
