(* Tests for the trace-driven introspection layer: span-tree
   reconstruction, the deepest-owner partition, attribution, drift,
   offline Chrome-trace analysis — plus the differential invariant the
   report's design rests on: attribution sums to wall time, and the
   critical path never exceeds the makespan, on every workload in the
   suite. *)

module Trace = Support.Trace
module Spans = Observe.Spans
module Report = Observe.Report
module Json = Observe.Json
module Compiler = Liquid_metal.Compiler
module Exec = Runtime.Exec
module Substitute = Runtime.Substitute
module Metrics = Runtime.Metrics

let span ?(args = []) ~cat name ts dur =
  Trace.Span { name; cat; ts_us = ts; dur_us = dur; args }

(* A small synthetic run: a root, a scheduler region, one gpu launch
   with a marshal crossing inside it, a faulted launch, and a modeled
   backoff marker. *)
let synthetic_events =
  [
    span ~cat:"run" "run:Main" 0.0 100.0;
    span ~cat:"runtime" "task-graph" 10.0 80.0;
    span ~cat:"launch" "gpu:K" 20.0 30.0
      ~args:[ ("elements", Trace.Int 8); ("modeled_ns", Trace.Float 3000.0) ];
    span ~cat:"boundary" "marshal:pcie:to-device" 22.0 5.0
      ~args:[ ("bytes", Trace.Int 64); ("modeled_ns", Trace.Float 100.0) ];
    span ~cat:"launch" "gpu:K" 60.0 10.0
      ~args:[ ("elements", Trace.Int 8); ("faulted", Trace.Bool true) ];
    span ~cat:"backoff" "backoff:gpu" 71.0 0.0
      ~args:[ ("backoff_ns", Trace.Float 500.0); ("attempt", Trace.Int 1) ];
    Trace.Instant { name = "sched"; cat = "sched"; ts_us = 1.0; args = [] };
    Trace.Counter { name = "fifo:ch0"; ts_us = 2.0; values = [ ("occupancy", 1.0) ] };
  ]

(* --- span tree --------------------------------------------------------- *)

let test_span_tree () =
  match Spans.build synthetic_events with
  | [ root ] ->
    Alcotest.(check string) "root" "run:Main" root.Spans.name;
    let tg =
      match root.Spans.children with
      | [ tg ] -> tg
      | cs -> Alcotest.failf "expected 1 child of root, got %d" (List.length cs)
    in
    Alcotest.(check string) "task-graph nested" "task-graph" tg.Spans.name;
    (match tg.Spans.children with
    | [ l1; l2; bk ] ->
      Alcotest.(check string) "launch nested" "gpu:K" l1.Spans.name;
      Alcotest.(check (option int)) "elements arg" (Some 8)
        (Spans.arg_int l1 "elements");
      (match l1.Spans.children with
      | [ b ] ->
        Alcotest.(check string) "marshal under launch"
          "marshal:pcie:to-device" b.Spans.name;
        Alcotest.(check (option int)) "bytes" (Some 64) (Spans.arg_int b "bytes")
      | cs ->
        Alcotest.failf "expected 1 child of launch, got %d" (List.length cs));
      Alcotest.(check (option bool)) "faulted flag" (Some true)
        (Spans.arg_bool l2 "faulted");
      Alcotest.(check string) "zero-dur backoff marker" "backoff:gpu"
        bk.Spans.name
    | cs ->
      Alcotest.failf "expected 3 children of task-graph, got %d"
        (List.length cs))
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_slices_partition () =
  let root = List.hd (Spans.build synthetic_events) in
  let slices = Spans.slices ~init:"" ~enter:(fun _ s -> s.Spans.name) root in
  let total =
    List.fold_left (fun acc (_, _, t0, t1) -> acc +. (t1 -. t0)) 0.0 slices
  in
  Alcotest.(check (float 1e-9)) "slices sum to root dur" root.Spans.dur total;
  (* the instant 24.0 lies inside the marshal span: deepest owner wins *)
  let owner_at t =
    List.find_map
      (fun (name, _, t0, t1) -> if t0 <= t && t < t1 then Some name else None)
      slices
  in
  Alcotest.(check (option string)) "deepest owner"
    (Some "marshal:pcie:to-device") (owner_at 24.0);
  Alcotest.(check (option string)) "launch owns around it" (Some "gpu:K")
    (owner_at 28.0);
  Alcotest.(check (option string)) "root owns the edges" (Some "run:Main")
    (owner_at 5.0)

(* --- analyze on the synthetic run -------------------------------------- *)

let test_analyze_synthetic () =
  let predict ~uid ~device ~n =
    if uid = "K" && device = "gpu" then Some (float_of_int n *. 400.0, "measured")
    else None
  in
  let r = Report.analyze ~predict synthetic_events in
  Alcotest.(check (float 1e-6)) "wall" 100.0 r.Report.rp_wall_us;
  Alcotest.(check (float 1e-6)) "attribution sums to wall" 100.0
    (Report.attribution_total r.Report.rp_attr);
  Alcotest.(check (float 1e-6)) "marshal bucket" 5.0
    r.Report.rp_attr.Report.at_marshal;
  Alcotest.(check (float 1e-6)) "critical = wall" r.Report.rp_wall_us
    r.Report.rp_critical_us;
  Alcotest.(check (float 1e-6)) "modeled backoff surfaced" 0.5
    r.Report.rp_backoff_modeled_us;
  (* the faulted launch is excluded from the drift join *)
  (match r.Report.rp_drift with
  | [ d ] ->
    Alcotest.(check string) "drift uid" "K" d.Report.dr_uid;
    Alcotest.(check string) "drift device" "gpu" d.Report.dr_device;
    Alcotest.(check int) "healthy launches only" 1 d.Report.dr_launches;
    Alcotest.(check (float 1e-6)) "observed ns" 3000.0 d.Report.dr_observed_ns;
    Alcotest.(check (option (float 1e-6))) "predicted ns" (Some 3200.0)
      d.Report.dr_predicted_ns;
    Alcotest.(check string) "within factor" "ok" (Report.drift_verdict d)
  | ds -> Alcotest.failf "expected 1 drift row, got %d" (List.length ds));
  (* verdicts at the extremes *)
  let slow = Report.analyze ~predict:(fun ~uid:_ ~device:_ ~n:_ -> Some (1000.0, "analytic")) synthetic_events in
  (match slow.Report.rp_drift with
  | [ d ] ->
    Alcotest.(check string) "observed 3x predicted" "drift(slow)"
      (Report.drift_verdict d)
  | _ -> Alcotest.fail "expected 1 drift row");
  let fast = Report.analyze ~predict:(fun ~uid:_ ~device:_ ~n:_ -> Some (10000.0, "analytic")) synthetic_events in
  match fast.Report.rp_drift with
  | [ d ] ->
    Alcotest.(check string) "observed well under predicted" "drift(fast)"
      (Report.drift_verdict d)
  | _ -> Alcotest.fail "expected 1 drift row"

(* The attribution table's rule must not move with the host-timed
   [us] cells: a 1-digit and an 8-digit wall print the same rule. *)
let test_attribution_rule_fixed () =
  let rule wall_us =
    let text =
      Report.render (Report.analyze [ span ~cat:"run" "run:Main" 0.0 wall_us ])
    in
    let rec after_header = function
      | "attribution (wall time):" :: _header :: rule :: _ -> rule
      | _ :: rest -> after_header rest
      | [] -> Alcotest.fail "no attribution table"
    in
    after_header (String.split_on_char '\n' text)
  in
  Alcotest.(check string) "1 vs 8 digits" (rule 5.0) (rule 12345678.0)

let test_truncation_and_json () =
  let r = Report.analyze ~dropped:3 [ span ~cat:"run" "run:Main" 0.0 10.0 ] in
  Alcotest.(check int) "dropped recorded" 3 r.Report.rp_dropped;
  Alcotest.(check bool) "render warns" true
    (Test_types.contains (Report.render r) "trace truncated");
  let j = Json.parse (Report.render_json r) in
  Alcotest.(check (option (float 1e-9))) "json dropped" (Some 3.0)
    (Json.num_opt (Json.member "dropped" j));
  match Json.member "truncated" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "expected \"truncated\": true"

(* --- the differential invariant over every workload --------------------- *)

let test_sizes =
  [
    "saxpy", 256; "dotproduct", 256; "matmul", 8; "conv2d", 8; "nbody", 16;
    "mandelbrot", 12; "sumsq", 2048; "bitflip", 64; "dsp_chain", 128;
    "prefix_sum", 128; "blackscholes", 128; "fir4", 128; "crc8", 64;
  ]

let traced_run (w : Workloads.t) ~size =
  let sink = Trace.ring () in
  Trace.set_sink sink;
  Fun.protect
    ~finally:(fun () -> Trace.set_sink Trace.null)
    (fun () ->
      let c = Compiler.compile w.source in
      let engine = Compiler.engine ~policy:Substitute.Prefer_accelerators c in
      ignore (Exec.call engine w.entry (w.args ~size));
      sink)

let test_attribution_invariant () =
  List.iter
    (fun (w : Workloads.t) ->
      let size = List.assoc w.name test_sizes in
      let sink = traced_run w ~size in
      let r = Report.of_sink sink in
      let wall = r.Report.rp_wall_us in
      let total = Report.attribution_total r.Report.rp_attr in
      if wall <= 0.0 then Alcotest.failf "%s: empty run window" w.name;
      if abs_float (total -. wall) > 1e-6 *. wall +. 1e-9 then
        Alcotest.failf "%s: attribution %.6f us != wall %.6f us" w.name total
          wall;
      if r.Report.rp_critical_us > wall +. 1e-9 then
        Alcotest.failf "%s: critical path %.6f us exceeds makespan %.6f us"
          w.name r.Report.rp_critical_us wall;
      if r.Report.rp_roots < 1 then Alcotest.failf "%s: no run roots" w.name)
    Workloads.all

(* --- offline: Chrome export round-trips through the analyzer ------------ *)

let test_chrome_roundtrip () =
  let w = Workloads.find "dsp_chain" in
  let sink = traced_run w ~size:128 in
  let live = Report.of_sink sink in
  let json = Trace.Chrome.to_json ~process_name:"test" sink in
  match Report.of_chrome_json json with
  | Error msg -> Alcotest.failf "offline parse failed: %s" msg
  | Ok offline ->
    (* %.3f formatting costs at most ~1ns per endpoint *)
    Alcotest.(check bool) "wall survives the round trip" true
      (abs_float (offline.Report.rp_wall_us -. live.Report.rp_wall_us) < 0.01);
    Alcotest.(check (float 1e-6)) "offline attribution still sums to wall"
      offline.Report.rp_wall_us
      (Report.attribution_total offline.Report.rp_attr);
    Alcotest.(check int) "segments survive"
      (List.length live.Report.rp_segments)
      (List.length offline.Report.rp_segments);
    Alcotest.(check bool) "pcie marshaling on the critical path" true
      (List.exists
         (fun (s : Report.path_step) -> s.Report.ps_cat = "boundary")
         offline.Report.rp_path)

(* --- metrics: JSON round-trips through the field list ------------------- *)

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.add_vm_instructions m 12;
  Metrics.add_gpu_kernel m ~ns:5000.0;
  Metrics.add_retry m ~backoff_ns:750.0;
  Metrics.add_substitution m "C.f@g/0" Runtime.Artifact.Gpu;
  let s = Metrics.snapshot m in
  let j = Json.parse (Metrics.to_json s) in
  let metrics = Json.to_list (Option.get (Json.member "metrics" j)) in
  let sample_value name labels =
    List.find_map
      (fun mj ->
        if Json.str_opt (Json.member "name" mj) <> Some name then None
        else
          List.find_map
            (fun sj ->
              let got =
                match Json.member "labels" sj with
                | Some (Json.Obj kvs) ->
                  List.map (fun (k, v) ->
                      (k, match v with Json.Str s -> s | _ -> ""))
                    kvs
                | _ -> []
              in
              if got = labels then Json.num_opt (Json.member "value" sj)
              else None)
            (Json.to_list (Option.value ~default:(Json.Arr []) (Json.member "samples" mj))))
      metrics
  in
  (* every declared field survives the export with its exact value *)
  List.iter
    (fun (f : Metrics.field) ->
      match sample_value f.Metrics.fd_name f.Metrics.fd_labels with
      | None ->
        Alcotest.failf "field %s%s missing from JSON" f.Metrics.fd_name
          (String.concat ","
             (List.map (fun (k, v) -> k ^ "=" ^ v) f.Metrics.fd_labels))
      | Some v ->
        let expect = f.Metrics.fd_get s in
        if abs_float (v -. expect) > 1e-6 then
          Alcotest.failf "field %s: json %.3f != snapshot %.3f"
            f.Metrics.fd_name v expect)
    Metrics.fields;
  match Json.member "substitutions" j with
  | Some (Json.Arr [ sub ]) ->
    Alcotest.(check (option string)) "substitution uid" (Some "C.f@g/0")
      (Json.str_opt (Json.member "uid" sub));
    Alcotest.(check (option string)) "substitution device" (Some "gpu")
      (Json.str_opt (Json.member "device" sub))
  | _ -> Alcotest.fail "expected 1 substitution"

let suite =
  ( "observe",
    [
      Alcotest.test_case "span tree" `Quick test_span_tree;
      Alcotest.test_case "slices partition" `Quick test_slices_partition;
      Alcotest.test_case "analyze synthetic" `Quick test_analyze_synthetic;
      Alcotest.test_case "truncation + json" `Quick test_truncation_and_json;
      Alcotest.test_case "attribution rule ignores timings" `Quick
        test_attribution_rule_fixed;
      Alcotest.test_case "attribution invariant (all workloads)" `Quick
        test_attribution_invariant;
      Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
      Alcotest.test_case "metrics json round-trip" `Quick
        test_metrics_json_roundtrip;
    ] )
