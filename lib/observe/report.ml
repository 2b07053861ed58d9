(* Trace-driven run analysis.

   Takes the raw span soup a run leaves in the trace ring and answers
   the three questions the ROADMAP items keep needing: what gated the
   makespan (critical path), where the wall time went (attribution per
   bucket, device and segment), and whether the placement planner's
   profile-store predictions still match observed launches (drift).

   The execution engine is single-threaded, so the critical path is the
   timeline itself: the deepest-owner partition of the run's root spans
   *is* the chain of work that gated end-to-end makespan, and its
   length equals wall time by construction. Attribution buckets are a
   relabeling of the same partition, which is why they sum to wall time
   — the invariant the tests pin. *)

module Trace = Support.Trace

type bucket = Compute | Marshal | Sched | Backoff | Other

type attribution = {
  at_compute : float;  (* us: device kernels, VM/native execution *)
  at_marshal : float;  (* us: boundary serialization + modeled transfer *)
  at_sched : float;  (* us: task-graph scheduling loop, actor stepping *)
  at_backoff : float;  (* us: wall time in the retry/backoff path *)
  at_other : float;  (* us: spans outside the known taxonomy *)
}

type device_row = {
  dv_name : string;
  dv_busy_us : float;
  dv_compute_us : float;
  dv_marshal_us : float;
  dv_util : float;  (* busy / wall *)
  dv_idle_us : float;
  dv_idle_gaps : int;
  dv_longest_idle_us : float;
}

type segment_row = {
  sg_uid : string;
  sg_device : string;
  sg_launches : int;
  sg_compute_us : float;
  sg_marshal_us : float;
}

type path_step = {
  ps_name : string;
  ps_cat : string;
  ps_count : int;  (* consecutive same-owner slices merged *)
  ps_total_us : float;
}

type gate_row = {
  g_cat : string;
  g_name : string;
  g_count : int;
  g_total_us : float;
}

type drift_row = {
  dr_uid : string;
  dr_device : string;
  dr_launches : int;
  dr_elements : int;
  dr_observed_ns : float;
  dr_predicted_ns : float option;
  dr_source : string;  (* profile entry source, or "-" *)
}

type tenant_row = {
  tn_tenant : string;
  tn_jobs : int;
  tn_wall_us : float;  (* summed job-span wall time *)
  tn_share : float;  (* of all tenants' job wall time *)
  tn_devices : string;  (* distinct devices used, comma-joined *)
}

type t = {
  rp_wall_us : float;
  rp_roots : int;
  rp_events : int;
  rp_dropped : int;
  rp_attr : attribution;
  rp_backoff_modeled_us : float;
  rp_devices : device_row list;
  rp_segments : segment_row list;
  rp_path : path_step list;
  rp_gates : gate_row list;
  rp_critical_us : float;
  rp_drift : drift_row list;
  rp_drift_note : string option;
  rp_tenants : tenant_row list;
      (* per-tenant wall attribution from `job:` spans; empty for
         single-job traces *)
}

type predict = uid:string -> device:string -> n:int -> (float * string) option

(* Observed launches drifting past 1.5x (either way) of the profile
   store's prediction are flagged — the same factor `--replan` uses to
   demote an underperforming device. *)
let drift_factor = 1.5

(* --- the trace taxonomy ------------------------------------------------ *)

let split_colon name =
  match String.index_opt name ':' with
  | Some i ->
    ( String.sub name 0 i,
      String.sub name (i + 1) (String.length name - i - 1) )
  | None -> name, ""

type ctx = { cx_device : string; cx_segment : string option }

let enter ctx (sp : Spans.span) =
  match sp.cat with
  | "launch" ->
    let device, uid = split_colon sp.name in
    { cx_device = device; cx_segment = Some uid }
  | "gpu" -> { ctx with cx_device = "gpu" }
  | "fpga" -> { ctx with cx_device = "fpga" }
  | "vm" ->
    let prefix, uid = split_colon sp.name in
    let segment = if prefix = "bc" then Some uid else ctx.cx_segment in
    { cx_device = "cpu"; cx_segment = segment }
  | "run" | "compiler" | "job" -> { cx_device = "cpu"; cx_segment = None }
  | "runtime" | "sched" -> { ctx with cx_device = "cpu" }
  (* boundary and backoff inherit: marshaling belongs to the launch
     that forced the crossing *)
  | _ -> ctx

let bucket_of (sp : Spans.span) =
  match sp.cat with
  | "boundary" -> Marshal
  | "backoff" -> Backoff
  (* a job span's own slices are the serve engine's bookkeeping
     around the inner run span: scheduling, not compute *)
  | "runtime" | "sched" | "job" -> Sched
  | "launch" | "gpu" | "fpga" | "vm" | "run" | "native" | "compiler" ->
    Compute
  | _ -> Other

(* --- analysis ---------------------------------------------------------- *)

(* Roots to analyze: prefer `job:` roots (one per job of a multi-tenant
   [lmc serve] run), then the runtime's `run:` roots (one per
   Exec.call); older traces without either fall back to task-graph or
   top-level launch spans. Compiler phases are never part of a run's
   makespan. *)
let analysis_roots roots =
  let by cat = List.filter (fun (sp : Spans.span) -> sp.cat = cat) roots in
  match by "job" with
  | [] -> (
    match by "run" with
    | [] -> (
      match by "runtime" with [] -> by "launch" | rs -> rs)
    | rs -> rs)
  | rs -> rs

type slice = {
  sl_t0 : float;
  sl_t1 : float;
  sl_owner : Spans.span;
  sl_device : string;
  sl_segment : string option;
}

let slice_us s = s.sl_t1 -. s.sl_t0

let slices_of_roots roots =
  List.concat_map
    (fun root ->
      Spans.slices ~init:{ cx_device = "cpu"; cx_segment = None } ~enter root
      |> List.map (fun (ctx, owner, t0, t1) ->
             {
               sl_t0 = t0;
               sl_t1 = t1;
               sl_owner = owner;
               sl_device = ctx.cx_device;
               sl_segment = ctx.cx_segment;
             }))
    roots

(* first-seen-order grouping *)
let group_fold key_of add init xs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun x ->
      match key_of x with
      | None -> ()
      | Some key ->
        let acc =
          match Hashtbl.find_opt tbl key with
          | Some acc -> acc
          | None ->
            order := key :: !order;
            init
        in
        Hashtbl.replace tbl key (add acc x))
    xs;
  List.rev_map (fun key -> key, Hashtbl.find tbl key) !order

let attribution slices =
  List.fold_left
    (fun at s ->
      let d = slice_us s in
      match bucket_of s.sl_owner with
      | Compute -> { at with at_compute = at.at_compute +. d }
      | Marshal -> { at with at_marshal = at.at_marshal +. d }
      | Sched -> { at with at_sched = at.at_sched +. d }
      | Backoff -> { at with at_backoff = at.at_backoff +. d }
      | Other -> { at with at_other = at.at_other +. d })
    {
      at_compute = 0.0;
      at_marshal = 0.0;
      at_sched = 0.0;
      at_backoff = 0.0;
      at_other = 0.0;
    }
    slices

let attribution_total at =
  at.at_compute +. at.at_marshal +. at.at_sched +. at.at_backoff +. at.at_other

let device_rows ~wall roots slices =
  let windows = List.map (fun (r : Spans.span) -> r.ts, r.ts +. r.dur) roots in
  group_fold
    (fun s -> Some s.sl_device)
    (fun acc s -> s :: acc)
    [] slices
  |> List.map (fun (device, rev_slices) ->
         let ss = List.rev rev_slices in
         let compute, marshal =
           List.fold_left
             (fun (c, m) s ->
               match bucket_of s.sl_owner with
               | Compute -> c +. slice_us s, m
               | Marshal -> c, m +. slice_us s
               | _ -> c, m)
             (0.0, 0.0) ss
         in
         let busy = List.fold_left (fun acc s -> acc +. slice_us s) 0.0 ss in
         (* merge this device's (already disjoint, time-ordered) busy
            intervals, then walk each root window counting the gaps *)
         let merged =
           List.fold_left
             (fun acc s ->
               match acc with
               | (t0, t1) :: rest when s.sl_t0 -. t1 <= Spans.eps ->
                 (t0, Float.max t1 s.sl_t1) :: rest
               | _ -> (s.sl_t0, s.sl_t1) :: acc)
             [] ss
           |> List.rev
         in
         let gaps = ref 0 and longest = ref 0.0 in
         let note_gap g =
           if g > Spans.eps then begin
             incr gaps;
             if g > !longest then longest := g
           end
         in
         List.iter
           (fun (w0, w1) ->
             let cursor = ref w0 in
             List.iter
               (fun (b0, b1) ->
                 if b0 >= w0 && b1 <= w1 +. Spans.eps then begin
                   note_gap (b0 -. !cursor);
                   cursor := Float.max !cursor b1
                 end)
               merged;
             note_gap (w1 -. !cursor))
           windows;
         {
           dv_name = device;
           dv_busy_us = busy;
           dv_compute_us = compute;
           dv_marshal_us = marshal;
           dv_util = (if wall > 0.0 then busy /. wall else 0.0);
           dv_idle_us = Float.max 0.0 (wall -. busy);
           dv_idle_gaps = !gaps;
           dv_longest_idle_us = !longest;
         })

let segment_rows ~launches slices =
  group_fold
    (fun s ->
      match s.sl_segment with
      | Some uid -> Some (uid, s.sl_device)
      | None -> None)
    (fun (c, m) s ->
      match bucket_of s.sl_owner with
      | Marshal -> c, m +. slice_us s
      | _ -> c +. slice_us s, m)
    (0.0, 0.0) slices
  |> List.map (fun ((uid, device), (compute, marshal)) ->
         let n =
           match
             List.find_opt
               (fun (u, d, _, _, _) -> u = uid && d = device)
               launches
           with
           | Some (_, _, count, _, _) -> count
           | None -> 0
         in
         {
           sg_uid = uid;
           sg_device = device;
           sg_launches = n;
           sg_compute_us = compute;
           sg_marshal_us = marshal;
         })
  |> List.sort (fun a b ->
         Float.compare
           (b.sg_compute_us +. b.sg_marshal_us)
           (a.sg_compute_us +. a.sg_marshal_us))

let path_steps slices =
  List.fold_left
    (fun acc s ->
      let d = slice_us s in
      match acc with
      | step :: rest
        when step.ps_name = s.sl_owner.Spans.name
             && step.ps_cat = s.sl_owner.Spans.cat ->
        { step with
          ps_count = step.ps_count + 1;
          ps_total_us = step.ps_total_us +. d }
        :: rest
      | _ ->
        {
          ps_name = s.sl_owner.Spans.name;
          ps_cat = s.sl_owner.Spans.cat;
          ps_count = 1;
          ps_total_us = d;
        }
        :: acc)
    [] slices
  |> List.rev

let gate_rows slices =
  group_fold
    (fun s -> Some (s.sl_owner.Spans.cat, s.sl_owner.Spans.name))
    (fun (n, total) s -> n + 1, total +. slice_us s)
    (0, 0.0) slices
  |> List.map (fun ((cat, name), (count, total)) ->
         { g_cat = cat; g_name = name; g_count = count; g_total_us = total })
  |> List.sort (fun a b -> Float.compare b.g_total_us a.g_total_us)

(* Launch accounting straight from the events: (uid, device, count,
   elements, observed modeled ns). Faulted attempts are excluded — a
   prediction is for a completed launch. Launches without a modeled_ns
   arg (older traces) fall back to their wall duration. *)
let launch_groups events =
  let spans = List.filter_map (function
      | Trace.Span { name; cat; ts_us = _; dur_us; args } when cat = "launch"
        -> Some (name, dur_us, args)
      | _ -> None)
      events
  in
  group_fold
    (fun (name, _, args) ->
      let faulted =
        match List.assoc_opt "faulted" args with
        | Some (Trace.Bool true) -> true
        | _ -> false
      in
      if faulted then None
      else
        let device, uid = split_colon name in
        if uid = "" then None else Some (uid, device))
    (fun (count, elements, observed) (_, dur_us, args) ->
      let n =
        match List.assoc_opt "elements" args with
        | Some (Trace.Int i) -> i
        | Some (Trace.Float f) -> int_of_float f
        | _ -> 0
      in
      let ns =
        match List.assoc_opt "modeled_ns" args with
        | Some (Trace.Float f) -> f
        | Some (Trace.Int i) -> float_of_int i
        | _ -> dur_us *. 1000.0
      in
      count + 1, elements + n, observed +. ns)
    (0, 0, 0.0) spans
  |> List.map (fun ((uid, device), (count, elements, observed)) ->
         uid, device, count, elements, observed)

let drift_rows ~(predict : predict option) events =
  let per_launch_ns = Hashtbl.create 16 in
  (* predictions are per launch (per batch size), so walk the events
     again accumulating predicted ns launch by launch *)
  (match predict with
  | None -> ()
  | Some predict ->
    List.iter
      (function
        | Trace.Span { name; cat; args; _ } when cat = "launch" -> (
          let faulted =
            match List.assoc_opt "faulted" args with
            | Some (Trace.Bool true) -> true
            | _ -> false
          in
          let device, uid = split_colon name in
          if (not faulted) && uid <> "" then
            let n =
              match List.assoc_opt "elements" args with
              | Some (Trace.Int i) -> i
              | Some (Trace.Float f) -> int_of_float f
              | _ -> 0
            in
            match predict ~uid ~device ~n with
            | Some (ns, source) ->
              let prev =
                Option.value ~default:(0.0, source)
                  (Hashtbl.find_opt per_launch_ns (uid, device))
              in
              Hashtbl.replace per_launch_ns (uid, device)
                (fst prev +. ns, source)
            | None -> ())
        | _ -> ())
      events);
  launch_groups events
  |> List.map (fun (uid, device, launches, elements, observed) ->
         let predicted, source =
           match Hashtbl.find_opt per_launch_ns (uid, device) with
           | Some (ns, source) -> Some ns, source
           | None -> None, "-"
         in
         {
           dr_uid = uid;
           dr_device = device;
           dr_launches = launches;
           dr_elements = elements;
           dr_observed_ns = observed;
           dr_predicted_ns = predicted;
           dr_source = source;
         })

(* Per-tenant wall attribution: each `job:` root span carries the
   tenant (and chosen device) in its args, so a serve trace answers
   "whose jobs was the engine busy with" directly. *)
let tenant_rows roots =
  let jobs =
    List.filter (fun (sp : Spans.span) -> sp.Spans.cat = "job") roots
  in
  let rows =
    group_fold
      (fun (sp : Spans.span) ->
        match Spans.find_arg sp "tenant" with
        | Some (Trace.Str tenant) -> Some tenant
        | _ -> None)
      (fun (count, wall, devices) sp ->
        let devices =
          match Spans.find_arg sp "device" with
          | Some (Trace.Str d) when not (List.mem d devices) -> d :: devices
          | _ -> devices
        in
        (count + 1, wall +. sp.Spans.dur, devices))
      (0, 0.0, []) jobs
  in
  let total =
    List.fold_left (fun acc (_, (_, wall, _)) -> acc +. wall) 0.0 rows
  in
  List.map
    (fun (tenant, (count, wall, devices)) ->
      {
        tn_tenant = tenant;
        tn_jobs = count;
        tn_wall_us = wall;
        tn_share = (if total > 0.0 then wall /. total else 0.0);
        tn_devices = String.concat "," (List.rev devices);
      })
    rows

let drift_verdict row =
  match row.dr_predicted_ns with
  | None -> "n/a"
  | Some p when p <= 0.0 -> "n/a"
  | Some p ->
    let ratio = row.dr_observed_ns /. p in
    if ratio > drift_factor then "drift(slow)"
    else if ratio < 1.0 /. drift_factor then "drift(fast)"
    else "ok"

let drift_ratio row =
  match row.dr_predicted_ns with
  | Some p when p > 0.0 -> Some (row.dr_observed_ns /. p)
  | _ -> None

let analyze ?predict ?(dropped = 0) ?drift_note (events : Trace.event list) : t
    =
  let roots = analysis_roots (Spans.build events) in
  let slices = slices_of_roots roots in
  let wall =
    List.fold_left (fun acc (r : Spans.span) -> acc +. r.dur) 0.0 roots
  in
  let attr = attribution slices in
  let backoff_modeled_ns =
    List.fold_left
      (fun acc e ->
        match e with
        | Trace.Span { cat = "backoff"; args; _ } -> (
          match List.assoc_opt "backoff_ns" args with
          | Some (Trace.Float f) -> acc +. f
          | Some (Trace.Int i) -> acc +. float_of_int i
          | _ -> acc)
        | _ -> acc)
      0.0 events
  in
  let launches = launch_groups events in
  {
    rp_wall_us = wall;
    rp_roots = List.length roots;
    rp_events = List.length events;
    rp_dropped = dropped;
    rp_attr = attr;
    rp_backoff_modeled_us = backoff_modeled_ns /. 1000.0;
    rp_devices = device_rows ~wall roots slices;
    rp_segments = segment_rows ~launches slices;
    rp_path = path_steps slices;
    rp_gates = gate_rows slices;
    rp_critical_us =
      List.fold_left (fun acc s -> acc +. slice_us s) 0.0 slices;
    rp_drift = drift_rows ~predict events;
    rp_drift_note = drift_note;
    rp_tenants = tenant_rows roots;
  }

let of_sink ?predict ?drift_note sink =
  analyze ?predict ?drift_note ~dropped:(Trace.dropped sink)
    (Trace.events sink)

(* --- offline: a saved Chrome trace ------------------------------------- *)

let arg_of_json = function
  | Json.Str s -> Trace.Str s
  | Json.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Trace.Int (int_of_float f)
    else Trace.Float f
  | Json.Bool b -> Trace.Bool b
  | j -> Trace.Str (match j with Json.Null -> "null" | _ -> "?")

let events_of_chrome json =
  Json.to_list (Option.value ~default:(Json.Arr []) (Json.member "traceEvents" json))
  |> List.filter_map (fun e ->
         let name = Option.value ~default:"" (Json.str_opt (Json.member "name" e)) in
         let cat = Option.value ~default:"" (Json.str_opt (Json.member "cat" e)) in
         let ts = Option.value ~default:0.0 (Json.num_opt (Json.member "ts" e)) in
         let args () =
           match Json.member "args" e with
           | Some (Json.Obj fields) ->
             List.map (fun (k, v) -> k, arg_of_json v) fields
           | _ -> []
         in
         match Json.str_opt (Json.member "ph" e) with
         | Some "X" ->
           let dur =
             Option.value ~default:0.0 (Json.num_opt (Json.member "dur" e))
           in
           Some
             (Trace.Span
                { name; cat; ts_us = ts; dur_us = dur; args = args () })
         | Some "i" ->
           Some (Trace.Instant { name; cat; ts_us = ts; args = args () })
         | Some "C" ->
           let values =
             match Json.member "args" e with
             | Some (Json.Obj fields) ->
               List.filter_map
                 (fun (k, v) ->
                   match v with Json.Num f -> Some (k, f) | _ -> None)
                 fields
             | _ -> []
           in
           Some (Trace.Counter { name; ts_us = ts; values })
         | _ -> None)

let of_chrome_json ?predict ?drift_note text =
  match Json.parse_opt text with
  | None -> Error "not valid JSON (expected a Chrome trace_event file)"
  | Some json ->
    let dropped =
      match Json.member "otherData" json with
      | Some other ->
        int_of_float
          (Option.value ~default:0.0
             (Json.num_opt (Json.member "droppedEvents" other)))
      | None -> 0
    in
    let events = events_of_chrome json in
    if events = [] then Error "no trace events found"
    else Ok (analyze ?predict ?drift_note ~dropped events)

(* --- rendering --------------------------------------------------------- *)

let us f = Printf.sprintf "%.1f" f
let pct f = Printf.sprintf "%.1f%%" (f *. 100.0)
let max_path_steps = 14

let render (r : t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "report: wall %s us over %d run root(s), %d event(s), %d dropped\n"
       (us r.rp_wall_us) r.rp_roots r.rp_events r.rp_dropped);
  if r.rp_dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "warning: trace truncated — the oldest %d event(s) were dropped; \
          every number below undercounts the run\n"
         r.rp_dropped);
  let wall = if r.rp_wall_us > 0.0 then r.rp_wall_us else 1.0 in
  (* attribution *)
  Buffer.add_string buf "\nattribution (wall time):\n";
  (* The host-timed [us] cells are right-aligned in a fixed field, so
     the column — and the rule under its header — keeps one width
     whatever the run took (up to 10^8 us). *)
  let t = Support.Stats.Table.create ~columns:[ "bucket"; "us"; "share" ] in
  let row name v =
    Support.Stats.Table.add_row t
      [ name; Printf.sprintf "%10.1f" v; pct (v /. wall) ]
  in
  row "compute" r.rp_attr.at_compute;
  row "marshal" r.rp_attr.at_marshal;
  row "sched" r.rp_attr.at_sched;
  row "backoff" r.rp_attr.at_backoff;
  if r.rp_attr.at_other > 0.0 then row "other" r.rp_attr.at_other;
  row "total" (attribution_total r.rp_attr);
  Buffer.add_string buf (Support.Stats.Table.render t);
  if r.rp_backoff_modeled_us > 0.0 then
    Buffer.add_string buf
      (Printf.sprintf
         "note: retry backoff is modeled time (%s us modeled); the wall \
          column shows real time spent in the retry path\n"
         (us r.rp_backoff_modeled_us));
  (* tenants (multi-tenant serve traces only) *)
  if r.rp_tenants <> [] then begin
    Buffer.add_string buf "\ntenants (wall time per tenant's jobs):\n";
    let t =
      Support.Stats.Table.create
        ~columns:[ "tenant"; "jobs"; "us"; "share"; "devices" ]
    in
    List.iter
      (fun tn ->
        Support.Stats.Table.add_row t
          [
            tn.tn_tenant; string_of_int tn.tn_jobs; us tn.tn_wall_us;
            pct tn.tn_share; tn.tn_devices;
          ])
      r.rp_tenants;
    Buffer.add_string buf (Support.Stats.Table.render t)
  end;
  (* devices *)
  if r.rp_devices <> [] then begin
    Buffer.add_string buf "\ndevices (busy/idle over the run window):\n";
    let t =
      Support.Stats.Table.create
        ~columns:
          [ "device"; "busy"; "compute"; "marshal"; "util"; "idle"; "gaps";
            "longest_idle" ]
    in
    List.iter
      (fun d ->
        Support.Stats.Table.add_row t
          [
            d.dv_name; us d.dv_busy_us; us d.dv_compute_us;
            us d.dv_marshal_us; pct d.dv_util; us d.dv_idle_us;
            string_of_int d.dv_idle_gaps; us d.dv_longest_idle_us;
          ])
      r.rp_devices;
    Buffer.add_string buf (Support.Stats.Table.render t)
  end;
  (* segments *)
  if r.rp_segments <> [] then begin
    Buffer.add_string buf "\nsegments (us attributed):\n";
    let t =
      Support.Stats.Table.create
        ~columns:[ "segment"; "device"; "launches"; "compute"; "marshal" ]
    in
    List.iter
      (fun s ->
        Support.Stats.Table.add_row t
          [
            s.sg_uid; s.sg_device; string_of_int s.sg_launches;
            us s.sg_compute_us; us s.sg_marshal_us;
          ])
      r.rp_segments;
    Buffer.add_string buf (Support.Stats.Table.render t)
  end;
  (* critical path *)
  Buffer.add_string buf
    (Printf.sprintf "\ncritical path (%s us — gates the makespan):\n"
       (us r.rp_critical_us));
  let t =
    Support.Stats.Table.create ~columns:[ "#"; "cat"; "span"; "count"; "us" ]
  in
  let n_steps = List.length r.rp_path in
  List.iteri
    (fun i step ->
      if i < max_path_steps then
        Support.Stats.Table.add_row t
          [
            string_of_int (i + 1); step.ps_cat; step.ps_name;
            string_of_int step.ps_count; us step.ps_total_us;
          ])
    r.rp_path;
  Buffer.add_string buf (Support.Stats.Table.render t);
  if n_steps > max_path_steps then
    Buffer.add_string buf
      (Printf.sprintf "... (+%d more step(s))\n" (n_steps - max_path_steps));
  (* top gates *)
  if r.rp_gates <> [] then begin
    Buffer.add_string buf "\ntop gates (aggregated over the path):\n";
    let t =
      Support.Stats.Table.create
        ~columns:[ "cat"; "span"; "count"; "us"; "share" ]
    in
    List.iteri
      (fun i g ->
        if i < 10 then
          Support.Stats.Table.add_row t
            [
              g.g_cat; g.g_name; string_of_int g.g_count; us g.g_total_us;
              pct (g.g_total_us /. wall);
            ])
      r.rp_gates;
    Buffer.add_string buf (Support.Stats.Table.render t)
  end;
  (* drift *)
  if r.rp_drift <> [] then begin
    Buffer.add_string buf
      "\nprediction drift (observed vs profile store, modeled us):\n";
    let t =
      Support.Stats.Table.create
        ~columns:
          [ "segment"; "device"; "launches"; "elements"; "observed";
            "predicted"; "ratio"; "profile"; "verdict" ]
    in
    List.iter
      (fun d ->
        Support.Stats.Table.add_row t
          [
            d.dr_uid; d.dr_device; string_of_int d.dr_launches;
            string_of_int d.dr_elements;
            us (d.dr_observed_ns /. 1000.0);
            (match d.dr_predicted_ns with
            | Some p -> us (p /. 1000.0)
            | None -> "-");
            (match drift_ratio d with
            | Some ratio -> Printf.sprintf "%.2f" ratio
            | None -> "-");
            d.dr_source; drift_verdict d;
          ])
      r.rp_drift;
    Buffer.add_string buf (Support.Stats.Table.render t)
  end;
  (match r.rp_drift_note with
  | Some note -> Buffer.add_string buf (Printf.sprintf "note: %s\n" note)
  | None -> ());
  Buffer.contents buf

(* --- JSON -------------------------------------------------------------- *)

let jstr s =
  let buf = Buffer.create (String.length s + 8) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let jnum f =
  if Float.is_nan f then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.3f" f

let max_json_path_steps = 100

let render_json (r : t) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{";
  add (Printf.sprintf "\"wall_us\":%s," (jnum r.rp_wall_us));
  add (Printf.sprintf "\"roots\":%d," r.rp_roots);
  add (Printf.sprintf "\"events\":%d," r.rp_events);
  add (Printf.sprintf "\"dropped\":%d," r.rp_dropped);
  add
    (Printf.sprintf "\"truncated\":%b," (r.rp_dropped > 0));
  add
    (Printf.sprintf
       "\"attribution\":{\"compute_us\":%s,\"marshal_us\":%s,\"sched_us\":%s,\"backoff_us\":%s,\"other_us\":%s,\"total_us\":%s,\"backoff_modeled_us\":%s},"
       (jnum r.rp_attr.at_compute) (jnum r.rp_attr.at_marshal)
       (jnum r.rp_attr.at_sched) (jnum r.rp_attr.at_backoff)
       (jnum r.rp_attr.at_other)
       (jnum (attribution_total r.rp_attr))
       (jnum r.rp_backoff_modeled_us));
  add "\"devices\":[";
  add
    (String.concat ","
       (List.map
          (fun d ->
            Printf.sprintf
              "{\"device\":%s,\"busy_us\":%s,\"compute_us\":%s,\"marshal_us\":%s,\"util\":%.4f,\"idle_us\":%s,\"idle_gaps\":%d,\"longest_idle_us\":%s}"
              (jstr d.dv_name) (jnum d.dv_busy_us) (jnum d.dv_compute_us)
              (jnum d.dv_marshal_us) d.dv_util (jnum d.dv_idle_us)
              d.dv_idle_gaps
              (jnum d.dv_longest_idle_us))
          r.rp_devices));
  add "],\"segments\":[";
  add
    (String.concat ","
       (List.map
          (fun s ->
            Printf.sprintf
              "{\"uid\":%s,\"device\":%s,\"launches\":%d,\"compute_us\":%s,\"marshal_us\":%s}"
              (jstr s.sg_uid) (jstr s.sg_device) s.sg_launches
              (jnum s.sg_compute_us) (jnum s.sg_marshal_us))
          r.rp_segments));
  add "],\"critical_path\":[";
  let steps = List.filteri (fun i _ -> i < max_json_path_steps) r.rp_path in
  add
    (String.concat ","
       (List.map
          (fun p ->
            Printf.sprintf
              "{\"cat\":%s,\"name\":%s,\"count\":%d,\"total_us\":%s}"
              (jstr p.ps_cat) (jstr p.ps_name) p.ps_count (jnum p.ps_total_us))
          steps));
  add
    (Printf.sprintf "],\"critical_path_steps\":%d,\"critical_us\":%s,"
       (List.length r.rp_path) (jnum r.rp_critical_us));
  add "\"top_gates\":[";
  add
    (String.concat ","
       (List.map
          (fun g ->
            Printf.sprintf
              "{\"cat\":%s,\"name\":%s,\"count\":%d,\"total_us\":%s}"
              (jstr g.g_cat) (jstr g.g_name) g.g_count (jnum g.g_total_us))
          (List.filteri (fun i _ -> i < 10) r.rp_gates)));
  add "],\"drift\":[";
  add
    (String.concat ","
       (List.map
          (fun d ->
            Printf.sprintf
              "{\"uid\":%s,\"device\":%s,\"launches\":%d,\"elements\":%d,\"observed_us\":%s,\"predicted_us\":%s,\"ratio\":%s,\"profile\":%s,\"verdict\":%s}"
              (jstr d.dr_uid) (jstr d.dr_device) d.dr_launches d.dr_elements
              (jnum (d.dr_observed_ns /. 1000.0))
              (match d.dr_predicted_ns with
              | Some p -> jnum (p /. 1000.0)
              | None -> "null")
              (match drift_ratio d with
              | Some ratio -> Printf.sprintf "%.4f" ratio
              | None -> "null")
              (jstr d.dr_source)
              (jstr (drift_verdict d)))
          r.rp_drift));
  add "],\"tenants\":[";
  add
    (String.concat ","
       (List.map
          (fun tn ->
            Printf.sprintf
              "{\"tenant\":%s,\"jobs\":%d,\"wall_us\":%s,\"share\":%.4f,\"devices\":%s}"
              (jstr tn.tn_tenant) tn.tn_jobs (jnum tn.tn_wall_us) tn.tn_share
              (jstr tn.tn_devices))
          r.rp_tenants));
  add "],";
  add
    (Printf.sprintf "\"drift_note\":%s"
       (match r.rp_drift_note with Some n -> jstr n | None -> "null"));
  add "}";
  Buffer.contents buf
