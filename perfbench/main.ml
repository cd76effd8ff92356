(* The benchmark driver: run one workload for a fixed time and print its
   metrics.

   Usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Run from the repository root.  Prints the host fingerprint as one JSON
   line, then the result as the last line of standard output:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With [--trace 0] the metrics are the end-to-end ones, host-normalised,
   and the line before the result holds their raw values; with [--trace 1]
   the per-layer ones, and the spans go to [.perfbench/trace-NAME.jsonl].
   Failed checks are listed on standard error.  Exit code 2 on a usage
   error. *)

module J = Campaign.Json
module W = Perfbench.Workloads
module Trace = Perfbench.Trace

(* (name, unit) of every end-to-end metric. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("pass_s", "s");
    ("configs_per_s", "1/s");
    ("tasks_per_s", "1/s");
    ("alloc_mb", "MB");
  ]

(* (name, unit) of every per-layer metric; a layer a workload's traced run
   does not reach reads 0. *)
let per_layer =
  [
    ("probe.chains", "count"); ("probe.snapshot_s", "s"); ("probe.solo_s", "s");
    ("probe.share", "ratio"); ("step.calls", "count"); ("step.s", "s");
    ("fingerprint.calls", "count"); ("fingerprint.s", "s"); ("crash.branches", "count");
    ("crash.s", "s"); ("tt.plans", "count"); ("tt.hit_ratio", "ratio");
    ("tt.partials", "count"); ("tt.entries", "count"); ("tt.s", "s");
    ("sleep.indep_checks", "count"); ("sleep.pruned", "count"); ("sleep.s", "s");
    ("observer.events", "count"); ("observer.s", "s"); ("witness.diagnosis_s", "s");
    ("witness.shrink_attempts", "count"); ("witness.trace_bytes", "bytes");
    ("witness.replay_s", "s"); ("witness.steps", "count"); ("witness.share", "ratio");
    ("absint.calls", "count"); ("absint.issued_ops", "count"); ("absint.s", "s");
    ("absint.share", "ratio"); ("symmetry.certify_s", "s"); ("task.fingerprint_s", "s");
    ("task.run_s", "s"); ("store.puts", "count"); ("store.put_s", "s");
    ("store.find_s", "s"); ("store.open_s", "s"); ("store.log_s", "s");
    ("json.print_s", "s"); ("json.bytes", "bytes"); ("gc.minor_words", "words");
    ("gc.promoted_words", "words"); ("gc.major_collections", "count");
    ("explore.configs", "count"); ("explore.probes", "count");
    ("explore.dedup_hits", "count"); ("explore.sleep_pruned", "count");
    ("explore.self_s", "s"); ("trace.overhead_s", "s"); ("failed_ratio", "ratio");
    ("host.ref_s", "s"); ("pass.raw_s", "s"); ("gc.top_heap_mb", "MB");
  ]

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b > 0. then a /. b else 0.
let now_s = W.now_s
let workdir = ".perfbench"

(* The host-speed reference: a fixed computation that uses nothing from the
   library (hash-table inserts, small allocations, a list sort).  Shared
   hosts change speed by up to 2x for tens of seconds at a time, which no
   run length averages away; timing the reference right after every pass
   and scaling by it cancels that drift while leaving the library's own
   speed in the figure. *)
let reference () =
  let t0 = now_s () in
  let h = Hashtbl.create 16 in
  for i = 0 to 200_000 do
    Hashtbl.replace h ((i * 7919) land 0x3FFFF) [ i; i + 1 ]
  done;
  let l = List.init 200_000 (fun i -> (i * 7919) land 0xFFFF) in
  ignore (Sys.opaque_identity (List.sort compare l, Hashtbl.length h));
  now_s () -. t0

(* The reference's time on the host the benchmark was defined on (2-core
   Xeon, OCaml 5.1.1, in a quiet spell); host-normalised seconds are raw
   seconds times [nominal_ref_s] over the reference time measured next to
   them. *)
let nominal_ref_s = 0.13

(* Set-up is short, so it is repeated [setup_reps] times and its median
   taken. *)
let setup_reps = 51

let timed_setup (w : W.t) ~seed =
  median
    (List.init setup_reps (fun _ ->
         let t0 = now_s () in
         let p = w.setup ~seed ~workdir in
         let dt = now_s () -. t0 in
         p.release ();
         dt))

type timed = {
  pass : W.pass;
  ref_s : float;  (** the reference timed right after the pass *)
  alloc_mb : float;  (** allocated during the pass *)
  setup_s : float;  (** median set-up time, measured right after [ref_s] *)
}

let allocated_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* Run [pass] until [seconds] have elapsed and at least [min_passes] ran,
   each pass followed by one timing of [reference] and then of [setup];
   [on_first] runs right after the first pass, before its reference. *)
let passes ?(on_first = ignore) ?(setup = fun () -> 0.) ~seconds ~min_passes pass =
  let t_end = now_s () +. seconds in
  let rec go k acc =
    if k >= min_passes && now_s () >= t_end then List.rev acc
    else begin
      (* every pass, and every reference timing, starts from a compacted
         heap, not from the garbage of what ran before it *)
      Gc.compact ();
      let w0 = allocated_words () in
      let pass = pass () in
      let alloc_mb = (allocated_words () -. w0) *. float_of_int (Sys.word_size / 8) /. 1048576. in
      if k = 0 then on_first ();
      Gc.compact ();
      let ref_s = reference () in
      go (k + 1) ({ pass; ref_s; alloc_mb; setup_s = setup () } :: acc)
    end
  in
  go 0 []

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ("gc.minor_words", b.minor_words -. a.minor_words);
    ("gc.promoted_words", b.promoted_words -. a.promoted_words);
    ("gc.major_collections", float_of_int (b.major_collections - a.major_collections));
  ]

let result ~correct ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit, value) ->
               (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]))
             metrics) );
    ]

let run (w : W.t) ~seed ~seconds ~trace =
  (try Sys.mkdir workdir 0o755 with Sys_error _ -> ());
  print_endline (J.to_string (J.Obj [ ("host", Perfbench.Host.json ()) ]));
  let prepared = w.setup ~seed ~workdir in
  let finish (all : W.pass list) metrics =
    let attempted = List.fold_left (fun a (p : W.pass) -> a + p.attempted) 0 all in
    let failures = List.concat_map (fun (p : W.pass) -> p.failures) all in
    List.iter (fun f -> prerr_endline ("FAILED " ^ w.name ^ ": " ^ f)) failures;
    let failed = List.length failures in
    let metrics =
      List.map
        (fun (name, unit) ->
          let v =
            if name = "failed_ratio" then ratio (float_of_int failed) (float_of_int attempted)
            else Option.value (List.assoc_opt name metrics) ~default:0.
          in
          (name, unit, v))
        (if trace then per_layer else end_to_end)
    in
    print_endline
      (J.to_string (result ~correct:(failed = 0) ~attempted:(max attempted 1) ~failed metrics))
  in
  if not trace then begin
    (* set-up is timed between passes, next to each reference: timed all
       at once it would sample the host's speed at a single moment *)
    let ps =
      passes ~setup:(fun () -> timed_setup w ~seed) ~seconds ~min_passes:3 prepared.pass
    in
    prepared.release ();
    let med f = median (List.map f ps) in
    let ref_s = med (fun t -> t.ref_s) in
    (* [k ref] scales a time measured next to a reference timing [ref];
       rates are divided by it *)
    let figures k =
      [
        ("setup_s", med (fun t -> t.setup_s *. k t.ref_s));
        ("pass_s", med (fun t -> t.pass.wall_s *. k t.ref_s));
        ( "configs_per_s",
          med (fun t -> ratio (float_of_int t.pass.configs) t.pass.engine_s /. k t.ref_s) );
        ( "tasks_per_s",
          med (fun t -> ratio (float_of_int t.pass.tasks) t.pass.tasks_s /. k t.ref_s) );
      ]
    in
    let raw = figures (fun _ -> 1.) @ [ ("ref_s", ref_s) ] in
    print_endline
      (J.to_string
         (J.Obj [ ("raw", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) raw)) ]));
    finish
      (List.map (fun t -> t.pass) ps)
      (figures (fun r -> nominal_ref_s /. r) @ [ ("alloc_mb", med (fun t -> t.alloc_mb)) ])
  end
  else begin
    (* A third of the time untraced (for the overhead baseline, the GC
       counters and the reference), the rest traced. *)
    let gcs = ref [] in
    let untraced () =
      let g0 = Gc.quick_stat () in
      let p = prepared.pass () in
      gcs := gc_delta g0 (Gc.quick_stat ()) :: !gcs;
      p
    in
    (* the heap peak of one pass, read before any reference runs *)
    let top_heap_mb = ref 0. in
    let on_first () =
      top_heap_mb :=
        float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
    in
    let base = passes ~on_first ~seconds:(seconds /. 3.) ~min_passes:2 untraced in
    let log = Trace.create () in
    let traced =
      passes ~seconds:(seconds *. 2. /. 3.) ~min_passes:2 (fun () ->
          Trace.span log "pass" (fun () -> prepared.traced log))
      |> List.map (fun t -> t.pass)
    in
    prepared.release ();
    Trace.write log (Filename.concat workdir ("trace-" ^ w.name ^ ".jsonl"));
    let med_of key rows = median (List.filter_map (List.assoc_opt key) rows) in
    let layer_rows = List.map (fun (p : W.pass) -> p.layers) traced in
    let keys = List.sort_uniq compare (List.concat_map (List.map fst) (layer_rows @ !gcs)) in
    let wall ps = median (List.map (fun (p : W.pass) -> p.wall_s) ps) in
    let base_passes = List.map (fun t -> t.pass) base in
    finish (base_passes @ traced)
      (("trace.overhead_s", wall traced -. wall base_passes)
      :: ("host.ref_s", median (List.map (fun t -> t.ref_s) base))
      :: ("pass.raw_s", wall base_passes)
      :: ("gc.top_heap_mb", !top_heap_mb)
      :: List.map (fun k -> (k, med_of k (layer_rows @ !gcs))) keys)
  end

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\nworkloads: "
    ^ String.concat " " (List.map (fun (w : W.t) -> w.name) W.all));
  exit 2

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10 in
  let trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measured time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "perfbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  match List.find_opt (fun (w : W.t) -> w.name = !workload) W.all with
  | None -> usage ()
  | Some _ when !trace <> 0 && !trace <> 1 -> usage ()
  | Some w -> run w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
