(* The four benchmark workloads.  Each one loads a different layer:

   - mc-probe: the memo engine with leaf probes — the solo-probe layer.
   - mc-crash: the memo engine with probes off, commutativity reduction,
     observers and crash branching — everything but the probe layer.
   - campaign-smoke: the CI campaign preset, cold then warm — per-task
     fixed costs (CFG issued-op seed, store, JSON).
   - falsify: known-broken protocols with shrinking — witness replay and
     shrink.

   A workload is set up once per run ([setup]) and then timed pass by pass;
   every pass runs the same fixed checks and judges each one against its
   expected outcome. *)

module J = Campaign.Json

let now_s () = Trace.seconds (Trace.now_ns ())

(* The seed every pinned count was recorded with.  Under it every check
   keeps the CLI's pid -> input assignment and the campaign keeps the smoke
   preset's stress seed. *)
let default_seed = 1

(* A seed's pid -> input assignment for the [salt]-th check: a shuffle of
   [inputs], the identity under [default_seed]. *)
let permute ~seed ~salt inputs =
  let a = Array.copy inputs in
  if seed <> default_seed then begin
    let st = Random.State.make [| seed; salt |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
  end;
  a

(* ------------------------------------------------------------ passes -- *)

type pass = {
  wall_s : float;  (** wall time of the pass (traced: of its traced part) *)
  attempted : int;  (** checks judged *)
  failures : string list;  (** one line per failed check *)
  configs : int;  (** sum of the engine's [stats.configs] *)
  engine_s : float;  (** sum of the engine's [stats.elapsed] *)
  tasks : int;  (** checks or campaign tasks completed *)
  tasks_s : float;  (** the time those took *)
  layers : (string * float) list;  (** per-layer metrics (traced passes) *)
}

type prepared = {
  pass : unit -> pass;
  traced : Trace.log -> pass;
  release : unit -> unit;
}

type t = { name : string; setup : seed:int -> workdir:string -> prepared }

(* -------------------------------------------------- model-check rows -- *)

type check = {
  label : string;
  proto : Consensus.Proto.t;
  inputs : int array;
  depth : int;
  probe : Explore.probe_policy;
  reduce : Explore.reduction;
  crashes : int;
  observers : Observer.t list;
  expect : string option;  (** [None]: Completed; [Some kind]: that violation *)
  pinned : int option;  (** [stats.configs] under [default_seed] *)
}

(* No check of any workload comes near this; one that does is counted
   failed instead of stalling the run. *)
let check_deadline = 60.

let commute = { Explore.commute = true; symmetric = false }

let row id =
  match Hierarchy.find id with
  | Some r -> r.Hierarchy.protocol
  | None -> failwith ("perfbench: unknown registry row " ^ id)

let observers names =
  match Observer.of_names names with Ok o -> o | Error e -> failwith ("perfbench: " ^ e)

let check ?(probe = `Leaves) ?(reduce = Explore.no_reduction) ?(crashes = 0)
    ?(observe = []) ?expect ?pinned ~seed ~salt label proto ~inputs ~depth =
  {
    label;
    proto;
    inputs = permute ~seed ~salt inputs;
    depth;
    probe;
    reduce;
    crashes;
    observers = observers observe;
    expect;
    pinned = (if seed = default_seed then pinned else None);
  }

let spread n = Array.init n Fun.id
let binary n = Array.init n (fun i -> i land 1)

type run = {
  verdict : (Explore.stats Explore.verdict, string) result;
  run_wall : float;
}

let explore c =
  let t0 = now_s () in
  let verdict =
    match
      Explore.run ~engine:`Memo ~probe:c.probe ~reduce:c.reduce ~crashes:c.crashes
        ~observers:c.observers ~deadline:check_deadline c.proto ~inputs:c.inputs
        ~depth:c.depth
    with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  { verdict; run_wall = now_s () -. t0 }

let stats_of = function
  | Ok (Explore.Completed s) -> Some s
  | Ok (Explore.Falsified f) -> Some f.Explore.stats
  | Ok (Explore.Timed_out _) | Error _ -> None

(* [None] when the check met its expectation, else why not. *)
let judge c r =
  let got =
    match r.verdict with
    | Ok (Explore.Completed _) -> Ok None
    | Ok (Explore.Falsified f) -> Ok (Some (Explore.kind_name f.Explore.witness.kind))
    | Ok (Explore.Timed_out _) -> Error "timed out"
    | Error e -> Error ("raised " ^ e)
  in
  let name = function None -> "completed" | Some k -> "violation:" ^ k in
  match got with
  | Error why -> Some why
  | Ok v when v <> c.expect -> Some (Printf.sprintf "%s, expected %s" (name v) (name c.expect))
  | Ok _ ->
    (match (c.pinned, stats_of r.verdict) with
     | Some want, Some s when s.Explore.configs <> want ->
       Some (Printf.sprintf "configs %d, pinned %d" s.configs want)
     | _ -> None)

let witness_steps r =
  match r.verdict with
  | Ok (Explore.Falsified f) -> List.length f.Explore.witness.schedule
  | _ -> 0

let empty_pass =
  {
    wall_s = 0.;
    attempted = 0;
    failures = [];
    configs = 0;
    engine_s = 0.;
    tasks = 0;
    tasks_s = 0.;
    layers = [];
  }

let fail c why = Printf.sprintf "%s: %s" c.label why

(* One untraced pass: every check through [Explore.run], judged. *)
let mc_pass checks () =
  List.fold_left
    (fun p c ->
      let r = explore c in
      let configs, engine_s =
        match stats_of r.verdict with Some s -> (s.configs, s.elapsed) | None -> (0, 0.)
      in
      {
        p with
        wall_s = p.wall_s +. r.run_wall;
        attempted = p.attempted + 1;
        failures = (match judge c r with None -> p.failures | Some w -> fail c w :: p.failures);
        configs = p.configs + configs;
        engine_s = p.engine_s +. engine_s;
        tasks = p.tasks + 1;
        tasks_s = p.tasks_s +. r.run_wall;
      })
    empty_pass checks

(* Sum per-layer metrics of several checks (every entry is additive). *)
let add_layers a b =
  List.map (fun (k, v) -> (k, v +. Option.value (List.assoc_opt k b) ~default:0.)) a
  @ List.filter (fun (k, _) -> not (List.mem_assoc k a)) b

let explore_counts (s : Explore.stats) =
  [
    ("explore.configs", float_of_int s.configs);
    ("explore.probes", float_of_int s.probes);
    ("explore.dedup_hits", float_of_int s.dedup_hits);
    ("explore.sleep_pruned", float_of_int s.sleep_pruned);
  ]

(* The traced pass of the model-check workloads: each check runs through the
   engine (exact counts, judged as usual) and then through the shadow walk
   with every layer timed; the shadow's counts must equal the engine's. *)
let mc_traced checks log =
  List.fold_left
    (fun p c ->
      let r = explore c in
      let ly = Shadow.layers () in
      let t0 = now_s () in
      let shadow =
        Trace.span log c.label
          ~layers:(fun () -> Shadow.named ly)
          (fun () ->
            Shadow.run ly ~probe:c.probe ~commute:c.reduce.commute ~crashes:c.crashes
              ~observers:c.observers c.proto ~inputs:c.inputs ~depth:c.depth)
      in
      let walk_s = now_s () -. t0 in
      let mismatch =
        match (stats_of r.verdict, shadow) with
        | None, _ -> None (* the engine's own failure is reported by [judge] *)
        | Some _, Error kind -> Some ("shadow walk stopped at a " ^ kind ^ " violation")
        | Some s, Ok (sh : Shadow.counts) ->
          if
            (s.configs, s.probes, s.dedup_hits, s.sleep_pruned)
            = (sh.configs, sh.probes, sh.dedup_hits, sh.sleep_pruned)
          then None
          else
            Some
              (Printf.sprintf
                 "shadow walk counts %d/%d/%d/%d differ from the engine's %d/%d/%d/%d \
                  (configs/probes/dedup/sleep)"
                 sh.configs sh.probes sh.dedup_hits sh.sleep_pruned s.configs s.probes
                 s.dedup_hits s.sleep_pruned)
      in
      let failures =
        List.filter_map Fun.id [ judge c r; mismatch ]
        |> List.map (fail c)
      in
      let busy l = Trace.busy_s l in
      let layer_busy = List.fold_left (fun a (_, l) -> a +. busy l) 0. (Shadow.named ly) in
      let calls l = float_of_int l.Trace.calls in
      let plans = calls ly.tt in
      let layers =
        [
          ("probe.chains", calls ly.snapshot);
          ("probe.snapshot_s", busy ly.snapshot);
          ("probe.solo_s", busy ly.solo);
          ("probe.walk_s", walk_s);
          ("step.calls", calls ly.step);
          ("step.s", busy ly.step);
          ("fingerprint.calls", calls ly.fingerprint);
          ("fingerprint.s", busy ly.fingerprint);
          ("crash.branches", float_of_int ly.crash_branches);
          ("crash.s", busy ly.crash);
          ("tt.plans", plans);
          ("tt.hits", float_of_int (ly.tt_hits + ly.tt_partials));
          ("tt.partials", float_of_int ly.tt_partials);
          ("tt.entries", float_of_int ly.tt_entries);
          ("tt.s", busy ly.tt);
          ("sleep.indep_checks", calls ly.sleep);
          ("sleep.s", busy ly.sleep);
          ("observer.events", calls ly.observer);
          ("observer.s", busy ly.observer);
          ("absint.calls", calls ly.absint);
          ("absint.issued_ops", float_of_int ly.issued_ops);
          ("absint.s", busy ly.absint);
          ("explore.self_s", walk_s -. layer_busy);
        ]
        @ (match shadow with
           | Ok sh -> [ ("sleep.pruned", float_of_int sh.sleep_pruned) ]
           | Error _ -> [])
        @ match stats_of r.verdict with Some s -> explore_counts s | None -> []
      in
      {
        p with
        wall_s = p.wall_s +. walk_s;
        attempted = p.attempted + 1;
        failures = failures @ p.failures;
        layers = add_layers p.layers layers;
      })
    empty_pass checks

(* Ratios are computed once the additive per-layer sums are known. *)
let finish_mc_layers layers =
  let get k = Option.value (List.assoc_opt k layers) ~default:0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  List.filter (fun (k, _) -> k <> "probe.walk_s" && k <> "tt.hits") layers
  @ [
      ("probe.share", ratio (get "probe.snapshot_s" +. get "probe.solo_s") (get "probe.walk_s"));
      ("tt.hit_ratio", ratio (get "tt.hits") (get "tt.plans"));
    ]

let mc_workload name make =
  {
    name;
    setup =
      (fun ~seed ~workdir:_ ->
        let checks = make ~seed in
        {
          pass = mc_pass checks;
          traced =
            (fun log ->
              let p = mc_traced checks log in
              { p with layers = finish_mc_layers p.layers });
          release = ignore;
        });
  }

let mc_probe =
  mc_workload "mc-probe" (fun ~seed ->
      [
        check ~seed ~salt:0 "rw n=4 d=12" (row "rw") ~inputs:(spread 4) ~depth:12
          ~pinned:20_206;
        check ~seed ~salt:1 "swap n=4 d=14" (row "swap") ~inputs:(spread 4) ~depth:14
          ~pinned:8_218;
      ])

let mc_crash =
  mc_workload "mc-crash" (fun ~seed ->
      [
        check ~seed ~salt:0 "rc-cas n=4 d=24 crashes=3" (row "rc-cas") ~inputs:(spread 4)
          ~depth:24 ~probe:`Never ~reduce:commute ~crashes:3
          ~observe:[ "recoverable-agreement"; "recoverable-validity" ]
          ~pinned:490_798;
      ])

(* ----------------------------------------------------------- falsify -- *)

(* Every distinct arrangement of a multiset of inputs, in lexicographic
   order. *)
let rec arrangements = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rec drop = function [] -> [] | y :: r -> if y = x then r else y :: drop r in
        List.map (fun a -> x :: a) (arrangements (drop l)))
      (List.sort_uniq compare l)

(* The first violation a search meets depends on the pid -> input
   arrangement (rounds_maxreg at n=2 explores 369 or 1,095 configurations),
   so falsify checks every distinct arrangement in each pass and the seed
   only shuffles their order: runs under different seeds do the same work.
   Each arrangement's configuration count is pinned, in [arrangements]
   order. *)
let falsify_checks ~seed =
  let open Lowerbound.Victims in
  let counting_fai = let (module V) = counting_fai in (module V : Consensus.Proto.S) in
  let rounds_maxreg = let (module V) = rounds_maxreg in (module V : Consensus.Proto.S) in
  let naive_fai = let (module V) = naive_fai in (module V : Consensus.Proto.S) in
  let naive_maxreg = let (module V) = naive_maxreg in (module V : Consensus.Proto.S) in
  let all ?probe ?crashes label proto inputs ~depth ~expect ~pinned =
    let arr = arrangements (Array.to_list inputs) in
    List.map2
      (fun a pinned ->
        let inputs = Array.of_list a in
        let label =
          Printf.sprintf "%s inputs=%s" label
            (String.concat "," (List.map string_of_int a))
        in
        check ?probe ?crashes ~seed:default_seed ~salt:0 label proto ~inputs ~depth ~expect
          ~pinned)
      arr pinned
  in
  let of_ = "obstruction-freedom" and ag = "agreement" in
  let checks =
    List.concat
      [
        all "counting_fai n=2" counting_fai (binary 2) ~depth:20 ~expect:of_ ~pinned:[ 59; 59 ];
        all "counting_fai n=3" counting_fai (binary 3) ~depth:20 ~expect:of_ ~pinned:[ 168; 168; 168 ];
        all "rounds_maxreg n=2" rounds_maxreg (binary 2) ~depth:20 ~expect:ag ~pinned:[ 369; 1_095 ];
        all "naive_fai n=3" naive_fai (binary 3) ~depth:20 ~expect:ag ~pinned:[ 45; 27; 27 ];
        all "naive_maxreg n=3" naive_maxreg (binary 3) ~depth:20 ~expect:ag ~pinned:[ 7; 5; 23 ];
        all "rc-tas-naive n=3 crashes=1" (row "rc-tas-naive") (spread 3) ~depth:12
          ~crashes:1 ~probe:`Never ~expect:ag ~pinned:[ 13; 13; 13; 13; 13; 13 ];
      ]
  in
  let st = Random.State.make [| seed |] in
  List.map (fun c -> (Random.State.bits st, c)) checks
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* The traced falsify pass reads the engine's own diagnosis counters and
   times one extra [Explore.replay] of each shrunk witness, which must
   reproduce the violation. *)
let falsify_traced checks log =
  List.fold_left
    (fun p c ->
      let r = Trace.span log c.label (fun () -> explore c) in
      let replay_s, replay_fail, extra =
        match r.verdict with
        | Ok (Explore.Falsified f) ->
          let t0 = now_s () in
          let rep = Explore.replay c.proto ~inputs:c.inputs f.Explore.witness in
          let dt = now_s () -. t0 in
          let reproduced =
            match rep with
            | Ok { Explore.violation = Some (k, _); _ } -> k = f.witness.kind
            | Ok _ | Error _ -> false
          in
          ( dt,
            (if reproduced then None else Some "shrunk witness does not replay"),
            [
              ("witness.diagnosis_s", f.diagnosis_elapsed);
              ("witness.shrink_attempts", float_of_int f.shrink_attempts);
              ( "witness.trace_bytes",
                float_of_int (match f.trace with Some s -> String.length s | None -> 0) );
            ]
            @ explore_counts f.stats )
        | _ -> (0., None, [])
      in
      let failures =
        List.filter_map Fun.id [ judge c r; replay_fail ] |> List.map (fail c)
      in
      {
        p with
        wall_s = p.wall_s +. r.run_wall +. replay_s;
        attempted = p.attempted + 1;
        failures = failures @ p.failures;
        layers =
          add_layers p.layers
            (("witness.replay_s", replay_s)
            :: ("witness.steps", float_of_int (witness_steps r))
            :: ("pass.check_s", r.run_wall)
            :: extra);
      })
    empty_pass checks

let falsify =
  {
    name = "falsify";
    setup =
      (fun ~seed ~workdir:_ ->
        let checks = falsify_checks ~seed in
        {
          pass = mc_pass checks;
          traced =
            (fun log ->
              let p = falsify_traced checks log in
              let get k = Option.value (List.assoc_opt k p.layers) ~default:0. in
              let share = get "witness.diagnosis_s" /. get "pass.check_s" in
              {
                p with
                layers =
                  List.remove_assoc "pass.check_s" p.layers
                  @ [ ("witness.share", share) ];
              });
          release = ignore;
        });
  }

(* ---------------------------------------------------- campaign-smoke -- *)

(* [stats.configs] of every smoke check task under [default_seed], keyed by
   row id (stress tasks explore nothing). *)
let campaign_pins =
  [
    ("add", 21); ("buffer-1", 15); ("buffer-2", 22); ("cas", 5); ("fetch-add", 29);
    ("fetch-incr", 19); ("fetch-multiply", 29); ("inc-dec", 21); ("increment", 19);
    ("intro-dec-mul", 15); ("intro-faa2-tas", 5); ("max-register", 18); ("multi-1", 15);
    ("multi-2", 22); ("multiply", 21); ("rw", 19); ("set-bit", 21); ("swap", 17);
    ("tas-reset", 15); ("tas", 15); ("write01", 15); ("write1", 15);
  ]

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let campaign_tasks ~seed =
  let spec = { Campaign.Spec.smoke with stress_seeds = [ seed ] } in
  match Campaign.Spec.tasks spec with
  | Ok tasks -> tasks
  | Error e -> failwith ("perfbench: " ^ e)

(* Judge one cold-run record: it must verify, and under [default_seed] its
   configuration count must equal the pinned one. *)
let judge_record ~seed (r : Campaign.Record.t) =
  let label = Printf.sprintf "%s/%s" r.row r.kind in
  let why =
    if r.status <> Campaign.Record.Verified then Some (Campaign.Record.status_name r.status)
    else if seed <> default_seed || r.kind <> "check" then None
    else
      match List.assoc_opt r.row campaign_pins with
      | Some want when want = r.configs -> None
      | Some want -> Some (Printf.sprintf "configs %d, pinned %d" r.configs want)
      | None -> Some (Printf.sprintf "configs %d, none pinned" r.configs)
  in
  Option.map (fun w -> label ^ ": " ^ w) why

(* Failures of a cold run's records, its executed count and the warm
   resume's; [attempted] counts every task plus the resume. *)
let judge_campaign ~seed ~total ~cold_executed ~warm_executed records =
  List.filter_map (judge_record ~seed) records
  @ (if cold_executed = total then []
     else [ Printf.sprintf "cold run executed %d of %d tasks" cold_executed total ])
  @
  if warm_executed = 0 then []
  else [ Printf.sprintf "warm resume executed %d tasks" warm_executed ]

let check_totals (records : Campaign.Record.t list) =
  List.fold_left
    (fun (c, s) (r : Campaign.Record.t) ->
      if r.kind = "check" then (c + r.configs, s +. r.elapsed) else (c, s))
    (0, 0.) records

let fresh_caches () =
  Analysis.Symmetry.reset_run_cache ();
  Analysis.Absint.reset_cache ()

let campaign_pass ~seed ~fresh tasks () =
  fresh_caches ();
  let dir = fresh () in
  let t0 = now_s () in
  let store = Campaign.Store.open_ ~dir () in
  let cold = Campaign.Executor.run ~store tasks in
  Campaign.Store.close store;
  let store = Campaign.Store.open_ ~dir () in
  let warm = Campaign.Executor.run ~store tasks in
  Campaign.Store.close store;
  let report = Campaign.Report.render (Campaign.Report.make warm.records) in
  let wall_s = now_s () -. t0 in
  remove_tree dir;
  let total = List.length tasks in
  let failures =
    judge_campaign ~seed ~total ~cold_executed:cold.executed ~warm_executed:warm.executed
      cold.records
    @ if report = "" then [ "empty report" ] else []
  in
  let configs, engine_s = check_totals cold.records in
  {
    empty_pass with
    wall_s;
    attempted = total + 1;
    failures;
    configs;
    engine_s;
    tasks = cold.executed;
    tasks_s = cold.elapsed;
  }

(* The traced campaign pass replays [Executor.run]'s single-domain loop from
   public functions — fingerprint and look up every task, pre-certify, then
   run, store and log each pending one — timing each call.  The CFG
   issued-op seed that [Explore] builds inside every commute task is
   attributed by timing [Analysis.Absint.Issued(P).ops] once more on the
   task's own arguments. *)
let campaign_traced ~seed ~fresh tasks log =
  let module Store = Campaign.Store in
  let module Task = Campaign.Task in
  fresh_caches ();
  let dir = fresh () in
  let l () = Trace.layer () in
  let l_open = l () and l_fp = l () and l_find = l () and l_cert = l () in
  let l_absint = l () and l_run = l () and l_put = l () and l_log = l () in
  let l_json = l () in
  let json_bytes = ref 0 and issued = ref 0 in
  let timed ly f =
    let t0 = Trace.now_ns () in
    let v = f () in
    Trace.charge ly t0;
    v
  in
  let named =
    [
      ("store.open", l_open); ("task.fingerprint", l_fp); ("store.find", l_find);
      ("symmetry.certify", l_cert); ("absint", l_absint); ("task.run", l_run);
      ("store.put", l_put); ("store.log", l_log); ("json.print", l_json);
    ]
  in
  let layers () = named in
  let pending store =
    List.filter
      (fun task ->
        let fp = timed l_fp (fun () -> Task.fingerprint task) in
        timed l_find (fun () -> Store.find store fp) = None)
      tasks
  in
  let print json =
    let s = timed l_json (fun () -> J.to_string json) in
    json_bytes := !json_bytes + String.length s
  in
  let seed_ops (task : Task.t) =
    match task.work with
    | Task.Check { reduce; _ } when reduce.Explore.commute ->
      let (module P : Consensus.Proto.S) = task.row.protocol in
      let module S = Analysis.Absint.Issued (P) in
      let inputs = List.sort_uniq compare (Array.to_list task.inputs) in
      let ops = timed l_absint (fun () -> S.ops ~n:task.n ~inputs) in
      issued := !issued + List.length ops
    | _ -> ()
  in
  let t0 = now_s () in
  let cold_t0 = now_s () in
  let records =
    Trace.span log "cold" ~layers (fun () ->
        let store = timed l_open (fun () -> Store.open_ ~dir ()) in
        let todo = pending store in
        timed l_cert (fun () -> Campaign.Executor.precertify ~store todo);
        let log_event ev =
          timed l_log (fun () -> Store.log_event store (Campaign.Executor.json_of_event ev))
        in
        let records =
          List.mapi
            (fun index task ->
              seed_ops task;
              log_event (Campaign.Executor.Task_started { index; task });
              let record = timed l_run (fun () -> Task.run task) in
              timed l_put (fun () -> Store.put store record);
              print (Campaign.Record.to_json record);
              log_event
                (Campaign.Executor.Task_finished { index; task; record; cached = false });
              record)
            todo
        in
        Store.close store;
        records)
  in
  let cold_s = now_s () -. cold_t0 in
  let warm_executed =
    Trace.span log "warm" ~layers (fun () ->
        let store = timed l_open (fun () -> Store.open_ ~dir ()) in
        let n = List.length (pending store) in
        Store.close store;
        n)
  in
  let report =
    Trace.span log "report" ~layers (fun () ->
        let rep = Campaign.Report.make records in
        print (Campaign.Report.to_json rep);
        Campaign.Report.render rep)
  in
  let wall_s = now_s () -. t0 in
  remove_tree dir;
  let total = List.length tasks in
  let failures =
    judge_campaign ~seed ~total ~cold_executed:(List.length records) ~warm_executed records
    @ if report = "" then [ "empty report" ] else []
  in
  let sum f = List.fold_left (fun a (r : Campaign.Record.t) -> a + f r) 0 records in
  let fl = float_of_int and busy = Trace.busy_s in
  let run_s = busy l_run in
  {
    empty_pass with
    wall_s;
    attempted = total + 1;
    failures;
    tasks = List.length records;
    tasks_s = cold_s;
    layers =
      [
        ("absint.calls", fl l_absint.calls);
        ("absint.issued_ops", fl !issued);
        ("absint.s", busy l_absint);
        ("absint.share", if run_s > 0. then busy l_absint /. run_s else 0.);
        ("symmetry.certify_s", busy l_cert);
        ("task.fingerprint_s", busy l_fp);
        ("task.run_s", run_s);
        ("store.puts", fl l_put.calls);
        ("store.put_s", busy l_put);
        ("store.find_s", busy l_find);
        ("store.open_s", busy l_open);
        ("store.log_s", busy l_log);
        ("json.print_s", busy l_json);
        ("json.bytes", fl !json_bytes);
        ("explore.configs", fl (sum (fun r -> r.configs)));
        ("explore.probes", fl (sum (fun r -> r.probes)));
        ("explore.dedup_hits", fl (sum (fun r -> r.dedup_hits)));
        ("explore.sleep_pruned", fl (sum (fun r -> r.sleep_pruned)));
      ];
  }

let campaign_smoke =
  {
    name = "campaign-smoke";
    setup =
      (fun ~seed ~workdir ->
        let tasks = campaign_tasks ~seed in
        (* a fixed path: its length reaches the records' JSON, and through
           it the collector's timing and the heap peak *)
        let root = Filename.concat workdir "campaign" in
        let k = ref 0 in
        (* a store directory no earlier run left records in; [Store.open_]
           creates it *)
        let fresh () =
          incr k;
          let dir = Filename.concat root (Printf.sprintf "store-%d" !k) in
          remove_tree dir;
          dir
        in
        {
          pass = campaign_pass ~seed ~fresh tasks;
          traced = campaign_traced ~seed ~fresh tasks;
          release = (fun () -> remove_tree root);
        });
  }

let all = [ mc_probe; mc_crash; campaign_smoke; falsify ]
