(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see EXPERIMENTS.md for the experiment index) and times the
   protocols with bechamel.

   Sections:
     T1      Table 1 — the space hierarchy, measured vs paper formulas
     T1-LB   Table 1 lower-bound entries — adversary executions
     F1      Figure 1 — concurrent appends on one ℓ-buffer history
     INTRO   Section 1 collapse examples
     STEPS   Lemma 8.7 — solo swap decision within 3n−2 scans
     BUF     Section 6 — ⌈n/ℓ⌉ capacity sweep
     MULTI   Section 7 — multiple assignment bounds
     ABL     ablations: racing decision threshold, scan stability
     CRASH   crash–recovery: crash-point enumeration + crash-free identity
     LINT    static-analysis passes: symmetry certification, registry lint
     TIME    bechamel wall-clock per protocol, plus one solo-probe segment
             (plain scratch miss vs memo hit) *)

let section title =
  Printf.printf "\n==== %s ====\n%!" title

(* ---------------------------------------------------------------- T1 -- *)

let table1 () =
  section "T1: Table 1 — space hierarchy (measured/allocated locations)";
  print_string (Hierarchy.render ~ells:[ 1; 2; 3 ] ~ns:[ 2; 3; 5; 8; 12 ] ())

(* ------------------------------------------------------------- T1-LB -- *)

let table1_lower_bounds () =
  section "T1-LB: lower-bound rows, executed";
  (match Lowerbound.Interleave.run Lowerbound.Victims.naive_maxreg ~n:2 with
   | Agreement_violated { p_decision; q_decision; steps; _ } ->
     Printf.printf
       "Thm 4.1  one max-register     : victim broken in %d writes (decisions %d/%d)\n"
       steps p_decision q_decision
   | Protocol_error e -> Printf.printf "Thm 4.1  unexpected: %s\n" e);
  (match Lowerbound.Interleave.run Lowerbound.Victims.rounds_maxreg ~n:2 with
   | Agreement_violated { steps; _ } ->
     Printf.printf
       "Thm 4.1  round-based victim   : broken too, after %d writes\n" steps
   | Protocol_error e -> Printf.printf "Thm 4.1  unexpected: %s\n" e);
  (match Lowerbound.Fai_adversary.run Lowerbound.Victims.naive_fai ~n:2 with
   | Agreement_violated { p_decision; q_decision; _ } ->
     Printf.printf
       "Thm 5.1  one r/w/f&i location : victim broken (decisions %d/%d)\n" p_decision
       q_decision
   | Protocol_error e -> Printf.printf "Thm 5.1  unexpected: %s\n" e);
  (match
     Lowerbound.Growth.run
       (Consensus.Tracks_protocol.protocol_typed ~flavour:Isets.Bits.Tas_only)
       ~rounds:10 ~inputs:[| 0; 1; 0 |]
   with
   | Ok progress ->
     let series =
       List.map (fun (p : Lowerbound.Growth.progress) -> string_of_int p.ones) progress
     in
     Printf.printf
       "Lem 9.1  {read,tas} growth    : locations set per adversary round: %s\n"
       (String.concat " " series)
   | Error e -> Printf.printf "Lem 9.1  growth stopped: %s\n" e);
  List.iter
    (fun (name, proto, inputs, depth) ->
      match Lowerbound.Covering_witness.witness ~search_depth:depth proto ~inputs with
      | Ok (r : Lowerbound.Covering_witness.report) ->
        Printf.printf
          "Lem 6.5  %-20s : Q={p%d,p%d} bivalent; R=[%s] covers L=[%s]; after a \
           %d-step Q-only run, Q covers fresh location %d; bivalent past the block \
           write: %b\n"
          name (fst r.bivalent_pair) (snd r.bivalent_pair)
          (String.concat "," (List.map string_of_int r.coverers))
          (String.concat "," (List.map string_of_int r.covered))
          r.xi_steps r.fresh_location r.still_bivalent_after_block_write
      | Error e -> Printf.printf "Lem 6.5  %-20s : %s\n" name e)
    [
      ("registers, n=3", Consensus.Rw_protocol.protocol, [| 0; 1; 2 |], 6);
      ("2-buffers, n=4", Consensus.Buffers_protocol.protocol ~capacity:2, [| 0; 1; 2; 3 |], 6);
      ("swap, n=3", Consensus.Swap_protocol.protocol, [| 0; 1; 2 |], 10);
    ]

(* ---------------------------------------------------------------- F1 -- *)

(* Figure 1 depicts ℓ concurrent appends to one ℓ-buffer: the reconstruction
   of Lemma 6.1 survives exactly up to ℓ concurrent appenders.  We sweep the
   number of concurrent appenders a for ℓ = 4 and report how many of the
   first-round appends a later reader recovers. *)
let figure1 () =
  section "F1: Figure 1 — concurrent appends on one 4-buffer history";
  let capacity = 4 in
  let module B = Isets.Buffer_set.Make (struct
    let capacity = capacity
    let multi_assignment = false
  end) in
  let module M = Model.Machine.Make (B) in
  Printf.printf "%-12s %-10s %-10s %s\n" "appenders a" "recovered" "expected"
    "(a <= l: all survive; a > l: oldest may drop)";
  List.iter
    (fun a ->
      let open Model.Proc.Syntax in
      let proc pid =
        let* () =
          Objects.History.append ~loc:0
            ~elt:(Objects.History.tag ~pid ~seq:0 (Model.Value.Int (100 + pid)))
        in
        let* h = Objects.History.get ~loc:0 in
        Model.Proc.return (List.length h)
      in
      let cfg = M.make ~n:a (fun pid -> proc pid) in
      (* all a appenders read the empty buffer, then write back-to-back:
         the figure's fully-concurrent regime *)
      let cfg = List.fold_left M.step cfg (List.init a (fun i -> i)) in
      let cfg = List.fold_left M.step cfg (List.init a (fun i -> i)) in
      let cfg, _ = M.run ~sched:(Model.Sched.solo 0) cfg in
      let recovered = Option.get (M.decision cfg 0) in
      Printf.printf "%-12d %-10d %-10d\n" a recovered (min a capacity))
    [ 1; 2; 3; 4; 5; 6; 8 ]

(* ------------------------------------------------------------- INTRO -- *)

let intro () =
  section "INTRO: Section 1 — the hierarchy collapse examples";
  Printf.printf "%-28s %-6s %-10s %-8s %s\n" "instruction set" "n" "decided" "locs"
    "steps (wait-free: <= 2 per process)";
  List.iter
    (fun n ->
      List.iter
        (fun (name, proto) ->
          let inputs = Array.init n (fun i -> i land 1) in
          let report =
            Consensus.Driver.run proto ~inputs
              ~sched:(Model.Sched.random_then_sequential ~seed:n ~prefix:50)
          in
          Consensus.Driver.check_exn report ~inputs;
          let d = match report.decisions with (_, v) :: _ -> v | [] -> -1 in
          Printf.printf "%-28s %-6d %-10d %-8d %d\n" name n d report.locations_used
            report.steps)
        [
          ("{fetch-and-add(2), tas()}", Consensus.Intro_protocols.faa2_tas);
          ("{read, decrement, multiply}", Consensus.Intro_protocols.decmul);
        ])
    [ 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------- STEPS -- *)

let steps_bound () =
  section "STEPS: Lemma 8.7 — solo swap-read decision within 3n-2 scans";
  Printf.printf "%-6s %-12s %-12s %-12s\n" "n" "steps" "scans(est)" "bound 3n-2";
  List.iter
    (fun n ->
      let inputs = Array.init n (fun i -> i) in
      let report =
        Consensus.Driver.run Consensus.Swap_protocol.protocol ~inputs
          ~sched:(Model.Sched.solo 0)
      in
      (* a solo scan costs 2(n−1) reads; swaps account for the rest *)
      let scans = report.steps / ((2 * (n - 1)) + 1) + 1 in
      Printf.printf "%-6d %-12d %-12d %-12d\n" n report.steps scans ((3 * n) - 2))
    [ 2; 3; 5; 8; 12; 16; 24 ]

(* --------------------------------------------------------------- BUF -- *)

let buffer_sweep () =
  section "BUF: Section 6 — locations = ceil(n/l) across buffer capacities";
  let n = 24 in
  Printf.printf "n = %d\n%-6s %-12s %-12s %-12s\n" n "l" "measured" "ceil(n/l)"
    "lower ceil((n-1)/l)";
  List.iter
    (fun ell ->
      let proto = Consensus.Buffers_protocol.protocol ~capacity:ell in
      let inputs = Array.init n (fun i -> i) in
      let report =
        Consensus.Driver.run ~fuel:50_000_000 proto ~inputs
          ~sched:(Model.Sched.random_then_sequential ~seed:ell ~prefix:100)
      in
      Consensus.Driver.check_exn report ~inputs;
      Printf.printf "%-6d %-12d %-12d %-12d\n" ell report.locations_used
        ((n + ell - 1) / ell)
        ((n - 1 + ell - 1) / ell))
    [ 1; 2; 3; 4; 6; 8; 12; 24 ]

(* ------------------------------------------------------------- MULTI -- *)

let multi_assignment () =
  section "MULTI: Section 7 — transactions buy at most a factor ~2";
  Printf.printf "%-6s %-22s %-22s %-20s\n" "n" "plain lower ceil((n-1)/l)"
    "multi lower ceil((n-1)/2l)" "measured upper (both)";
  let ell = 2 in
  List.iter
    (fun n ->
      let inputs = Array.init n (fun i -> i) in
      let measure proto =
        let report =
          Consensus.Driver.run ~fuel:50_000_000 proto ~inputs
            ~sched:(Model.Sched.random_then_sequential ~seed:n ~prefix:100)
        in
        Consensus.Driver.check_exn report ~inputs;
        report.locations_used
      in
      let plain = measure (Consensus.Buffers_protocol.protocol ~capacity:ell) in
      let multi = measure (Consensus.Buffers_protocol.multi_assignment_protocol ~capacity:ell) in
      Printf.printf "%-6d %-22d %-22d %d / %d\n" n
        ((n - 1 + ell - 1) / ell)
        ((n - 1 + (2 * ell) - 1) / (2 * ell))
        plain multi)
    [ 3; 5; 9; 13; 17 ]

(* --------------------------------------------------------------- ABL -- *)

(* Ablation 1: racing's decision threshold.  The paper's Lemma 3.1 needs a
   lead of n; a lead of 1 is unsound and the model checker exhibits the
   agreement violation. *)
let ablation_threshold () =
  section "ABL-lead: racing counters decision threshold";
  let proto lead : Consensus.Proto.t =
    (module struct
      module I = Isets.Arith.Add

      let name = Printf.sprintf "arith-add(lead=%d)" lead
      let locations ~n:_ = Some 1

      let proc ~n ~pid:_ ~input =
        Consensus.Racing.consensus ~decide_lead:lead
          (Objects.Arith_counters.add ~components:n ~n ~loc:0)
          ~n ~input
    end)
  in
  List.iter
    (fun lead ->
      let outcome =
        Explore.run ~probe:`Everywhere (proto lead) ~inputs:[| 0; 1 |] ~depth:12
      in
      (match outcome with
       | Explore.Completed s ->
         Printf.printf "lead=%d: no violation in %d configurations (depth 12)\n" lead
           s.configs
       | Explore.Timed_out t ->
         Printf.printf "lead=%d: timed out after %d configurations\n" lead
           t.Explore.partial.Explore.configs
       | Explore.Falsified f ->
         Printf.printf "lead=%d: VIOLATION — %s\n" lead (Explore.failure_message f));
      (* and the steps cost at n=6 under contention *)
      let inputs = Array.init 6 (fun i -> i) in
      let report =
        Consensus.Driver.run (proto lead) ~inputs
          ~sched:(Model.Sched.random_then_sequential ~seed:4 ~prefix:200)
      in
      match Consensus.Driver.check report ~inputs with
      | Ok () -> Printf.printf "         n=6 adversarial steps: %d\n" report.steps
      | Error e -> Printf.printf "         n=6 adversarial run: VIOLATION — %s\n" e)
    [ 1; 2; 6 ]

(* Ablation 2: scan stability of the Bow11-substitute bounded tracks. *)
let ablation_stability () =
  section "ABL-stability: bounded-track scan stability (Bow11 substitute)";
  let proto stability : Consensus.Proto.t =
    (module struct
      module I = Isets.Bits.Make (struct
        let flavour = Isets.Bits.Write01
      end)

      let name = Printf.sprintf "write01-binary(k=%d)" stability
      let locations ~n = Some (2 * 8 * n)

      let proc ~n ~pid:_ ~input =
        Consensus.Racing.consensus ~decide_lead:n ~decrement_at:(2 * n)
          (Objects.Bit_tracks.bounded ~components:2 ~length:(8 * n) ~base:0 ~stability
             ~flavour:Isets.Bits.Write01)
          ~n ~input
    end)
  in
  List.iter
    (fun stability ->
      let inputs = [| 0; 1; 1; 0 |] in
      let steps = ref 0 and violations = ref 0 in
      for seed = 1 to 20 do
        let report =
          Consensus.Driver.run ~fuel:50_000_000 (proto stability) ~inputs
            ~sched:(Model.Sched.random_then_sequential ~seed ~prefix:400)
        in
        steps := !steps + report.steps;
        match Consensus.Driver.check report ~inputs with
        | Ok () -> ()
        | Error _ -> incr violations
      done;
      Printf.printf "stability=%d: %d violations / 20 adversarial runs, avg steps %d\n"
        stability !violations (!steps / 20))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------ HETERO -- *)

let hetero () =
  section "HETERO: Section 6 remark — mixed buffer capacities";
  Printf.printf "%-20s %-6s %-10s %-12s %s\n" "capacities" "n" "sum" "locations"
    "(paper: sum >= n-1 necessary; sum >= n sufficient)";
  List.iter
    (fun (caps, n) ->
      let proto = Consensus.Hetero_protocol.protocol ~capacities:caps in
      let inputs = Array.init n (fun i -> i) in
      let report =
        Consensus.Driver.run ~fuel:50_000_000 proto ~inputs
          ~sched:(Model.Sched.random_then_sequential ~seed:n ~prefix:150)
      in
      Consensus.Driver.check_exn report ~inputs;
      Printf.printf "%-20s %-6d %-10d %-12d\n"
        ("[" ^ String.concat ";" (List.map string_of_int caps) ^ "]")
        n
        (List.fold_left ( + ) 0 caps)
        report.locations_used)
    [
      ([ 3; 2; 2 ], 7);
      ([ 5; 1; 1 ], 7);
      ([ 7 ], 7);
      ([ 1; 1; 1; 1; 1; 1; 1 ], 7);
      ([ 4; 4; 4 ], 12);
      ([ 6; 3; 2; 1 ], 12);
    ]

(* ------------------------------------------------------------ ASSIGN -- *)

let assignment () =
  section "ASSIGN: Section 7 — consensus from atomic multiple assignment";
  let inputs2 = [| 1; 0 |] in
  let r =
    Consensus.Driver.run Consensus.Assignment_protocol.two_process ~inputs:inputs2
      ~sched:(Model.Sched.random_then_sequential ~seed:1 ~prefix:10)
  in
  Consensus.Driver.check_exn r ~inputs:inputs2;
  Printf.printf
    "2-register assignment (wait-free, 2 procs): decided %d, %d locations, max %d \
     steps/process\n"
    (snd (List.hd r.decisions))
    r.locations_used
    (Array.fold_left max 0 r.steps_per_process);
  List.iter
    (fun n ->
      let inputs = Array.init n (fun i -> (i * 3) mod n) in
      let r =
        Consensus.Driver.run Consensus.Assignment_protocol.earliest_writer ~inputs
          ~sched:(Model.Sched.random_then_sequential ~seed:n ~prefix:100)
      in
      Consensus.Driver.check_exn r ~inputs;
      Printf.printf
        "earliest-writer assignment n=%-2d: decided %d, %d locations (n + C(n,2) = %d)\n" n
        (snd (List.hd r.decisions))
        r.locations_used
        (n + (n * (n - 1) / 2)))
    [ 2; 3; 5; 8 ]

(* ------------------------------------------------------------- SYNTH -- *)

let synth () =
  section "SYNTH: bounded protocol synthesis on one-location machines";
  Printf.printf
    "(2-process binary consensus; exhaustive over protocol trees of the given depth)\n";
  let show (m : _ Synth.machine) depth =
    match Synth.search m ~depth with
    | Synth.Found p ->
      assert (Synth.check m p);
      Printf.printf "%-42s depth %d: FOUND a wait-free protocol\n" m.name depth;
      Format.printf "    p0/input0: @[%a@]@." (Synth.pp_tree ~ops:m.ops) p.t00;
      Format.printf "    p1/input1: @[%a@]@." (Synth.pp_tree ~ops:m.ops) p.t11
    | Synth.Impossible_within_depth ->
      Printf.printf "%-42s depth %d: impossible within depth\n" m.name depth
  in
  show Synth.cas_cell 1;
  show Synth.swap_cell 1;
  show Synth.tas_bit 2;
  show Synth.tas_bit 3;
  show Synth.rw01_bit 2;
  print_endline
    "  (the single-bit impossibilities quantify Section 9's two-process remark: one\n\
    \   tas bit elects a leader, but holds no room for the winning value)";
  print_endline "\n  three processes (consensus numbers, experimentally):";
  let show3 (m : _ Synth.machine) mode depth =
    match Synth.search3 ~mode m ~depth with
    | Synth.Found3 trees ->
      assert (Synth.check3 m trees);
      Printf.printf "  %-40s depth %d (%s): 3-process protocol FOUND\n" m.name depth
        (match mode with `Full -> "full" | `Symmetric -> "symmetric")
    | Synth.Impossible3_within_depth ->
      Printf.printf "  %-40s depth %d (%s): impossible within depth\n" m.name depth
        (match mode with `Full -> "full" | `Symmetric -> "symmetric")
  in
  show3 Synth.cas_cell `Full 1;
  show3 Synth.swap_cell `Full 1;
  show3 Synth.tas_bit `Full 3;
  print_endline
    "  (cas solves 3 processes with one location; swap — consensus number 2 in\n\
    \   Herlihy's hierarchy — does not: the two hierarchies meet here)"

(* -------------------------------------------------------------- STEPC -- *)

let step_complexity () =
  section "STEPC: per-process step complexity (conclusions' next axis)";
  Printf.printf "%-24s %s\n" "protocol"
    "max steps by any process, adversarial run, n = 2 / 4 / 8";
  List.iter
    (fun (name, proto) ->
      let cells =
        List.map
          (fun n ->
            let inputs = Array.init n (fun i -> i mod n) in
            let r =
              Consensus.Driver.run ~fuel:50_000_000 proto ~inputs
                ~sched:(Model.Sched.random_then_sequential ~seed:7 ~prefix:200)
            in
            Consensus.Driver.check_exn r ~inputs;
            Printf.sprintf "%6d" (Array.fold_left max 0 r.steps_per_process))
          [ 2; 4; 8 ]
      in
      Printf.printf "%-24s %s\n" name (String.concat " " cells))
    [
      ("cas", Consensus.Cas_protocol.protocol);
      ("arith-add", Consensus.Arith_protocols.add);
      ("max-registers", Consensus.Maxreg_protocol.protocol);
      ("swap-read", Consensus.Swap_protocol.protocol);
      ("rw-registers", Consensus.Rw_protocol.protocol);
      ("buffers-2", Consensus.Buffers_protocol.protocol ~capacity:2);
      ( "increment-logn",
        Consensus.Increment_protocol.protocol ~flavour:Isets.Incr.Increment_only );
      ("earliest-writer", Consensus.Assignment_protocol.earliest_writer);
    ]

(* --------------------------------------------------------------- CONJ -- *)

(* Section 10 conjectures SP({read, write, increment}) ∈ Θ(log n); the
   upper curve is ours to measure. *)
let conjecture_curve () =
  section "CONJ: Section 10 — the Θ(log n) conjecture's upper curve";
  Printf.printf "%-6s %-14s %-14s\n" "n" "locations" "4*ceil(lg n)-2";
  List.iter
    (fun n ->
      let (module P : Consensus.Proto.S) =
        Consensus.Increment_protocol.protocol ~flavour:Isets.Incr.Increment_only
      in
      let inputs = Array.init n (fun i -> i) in
      let r =
        Consensus.Driver.run ~fuel:50_000_000
          (Consensus.Increment_protocol.protocol ~flavour:Isets.Incr.Increment_only)
          ~inputs
          ~sched:(Model.Sched.random_then_sequential ~seed:n ~prefix:100)
      in
      Consensus.Driver.check_exn r ~inputs;
      Printf.printf "%-6d %-14d %-14s\n" n r.locations_used
        (match P.locations ~n with Some a -> string_of_int a | None -> "-"))
    [ 2; 4; 8; 16; 32; 64 ];
  print_endline
    "  (the paper conjectures a matching Omega(log n) lower bound; only 2 is proven)"

(* --------------------------------------------------------------- RAND -- *)

let randomized () =
  section "RAND: purely random schedules (the [GHHW13] connection)";
  Printf.printf
    "obstruction-free protocols terminate with probability 1 under a random\n\
     (oblivious) scheduler; steps until all of n = 4 decide, 10 seeds:\n";
  List.iter
    (fun (name, proto) ->
      let steps =
        List.map
          (fun seed ->
            let inputs = [| 0; 1; 2; 3 |] in
            let r =
              Consensus.Driver.run ~fuel:50_000_000 proto ~inputs
                ~sched:(Model.Sched.random ~seed)
            in
            Consensus.Driver.check_exn r ~inputs;
            assert (r.outcome = `All_decided);
            r.steps)
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
      in
      let total = List.fold_left ( + ) 0 steps in
      Printf.printf "%-24s min %6d   avg %6d   max %6d\n" name
        (List.fold_left min max_int steps)
        (total / List.length steps)
        (List.fold_left max 0 steps))
    [
      ("arith-add", Consensus.Arith_protocols.add);
      ("max-registers", Consensus.Maxreg_protocol.protocol);
      ("swap-read", Consensus.Swap_protocol.protocol);
      ("rw-registers", Consensus.Rw_protocol.protocol);
      ("buffers-2", Consensus.Buffers_protocol.protocol ~capacity:2);
    ]

(* ---------------------------------------------------------------- MC -- *)

(* Model-checking engines head-to-head: the naive full-tree walk vs the
   fingerprint-memoized walk, over depth × n for a few representative
   protocols.  Memo visits fewer configurations by design, so the honest
   work-rate comparison is the *effective* rate: naive's configuration
   count divided by each engine's wall-clock (the speedup column is
   exactly the elapsed-time ratio).  Results go to
   BENCH_modelcheck.json as {!Campaign.Record} lists — the same schema the
   campaign store persists, so bench and campaign outputs share tooling. *)

let status_of_witness (w : Explore.witness) =
  Campaign.Record.Violation
    {
      kind = Explore.kind_name w.Explore.kind;
      message = w.Explore.message;
      schedule = w.Explore.schedule;
      probe = w.Explore.probe;
    }

let bench_record ?(crashes = 0) ~kind ~row ~proto ~inputs ~params ~n ~depth ~engine
    ~reduce ~status ~(stats : Explore.stats) ~extra () =
  Campaign.Record.make
    ~task:(Campaign.Task.digest proto ~inputs ~params)
    ~kind ~row
    ~protocol:(Consensus.Proto.name proto)
    ~n ~depth ~engine ~reduce ~crashes ~status ~configs:stats.Explore.configs
    ~probes:stats.Explore.probes ~dedup_hits:stats.Explore.dedup_hits
    ~sleep_pruned:stats.Explore.sleep_pruned ~truncated:stats.Explore.truncated
    ~elapsed:stats.Explore.elapsed ~extra ()

let write_json file json =
  let oc = open_out file in
  output_string oc (Campaign.Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let mc ?(smoke = false) () =
  section "MC: model-checking engines — naive vs memoized";
  let protos =
    [
      ("rw", Consensus.Rw_protocol.protocol);
      ("maxreg", Consensus.Maxreg_protocol.protocol);
      ("swap", Consensus.Swap_protocol.protocol);
      ("arith-add", Consensus.Arith_protocols.add);
    ]
  in
  let sweeps = if smoke then [ (2, 6) ] else [ (2, 10); (3, 8) ] in
  let engines = [ ("naive", `Naive); ("memo", `Memo) ] in
  (* Timing rows are best-of-[reps]: one core, noisy neighbours — counters
     are identical across repetitions, only the wall clock varies, and the
     minimum is the closest to the engine's true cost.  Rows that finish in
     a couple of milliseconds are repeated until ~100ms of total wall clock
     has accumulated (capped), otherwise a single scheduling hiccup can
     swing the row by 25%. *)
  let reps = if smoke then 2 else 3 in
  let max_reps = if smoke then 8 else 64 in
  let min_total = 0.1 in
  let records = ref [] in
  Printf.printf "%-10s %-3s %-5s %-11s %10s %8s %10s %10s %12s %8s  %s\n" "protocol" "n"
    "depth" "engine" "configs" "dedup" "elapsed_s" "cfg/s" "eff_cfg/s" "speedup"
    "verdict";
  List.iter
    (fun (n, depth) ->
      List.iter
        (fun (pname, proto) ->
          let inputs = Array.init n (fun i -> i) in
          let naive_elapsed = ref 0.0 and naive_configs = ref 0 in
          List.iter
            (fun (ename, engine) ->
              let record ~status ~stats ~extra =
                records :=
                  bench_record ~kind:"bench-mc" ~row:pname ~proto ~inputs
                    ~params:(Printf.sprintf "bench-mc/%s/%d/%d" ename n depth)
                    ~n ~depth ~engine:ename ~reduce:"none" ~status ~stats ~extra ()
                  :: !records
              in
              let rec measure i total best =
                match Explore.run ~probe:`Leaves ~engine proto ~inputs ~depth with
                | Explore.Completed s ->
                  let total = total +. s.Explore.elapsed in
                  let best =
                    match best with
                    | Some b when b.Explore.elapsed <= s.Explore.elapsed -> b
                    | _ -> s
                  in
                  if (i + 1 >= reps && total >= min_total) || i + 1 >= max_reps
                  then Explore.Completed best
                  else measure (i + 1) total (Some best)
                | other -> other
              in
              match measure 0 0.0 None with
              | Explore.Completed s ->
                if engine = `Naive then begin
                  naive_elapsed := s.Explore.elapsed;
                  naive_configs := s.Explore.configs
                end;
                let elapsed = Float.max s.Explore.elapsed 1e-6 in
                let rate = float_of_int s.Explore.configs /. elapsed in
                let eff_rate = float_of_int !naive_configs /. elapsed in
                let speedup = Float.max !naive_elapsed 1e-6 /. elapsed in
                Printf.printf
                  "%-10s %-3d %-5d %-11s %10d %8d %10.4f %10.0f %12.0f %7.1fx  ok\n"
                  pname n depth ename s.Explore.configs s.Explore.dedup_hits
                  s.Explore.elapsed rate eff_rate speedup;
                let extra =
                  [
                    ("configs_per_sec", Campaign.Json.Float rate);
                    ("effective_configs_per_sec", Campaign.Json.Float eff_rate);
                    ("speedup_vs_naive", Campaign.Json.Float speedup);
                  ]
                in
                record ~status:Campaign.Record.Verified ~stats:s ~extra
              | Explore.Timed_out t ->
                Printf.printf "%-10s %-3d %-5d %-11s timed out after %d configurations\n"
                  pname n depth ename t.Explore.partial.Explore.configs;
                record ~status:Campaign.Record.Timeout ~stats:t.Explore.partial ~extra:[]
              | Explore.Falsified f ->
                Printf.printf "%-10s %-3d %-5d %-11s VIOLATION %s\n" pname n depth ename
                  (Explore.failure_message f);
                record ~status:(status_of_witness f.Explore.witness)
                  ~stats:f.Explore.stats ~extra:[])
            engines)
        protos)
    sweeps;
  let budget = if smoke then 0.2 else 1.0 in
  Printf.printf
    "\niterative deepening (memo engine, %.1f s budget per protocol, n=2):\n" budget;
  Printf.printf "%-10s %-13s %-9s %14s %10s\n" "protocol" "depth_reached" "complete"
    "total_configs" "elapsed_s";
  let deepen_records = ref [] in
  List.iter
    (fun (pname, proto) ->
      let inputs = [| 0; 1 |] in
      let record ~status ~depth ~configs ~elapsed ~extra =
        deepen_records :=
          Campaign.Record.make
            ~task:
              (Campaign.Task.digest proto ~inputs
                 ~params:(Printf.sprintf "bench-deepen/%.2f" budget))
            ~kind:"bench-deepen" ~row:pname
            ~protocol:(Consensus.Proto.name proto)
            ~n:2 ~depth ~engine:"memo" ~reduce:"none" ~status ~configs ~elapsed
            ~extra:(("budget", Campaign.Json.Float budget) :: extra)
            ()
          :: !deepen_records
      in
      match Explore.deepen ~engine:`Memo ~budget proto ~inputs ~max_depth:30 with
      | Explore.Completed r ->
        Printf.printf "%-10s %-13d %-9b %14d %10.4f\n" pname r.Explore.depth_reached
          r.Explore.complete r.Explore.total_configs r.Explore.total_elapsed;
        record ~status:Campaign.Record.Verified ~depth:r.Explore.depth_reached
          ~configs:r.Explore.total_configs ~elapsed:r.Explore.total_elapsed
          ~extra:[ ("complete", Campaign.Json.Bool r.Explore.complete) ]
      | Explore.Timed_out t ->
        Printf.printf "%-10s timed out before completing depth 1\n" pname;
        record ~status:Campaign.Record.Timeout ~depth:1
          ~configs:t.Explore.partial.Explore.configs
          ~elapsed:t.Explore.partial.Explore.elapsed ~extra:[]
      | Explore.Falsified f ->
        Printf.printf "%-10s VIOLATION %s\n" pname (Explore.failure_message f);
        record
          ~status:(status_of_witness f.Explore.witness)
          ~depth:1 ~configs:f.Explore.stats.Explore.configs
          ~elapsed:f.Explore.stats.Explore.elapsed ~extra:[])
    protos;
  write_json "BENCH_modelcheck.json"
    (Campaign.Json.Obj
       [
         ("cores", Campaign.Json.Int (Domain.recommended_domain_count ()));
         ("smoke", Campaign.Json.Bool smoke);
         ( "rows",
           Campaign.Json.List (List.rev_map Campaign.Record.to_json !records) );
         ( "deepen",
           Campaign.Json.List (List.rev_map Campaign.Record.to_json !deepen_records) );
       ])

(* --------------------------------------------------------------- OBS -- *)

(* Observer overhead: the same memoized exploration under the default
   property set (what an empty observer list checks) and with every built-in
   attached.  The headline metric is the wall-clock ratio of the [all] run
   against the [default] one: the cost of monitoring more than the paper's
   correctness notion.  [all] also visits more configurations, because the
   lockout and max-register digests refine the state space. *)
let obs ?(smoke = false) () =
  section "OBS: observer overhead — memo engine, default vs all monitors";
  let protos =
    [
      ("rw", Consensus.Rw_protocol.protocol);
      ("maxreg", Consensus.Maxreg_protocol.protocol);
      ("swap", Consensus.Swap_protocol.protocol);
    ]
  in
  let sweeps = if smoke then [ (2, 6) ] else [ (2, 10); (3, 8) ] in
  let all_observers =
    List.filter_map
      (fun (name, _doc) ->
        match Observer.of_name name with Ok o -> Some o | Error _ -> None)
      Observer.known
  in
  let sets = [ ("default", Observer.defaults); ("all", all_observers) ] in
  Printf.printf "%-10s %-3s %-5s %-9s %10s %10s %9s  %s\n" "protocol" "n" "depth"
    "observers" "configs" "elapsed_s" "overhead" "verdict";
  List.iter
    (fun (n, depth) ->
      List.iter
        (fun (pname, proto) ->
          let inputs = Array.init n (fun i -> i) in
          let base_elapsed = ref 0.0 in
          List.iter
            (fun (sname, observers) ->
              let reps = if smoke then 2 else 5 in
              let best = ref Float.infinity and configs = ref 0 and ok = ref true in
              for _ = 1 to reps do
                match
                  Explore.run ~probe:`Leaves ~engine:`Memo ~observers proto
                    ~inputs ~depth
                with
                | Explore.Completed s ->
                  best := Float.min !best s.Explore.elapsed;
                  configs := s.Explore.configs
                | _ -> ok := false
              done;
              if !ok then begin
                if sname = "default" then base_elapsed := !best;
                let overhead = !best /. Float.max !base_elapsed 1e-9 in
                Printf.printf "%-10s %-3d %-5d %-9s %10d %10.4f %8.2fx  ok\n" pname
                  n depth sname !configs !best overhead
              end
              else
                Printf.printf "%-10s %-3d %-5d %-9s %10s %10s %9s  NOT VERIFIED\n"
                  pname n depth sname "-" "-" "-")
            sets)
        protos)
    sweeps

(* --------------------------------------------------------------- RED -- *)

(* The reduction layer vs the plain memoized engine: commutativity sleep
   sets prune redundant interleavings of independent steps, and process
   symmetry (sound for these pid-symmetric protocols) quotients the
   transposition table by permutations of equal-input processes.  The
   headline metric is the configuration-count ratio of plain [`Memo] to
   [`Memo]+full reduction; verdicts are cross-checked against [`Naive] on
   every row.  Results also go to BENCH_reduce.json. *)
let red ?(smoke = false) () =
  section "RED: state-space reduction — commutativity sleep sets + process symmetry";
  (* every protocol here is pid-symmetric: its code never branches on the
     process id except through the input, so `symmetric is sound *)
  let protos =
    [
      ("maxreg", Consensus.Maxreg_protocol.protocol);
      ("arith-add", Consensus.Arith_protocols.add);
      ("cas", Consensus.Cas_protocol.protocol);
      ("tug-of-war", Consensus.Tugofwar_protocol.protocol);
    ]
  in
  let protos = if smoke then [ List.hd protos; List.nth protos 1 ] else protos in
  let n = 3 in
  let depth = if smoke then 6 else 8 in
  (* duplicate inputs are where symmetry bites: with all-distinct inputs no
     two processes are interchangeable and `symmetric degenerates to plain
     fingerprinting *)
  let input_sets = [ ("unanimous", Array.make n 1); ("mixed", [| 0; 1; 1 |]) ] in
  let reductions =
    [
      ("none", Explore.no_reduction);
      ("commute", { Explore.commute = true; symmetric = false });
      ("symmetric", { Explore.commute = false; symmetric = true });
      ("full", Explore.full_reduction);
    ]
  in
  let verdict_kind = function
    | Explore.Completed _ -> "ok"
    | Explore.Timed_out _ -> "timeout"
    | Explore.Falsified (f : Explore.failure) ->
      Explore.kind_name f.Explore.witness.Explore.kind
  in
  let stats_of = function
    | Explore.Completed s -> s
    | Explore.Timed_out t -> t.Explore.partial
    | Explore.Falsified f -> f.Explore.stats
  in
  let status_of = function
    | Explore.Completed _ -> Campaign.Record.Verified
    | Explore.Timed_out _ -> Campaign.Record.Timeout
    | Explore.Falsified f -> status_of_witness f.Explore.witness
  in
  let records = ref [] in
  let target_hits = ref 0 in
  Printf.printf "%-11s %-9s %-10s %10s %8s %12s %10s %7s  %s\n" "protocol" "inputs"
    "reduce" "configs" "dedup" "sleep_pruned" "elapsed_s" "ratio" "verdict";
  List.iter
    (fun (pname, proto) ->
      List.iter
        (fun (iname, inputs) ->
          let naive_verdict =
            verdict_kind (Explore.run ~probe:`Leaves ~engine:`Naive proto ~inputs ~depth)
          in
          let base_configs = ref 0 in
          List.iter
            (fun (rname, reduce) ->
              let out = Explore.run ~probe:`Leaves ~engine:`Memo ~reduce proto ~inputs ~depth in
              let v = verdict_kind out in
              let agree = v = naive_verdict in
              let s = stats_of out in
              if rname = "none" then base_configs := s.Explore.configs;
              let ratio = float_of_int !base_configs /. float_of_int (max 1 s.Explore.configs) in
              if rname = "full" && iname = "unanimous" && ratio >= 3.0 then incr target_hits;
              Printf.printf "%-11s %-9s %-10s %10d %8d %12d %10.4f %6.2fx  %s%s\n" pname
                iname rname s.Explore.configs s.Explore.dedup_hits s.Explore.sleep_pruned
                s.Explore.elapsed ratio v
                (if agree then "" else "  [DISAGREES WITH NAIVE: " ^ naive_verdict ^ "]");
              records :=
                bench_record ~kind:"bench-reduce" ~row:pname ~proto ~inputs
                  ~params:(Printf.sprintf "bench-reduce/%s/%s/%d/%d" iname rname n depth)
                  ~n ~depth ~engine:"memo" ~reduce:rname ~status:(status_of out) ~stats:s
                  ~extra:
                    [
                      ("inputs", Campaign.Json.String iname);
                      ("ratio_vs_plain_memo", Campaign.Json.Float ratio);
                      ("agrees_with_naive", Campaign.Json.Bool agree);
                    ]
                  ()
                :: !records)
            reductions)
        input_sets)
    protos;
  Printf.printf
    "\n%d protocol(s) with >= 3x fewer configurations under full reduction (unanimous \
     inputs)\n"
    !target_hits;
  write_json "BENCH_reduce.json"
    (Campaign.Json.Obj
       [
         ("n", Campaign.Json.Int n);
         ("depth", Campaign.Json.Int depth);
         ("smoke", Campaign.Json.Bool smoke);
         ("rows", Campaign.Json.List (List.rev_map Campaign.Record.to_json !records));
         ("protocols_with_3x_reduction_unanimous", Campaign.Json.Int !target_hits);
       ])

(* --------------------------------------------------------------- WIT -- *)

(* Counterexample witnesses: run each engine against the lower-bound victim
   protocols (known-broken by Theorems 4.1/5.1), and report the witness each
   engine finds, how far shrinking got, and whether the shrunk schedule
   replays to the same violation. *)
let witnesses () =
  section "WIT: counterexample witnesses — capture, shrink, replay";
  let victims =
    [
      ( "naive-maxreg",
        (let (module V) = Lowerbound.Victims.naive_maxreg in
         ((module V) : Consensus.Proto.t)),
        6 );
      ( "naive-fai",
        (let (module V) = Lowerbound.Victims.naive_fai in
         ((module V) : Consensus.Proto.t)),
        8 );
    ]
  in
  let engines = [ ("naive", `Naive); ("memo", `Memo) ] in
  Printf.printf "%-14s %-11s %-20s %8s %8s %9s %8s\n" "victim" "engine" "kind" "found"
    "shrunk" "attempts" "replays";
  List.iter
    (fun (vname, proto, depth) ->
      List.iter
        (fun (ename, engine) ->
          match Explore.run ~probe:`Everywhere ~engine proto ~inputs:[| 0; 1 |] ~depth with
          | Explore.Completed s ->
            Printf.printf "%-14s %-11s no violation in %d configurations?!\n" vname ename
              s.Explore.configs
          | Explore.Timed_out t ->
            Printf.printf "%-14s %-11s timed out after %d configurations?!\n" vname ename
              t.Explore.partial.Explore.configs
          | Explore.Falsified f ->
            let w = f.Explore.witness in
            let replays =
              match Explore.replay proto ~inputs:[| 0; 1 |] w with
              | Ok r ->
                (match r.Explore.violation with
                 | Some (k, _) -> k = w.Explore.kind
                 | None -> false)
              | Error _ -> false
            in
            Printf.printf "%-14s %-11s %-20s %8d %8d %9d %8b\n" vname ename
              (Explore.kind_name w.Explore.kind)
              (List.length f.Explore.original.Explore.schedule)
              (List.length w.Explore.schedule)
              f.Explore.shrink_attempts replays;
            Printf.printf "    %s\n"
              (Format.asprintf "%a" Explore.pp_witness w))
        engines)
    victims

(* ------------------------------------------------------------- CRASH -- *)

(* The crash–recovery subsystem (Golab, arXiv 1804.10597) on its registry
   rows: exhaustive crash-point enumeration must falsify the
   non-recoverable TAS protocol under any positive budget — with a
   crash-bearing, replayable witness — and certify the CAS protocol on
   every engine.  Then the crash-free identity check: a [~crashes:0]
   exploration of the ordinary MC grid must produce statistics
   bit-identical to a run without the argument, and config counts equal to
   the committed BENCH_modelcheck.json baselines (asserted by
   `perf_gate --crash`).  The identity sweep always uses the committed
   baseline's full (n, depth) grid — memo-only, so it is cheap even under
   --smoke.  Results go to BENCH_crash.json. *)
let crash_bench ~smoke () =
  section "CRASH: crash-recovery — crash-point enumeration + crash-free identity";
  let rc_rows =
    List.filter
      (fun (r : Hierarchy.row) ->
        String.length r.id >= 3 && String.sub r.id 0 3 = "rc-")
      (Hierarchy.rows ~recovery:true ())
  in
  let engines = [ ("naive", `Naive); ("memo", `Memo) ] in
  let budgets_of ename = if smoke || ename <> "memo" then [ 0; 1 ] else [ 0; 1; 2 ] in
  let depth_of id = if id = "rc-cas" then 14 else 10 in
  let n = 2 in
  let records = ref [] in
  let unexpected = ref 0 in
  Printf.printf "%-14s %-11s %-7s %10s %8s %10s %8s  %s\n" "row" "engine" "crashes"
    "configs" "dedup" "elapsed_s" "replays" "verdict";
  List.iter
    (fun (row : Hierarchy.row) ->
      let proto = row.protocol in
      let inputs = Array.init n (fun i -> i) in
      let depth = depth_of row.id in
      List.iter
        (fun (ename, engine) ->
          List.iter
            (fun crashes ->
              let expect =
                (* budget 0 completes everywhere; under crashes only the
                   recoverable row survives — Golab's TAS/CAS separation *)
                if crashes = 0 || row.id = "rc-cas" then "ok" else "agreement"
              in
              let record ~status ~stats ~extra =
                records :=
                  bench_record ~crashes ~kind:"bench-crash" ~row:row.id ~proto ~inputs
                    ~params:(Printf.sprintf "bench-crash/%s/%d/%d/%d" ename n depth crashes)
                    ~n ~depth ~engine:ename ~reduce:"none" ~status ~stats ~extra ()
                  :: !records
              in
              let line verdict replays (s : Explore.stats) =
                if verdict <> expect then incr unexpected;
                Printf.printf "%-14s %-11s %-7d %10d %8d %10.4f %8s  %s%s\n" row.id
                  ename crashes s.Explore.configs s.Explore.dedup_hits s.Explore.elapsed
                  replays verdict
                  (if verdict = expect then "" else "  [EXPECTED " ^ expect ^ "]")
              in
              match Explore.run ~probe:`Leaves ~engine ~crashes proto ~inputs ~depth with
              | Explore.Completed s ->
                line "ok" "-" s;
                record ~status:Campaign.Record.Verified ~stats:s
                  ~extra:[ ("expected", Campaign.Json.String expect) ]
              | Explore.Timed_out t ->
                line "timeout" "-" t.Explore.partial;
                record ~status:Campaign.Record.Timeout ~stats:t.Explore.partial ~extra:[]
              | Explore.Falsified f ->
                let w = f.Explore.witness in
                let crash_events =
                  List.length (List.filter Explore.is_crash w.Explore.schedule)
                in
                let replays =
                  match Explore.replay proto ~inputs w with
                  | Ok r ->
                    (match r.Explore.violation with
                     | Some (k, _) -> k = w.Explore.kind
                     | None -> false)
                  | Error _ -> false
                in
                line (Explore.kind_name w.Explore.kind) (string_of_bool replays)
                  f.Explore.stats;
                record ~status:(status_of_witness w) ~stats:f.Explore.stats
                  ~extra:
                    [
                      ("expected", Campaign.Json.String expect);
                      ("crash_events_in_witness", Campaign.Json.Int crash_events);
                      ( "schedule_found",
                        Campaign.Json.Int (List.length f.Explore.original.Explore.schedule) );
                      ( "schedule_shrunk",
                        Campaign.Json.Int (List.length w.Explore.schedule) );
                      ("replays", Campaign.Json.Bool replays);
                    ])
            (budgets_of ename))
        engines)
    rc_rows;
  (* crash-free identity over the ordinary MC grid: [~crashes:0] must not
     perturb a single counter — the zero-budget lane is dead code by
     construction, and this is the observable form of "fingerprints and
     transposition keys are unchanged" the acceptance bar asks for *)
  let protos =
    [
      ("rw", Consensus.Rw_protocol.protocol);
      ("maxreg", Consensus.Maxreg_protocol.protocol);
      ("swap", Consensus.Swap_protocol.protocol);
      ("arith-add", Consensus.Arith_protocols.add);
    ]
  in
  let free_records = ref [] in
  Printf.printf "\ncrash-free identity (memo, committed baseline grid):\n";
  Printf.printf "%-10s %-3s %-5s %10s %10s  %s\n" "protocol" "n" "depth" "configs"
    "baseline" "identical to run without --crashes";
  List.iter
    (fun (n, depth) ->
      List.iter
        (fun (pname, proto) ->
          let inputs = Array.init n (fun i -> i) in
          let stats_of = function
            | Explore.Completed s -> s
            | Explore.Timed_out t -> t.Explore.partial
            | Explore.Falsified (f : Explore.failure) -> f.Explore.stats
          in
          let counters (s : Explore.stats) =
            (s.Explore.configs, s.Explore.probes, s.Explore.dedup_hits,
             s.Explore.sleep_pruned, s.Explore.truncated)
          in
          let plain =
            stats_of (Explore.run ~probe:`Leaves ~engine:`Memo proto ~inputs ~depth)
          in
          let zero =
            stats_of
              (Explore.run ~probe:`Leaves ~engine:`Memo ~crashes:0 proto ~inputs ~depth)
          in
          let identical = counters plain = counters zero in
          if not identical then incr unexpected;
          Printf.printf "%-10s %-3d %-5d %10d %10s  %s\n" pname n depth
            zero.Explore.configs "(gate)"
            (if identical then "yes" else "NO — CRASH SUBSYSTEM PERTURBED THE ENGINE");
          free_records :=
            bench_record ~kind:"bench-crash-free" ~row:pname ~proto ~inputs
              ~params:(Printf.sprintf "bench-crash-free/%d/%d" n depth)
              ~n ~depth ~engine:"memo" ~reduce:"none" ~status:Campaign.Record.Verified
              ~stats:zero
              ~extra:[ ("identical_without_crash_arg", Campaign.Json.Bool identical) ]
              ()
            :: !free_records)
        protos)
    [ (2, 10); (3, 8) ];
  Printf.printf "\n%d unexpected verdict(s)\n" !unexpected;
  write_json "BENCH_crash.json"
    (Campaign.Json.Obj
       [
         ("smoke", Campaign.Json.Bool smoke);
         ("n", Campaign.Json.Int n);
         ("unexpected", Campaign.Json.Int !unexpected);
         ("rows", Campaign.Json.List (List.rev_map Campaign.Record.to_json !records));
         ( "crash_free",
           Campaign.Json.List (List.rev_map Campaign.Record.to_json !free_records) );
       ])

(* -------------------------------------------------------------- CAMP -- *)

(* The campaign runner itself: a cold smoke campaign into a fresh store,
   then the same campaign again — the warm run must execute nothing and
   cost (almost) nothing, which is the resume path's whole point.  Results
   go to BENCH_campaign.json. *)
let campaign_bench ~smoke () =
  section "CAMP: campaign runner — cold run vs resumed warm run";
  let spec =
    if smoke then Campaign.Spec.smoke
    else { Campaign.Spec.default with Campaign.Spec.ns = [ 2 ] }
  in
  match Campaign.Spec.tasks spec with
  | Error e -> Printf.printf "spec error: %s\n" e
  | Ok tasks ->
    let dir = Filename.temp_file "bench_campaign" "" in
    Sys.remove dir;
    let run label =
      let store = Campaign.Store.open_ ~dir () in
      let o = Campaign.Executor.run ~store tasks in
      Printf.printf "%-5s %3d task(s): %3d executed, %3d cached, %.3f s\n" label
        o.Campaign.Executor.total o.Campaign.Executor.executed
        o.Campaign.Executor.cached o.Campaign.Executor.elapsed;
      o
    in
    let cold = run "cold" in
    let warm = run "warm" in
    let report = Campaign.Report.make warm.Campaign.Executor.records in
    let unexpected = List.length (Campaign.Report.unexpected report) in
    Printf.printf "unexpected (non-verified) verdicts: %d\n" unexpected;
    (* the shared-store (claim-per-task) path: same spec into a fresh dir,
       then warm again — measures the lease protocol's overhead relative to
       the plain executor and re-checks the dedupe invariant *)
    let shared_dir = Filename.temp_file "bench_campaign_shared" "" in
    Sys.remove shared_dir;
    let run_shared label =
      let store = Campaign.Store.open_ ~dir:shared_dir () in
      let o = Campaign.Executor.run_shared ~store tasks in
      Printf.printf "%-11s %3d task(s): %3d executed, %3d cached, %.3f s\n" label
        o.Campaign.Executor.total o.Campaign.Executor.executed
        o.Campaign.Executor.cached o.Campaign.Executor.elapsed;
      o
    in
    let shared_cold = run_shared "shared-cold" in
    let shared_warm = run_shared "shared-warm" in
    Printf.printf "claim-protocol overhead vs plain cold run: %+.3f s\n"
      (shared_cold.Campaign.Executor.elapsed -. cold.Campaign.Executor.elapsed);
    write_json "BENCH_campaign.json"
      (Campaign.Json.Obj
         [
           ("smoke", Campaign.Json.Bool smoke);
           ("tasks", Campaign.Json.Int cold.Campaign.Executor.total);
           ("cold_executed", Campaign.Json.Int cold.Campaign.Executor.executed);
           ("cold_elapsed", Campaign.Json.Float cold.Campaign.Executor.elapsed);
           ("warm_executed", Campaign.Json.Int warm.Campaign.Executor.executed);
           ("warm_cached", Campaign.Json.Int warm.Campaign.Executor.cached);
           ("warm_elapsed", Campaign.Json.Float warm.Campaign.Executor.elapsed);
           ( "shared_cold_executed",
             Campaign.Json.Int shared_cold.Campaign.Executor.executed );
           ( "shared_cold_elapsed",
             Campaign.Json.Float shared_cold.Campaign.Executor.elapsed );
           ( "shared_warm_executed",
             Campaign.Json.Int shared_warm.Campaign.Executor.executed );
           ( "shared_warm_cached",
             Campaign.Json.Int shared_warm.Campaign.Executor.cached );
           ( "shared_warm_elapsed",
             Campaign.Json.Float shared_warm.Campaign.Executor.elapsed );
           ("unexpected", Campaign.Json.Int unexpected);
           ( "records",
             Campaign.Json.List
               (List.map Campaign.Record.to_json warm.Campaign.Executor.records) );
         ])

(* -------------------------------------------------------------- LINT -- *)

(* The static-analysis passes: per-row symmetry certification timing (and the
   effect of the run cache), certificate warm-up through the campaign store's
   certs/ side-table (cold compute+persist vs preload from disk), then the
   full-registry lint with its findings summary — the same pass CI runs via
   `space_hierarchy lint --strict`.  Results go to BENCH_lint.json. *)
let lint_bench ~smoke () =
  section "LINT: protocol & iset linter (certify / contracts / space claims)";
  let ns = if smoke then [ 2 ] else [ 2; 3 ] in
  let rows = Hierarchy.rows () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  Printf.printf "%-22s %-44s %10s %10s\n" "row" "symmetry verdict (n=2)" "cold ms"
    "cached ms";
  let certify_rows =
    List.map
      (fun (row : Hierarchy.row) ->
        Analysis.Symmetry.reset_run_cache ();
        let inputs = [| 0; 0 |] in
        let verdict, cold =
          time (fun () -> Analysis.Symmetry.certify_for_run row.protocol ~inputs)
        in
        let _, cached =
          time (fun () -> Analysis.Symmetry.certify_for_run row.protocol ~inputs)
        in
        let verdict_str = Format.asprintf "%a" Analysis.Symmetry.pp_verdict verdict in
        Printf.printf "%-22s %-44s %10.2f %10.3f\n" row.id verdict_str
          (cold *. 1e3) (cached *. 1e3);
        Campaign.Json.Obj
          [
            ("row", Campaign.Json.String row.id);
            ("verdict", Campaign.Json.String verdict_str);
            ("cold_s", Campaign.Json.Float cold);
            ("cached_s", Campaign.Json.Float cached);
          ])
      rows
  in
  (* Certificate store: cold precertification computes every verdict and
     persists it under certs/; a second pass with an emptied in-process
     cache must read every verdict back instead of recomputing — the cost a
     fleet member pays when another member certified first. *)
  let store_dir = Filename.temp_file "bench_lint_store" "" in
  Sys.remove store_dir;
  let store = Campaign.Store.open_ ~dir:store_dir () in
  let sym = { Explore.commute = false; symmetric = true } in
  (* n = 3: binary-only rows then have an equal-input pid pair, so their
     certification is the real lockstep/CFG work, not the vacuous
     all-distinct-inputs certificate *)
  let sym_tasks =
    List.map
      (fun row -> Campaign.Task.check ~engine:`Memo ~reduce:sym ~depth:4 row ~n:3)
      rows
  in
  Analysis.Symmetry.reset_run_cache ();
  let (), store_cold =
    time (fun () -> Campaign.Executor.precertify ~store sym_tasks)
  in
  Analysis.Symmetry.reset_run_cache ();
  let computed_before = Atomic.get Analysis.Symmetry.computed_count in
  let (), store_preload =
    time (fun () -> Campaign.Executor.precertify ~store sym_tasks)
  in
  let recomputed = Atomic.get Analysis.Symmetry.computed_count - computed_before in
  Printf.printf
    "\ncertificate store (%d rows): cold certify+persist %.2f ms, preload %.2f ms \
     (%d recomputed)\n"
    (List.length rows) (store_cold *. 1e3) (store_preload *. 1e3) recomputed;
  let t0 = Unix.gettimeofday () in
  let findings = Analysis.Lint.run ~ns () in
  let lint_dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "\nfull registry lint (ns = %s): %d findings, %d errors, %d warnings in %.2f s\n"
    (String.concat "," (List.map string_of_int ns))
    (List.length findings)
    (Analysis.Report.errors findings)
    (Analysis.Report.warnings findings)
    lint_dt;
  let t0 = Unix.gettimeofday () in
  let self = Analysis.Lint.selftest () in
  let self_dt = Unix.gettimeofday () -. t0 in
  Printf.printf "mutant selftest: %d findings, %d escapes in %.2f s\n"
    (List.length self)
    (Analysis.Report.errors self)
    self_dt;
  write_json "BENCH_lint.json"
    (Campaign.Json.Obj
       [
         ("certify", Campaign.Json.List certify_rows);
         ("store_rows", Campaign.Json.Int (List.length rows));
         ("store_cold_s", Campaign.Json.Float store_cold);
         ("store_preload_s", Campaign.Json.Float store_preload);
         ("store_recomputed", Campaign.Json.Int recomputed);
         ("lint_findings", Campaign.Json.Int (List.length findings));
         ("lint_errors", Campaign.Json.Int (Analysis.Report.errors findings));
         ("lint_warnings", Campaign.Json.Int (Analysis.Report.warnings findings));
         ("lint_elapsed_s", Campaign.Json.Float lint_dt);
         ("selftest_findings", Campaign.Json.Int (List.length self));
         ("selftest_escapes", Campaign.Json.Int (Analysis.Report.errors self));
         ("selftest_elapsed_s", Campaign.Json.Float self_dt);
       ])

(* -------------------------------------------------------------- TIME -- *)

let bechamel_suite () =
  section "TIME: bechamel wall-clock (solo decision, n = 8)";
  let open Bechamel in
  let make_test (name, proto, binary) =
    let n = 8 in
    let inputs =
      if binary then Array.init n (fun i -> i land 1) else Array.init n (fun i -> i)
    in
    Test.make ~name
      (Staged.stage (fun () ->
           let report =
             Consensus.Driver.run proto ~inputs ~sched:(Model.Sched.solo 0)
           in
           assert (List.mem_assoc 0 report.decisions)))
  in
  let tests =
    List.map make_test
      [
        ("cas", Consensus.Cas_protocol.protocol, false);
        ("faa2+tas", Consensus.Intro_protocols.faa2_tas, true);
        ("dec+mul", Consensus.Intro_protocols.decmul, true);
        ("arith-add", Consensus.Arith_protocols.add, false);
        ("arith-mul", Consensus.Arith_protocols.mul, false);
        ("arith-set-bit", Consensus.Arith_protocols.set_bit, false);
        ("fetch-and-add", Consensus.Arith_protocols.faa, false);
        ("max-registers", Consensus.Maxreg_protocol.protocol, false);
        ("swap-read", Consensus.Swap_protocol.protocol, false);
        ("rw-registers", Consensus.Rw_protocol.protocol, false);
        ("buffers-2", Consensus.Buffers_protocol.protocol ~capacity:2, false);
        ("buffers-4", Consensus.Buffers_protocol.protocol ~capacity:4, false);
        ( "increment-logn",
          Consensus.Increment_protocol.protocol ~flavour:Isets.Incr.Increment_only,
          false );
        ("tracks-tas", Consensus.Tracks_protocol.protocol ~flavour:Isets.Bits.Tas_only, false);
        ("gr05-binary", Consensus.Tracks_protocol.binary ~flavour:Isets.Bits.Write1_only, true);
        ("tug-of-war", Consensus.Tugofwar_protocol.protocol, false);
        ("adopt-commit-ladder", Consensus.Adopt_commit_protocol.protocol, false);
        ("earliest-writer", Consensus.Assignment_protocol.earliest_writer, false);
        ("hetero-[3;3;2]", Consensus.Hetero_protocol.protocol ~capacities:[ 3; 3; 2 ], false);
        ("write01-nlogn", Consensus.Nlogn_protocol.protocol ~flavour:Isets.Bits.Write01, false);
      ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg [ instance ] test in
    Analyze.all ols instance raw
  in
  let report header tests =
    let results = benchmark (Test.make_grouped ~name:"solo" ~fmt:"%s %s" tests) in
    let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
    let rows = List.sort compare rows in
    Printf.printf "%-28s %s\n" "protocol" header;
    List.iter
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Printf.printf "%-28s %14.0f\n" name est
        | _ -> Printf.printf "%-28s %14s\n" name "n/a")
      rows
  in
  report "ns / solo decision (n=8)" tests;
  (* the probe layer: one solo segment of pid 0 from rw's n=4 root, on a
     fresh scratch workspace — a miss is the plain [Scratch.run_solo], a hit
     is [Scratch.run_solo_memo] on a memo that already holds the segment *)
  let (module P : Consensus.Proto.S) = Consensus.Rw_protocol.protocol in
  let module M = Model.Machine.Make (P.I) in
  let root = M.make ~record_trace:false ~n:4 (fun pid -> P.proc ~n:4 ~pid ~input:pid) in
  let memo = M.Scratch.memo () in
  ignore (M.Scratch.run_solo_memo memo ~pid:0 (M.Scratch.of_config root));
  let segment name run =
    Test.make ~name
      (Staged.stage (fun () -> assert (run ~pid:0 (M.Scratch.of_config root) = Some 0)))
  in
  print_newline ();
  report "ns / solo segment (rw n=4)"
    [
      segment "scratch-segment-miss" (fun ~pid s -> M.Scratch.run_solo ~pid s);
      segment "scratch-segment-hit" (fun ~pid s -> M.Scratch.run_solo_memo memo ~pid s);
    ]

(* ------------------------------------------------------------ driver -- *)

let sections : (string * (smoke:bool -> unit)) list =
  [
    ("T1", fun ~smoke:_ -> table1 ());
    ("T1-LB", fun ~smoke:_ -> table1_lower_bounds ());
    ("F1", fun ~smoke:_ -> figure1 ());
    ("INTRO", fun ~smoke:_ -> intro ());
    ("STEPS", fun ~smoke:_ -> steps_bound ());
    ("BUF", fun ~smoke:_ -> buffer_sweep ());
    ("MULTI", fun ~smoke:_ -> multi_assignment ());
    ("HETERO", fun ~smoke:_ -> hetero ());
    ("ASSIGN", fun ~smoke:_ -> assignment ());
    ("SYNTH", fun ~smoke:_ -> synth ());
    ("STEPC", fun ~smoke:_ -> step_complexity ());
    ("CONJ", fun ~smoke:_ -> conjecture_curve ());
    ("RAND", fun ~smoke:_ -> randomized ());
    ( "ABL",
      fun ~smoke:_ ->
        ablation_threshold ();
        ablation_stability () );
    ("MC", fun ~smoke -> mc ~smoke ());
    ("OBS", fun ~smoke -> obs ~smoke ());
    ("RED", fun ~smoke -> red ~smoke ());
    ("WIT", fun ~smoke:_ -> witnesses ());
    ("CRASH", fun ~smoke -> crash_bench ~smoke ());
    ("CAMP", fun ~smoke -> campaign_bench ~smoke ());
    ("LINT", fun ~smoke -> lint_bench ~smoke ());
    ("TIME", fun ~smoke:_ -> bechamel_suite ());
  ]

(* Usage: main.exe [--smoke] [SECTION ...] — no sections means all of them. *)
let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let wanted = List.filter (fun a -> a <> "--smoke") args in
  let run_one name =
    match List.assoc_opt name sections with
    | Some f -> f ~smoke
    | None ->
      Printf.eprintf "unknown section %s (known: %s)\n" name
        (String.concat " " (List.map fst sections));
      exit 2
  in
  (match wanted with
   | [] -> List.iter (fun (_, f) -> f ~smoke) sections
   | names -> List.iter run_one names);
  print_newline ()
