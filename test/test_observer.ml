(* Tests for the observer subsystem: the registry verdict pin of the default
   property set, the engine × reduction agreement matrix, the combinators,
   the registry, the reduction-soundness gate, and the allocation cost of
   [Observer.Run]. *)

let engines = [ ("naive", `Naive); ("memo", `Memo) ]

(* ------------------------------------------------- violating fixtures -- *)

let broken_disagree : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-disagree"
    let locations ~n:_ = Some 0
    let proc ~n:_ ~pid ~input:_ = Model.Proc.return pid
  end)

let broken_invalid : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-invalid"
    let locations ~n:_ = Some 0
    let proc ~n:_ ~pid:_ ~input:_ = Model.Proc.return 7
  end)

(* Not obstruction-free: p0 waits forever for p1's write. *)
let broken_nonterminating : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-spin"
    let locations ~n:_ = Some 1

    let proc ~n:_ ~pid ~input =
      let open Model.Proc.Syntax in
      if pid = 0 then
        Model.Proc.rec_loop () (fun () ->
            let* v = Isets.Rw.read 0 in
            match v with
            | Model.Value.Int w -> Model.Proc.return (Either.Right w)
            | _ -> Model.Proc.return (Either.Left ()))
      else
        let* () = Isets.Rw.write 0 (Model.Value.Int input) in
        Model.Proc.return input
  end)

(* p0 spins on a location nobody ever writes: decides under no schedule, so
   a fairly scheduled p0 exceeds any patience — the lockout witness. *)
let spin_forever : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "spin-forever"
    let locations ~n:_ = Some 1

    let proc ~n:_ ~pid ~input =
      let open Model.Proc.Syntax in
      if pid = 0 then
        Model.Proc.rec_loop () (fun () ->
            let* v = Isets.Rw.read 0 in
            match v with
            | Model.Value.Int w -> Model.Proc.return (Either.Right w)
            | _ -> Model.Proc.return (Either.Left ()))
      else Model.Proc.return input
  end)

(* A read observes 5 and a later read of the same location observes 3 on the
   solo schedule — the maxreg-monotonic witness.  Unanimous inputs keep the
   consensus properties themselves clean. *)
let decreasing_writes : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "decreasing-writes"
    let locations ~n:_ = Some 1

    let proc ~n:_ ~pid:_ ~input =
      let open Model.Proc.Syntax in
      let* () = Isets.Rw.write 0 (Model.Value.Int 5) in
      let* _ = Isets.Rw.read 0 in
      let* () = Isets.Rw.write 0 (Model.Value.Int 3) in
      let* _ = Isets.Rw.read 0 in
      Model.Proc.return input
  end)

let outcome_string = function
  | Explore.Completed (_ : Explore.stats) -> "ok"
  | Explore.Falsified f ->
    "violation:" ^ Explore.kind_name f.Explore.witness.Explore.kind
  | Explore.Timed_out _ -> "timeout"

let run ?(probe = `Leaves) ?(solo_fuel = 100_000) ?(engine = `Naive)
    ?(reduce = Explore.no_reduction) ?(observers = []) ?(shrink = false) proto ~inputs
    ~depth =
  Explore.run ~probe ~solo_fuel ~engine ~reduce ~observers ~shrink proto ~inputs ~depth

(* 1. The registry pin: the verdict and exact counts of every registry row
   at n = 3, depth 8, under [`Memo] with the default property set (an empty
   observer list).  Recorded with the hard-coded agreement/validity/probe
   checker the observer set replaced; the two agreed on every row. *)
let registry_golden =
  [
    ("tas", "ok", 222, 231);
    ("write1", "ok", 222, 231);
    ("write01", "ok", 165, 135);
    ("rw", "ok", 530, 684);
    ("tas-reset", "ok", 165, 135);
    ("swap", "ok", 243, 288);
    ("buffer-1", "ok", 237, 261);
    ("multi-1", "ok", 237, 261);
    ("buffer-2", "ok", 540, 726);
    ("multi-2", "ok", 540, 726);
    ("increment", "ok", 457, 591);
    ("fetch-incr", "ok", 547, 729);
    ("max-register", "ok", 467, 549);
    ("cas", "ok", 13, 0);
    ("set-bit", "ok", 2259, 3987);
    ("add", "ok", 2240, 3930);
    ("multiply", "ok", 2240, 3930);
    ("fetch-add", "ok", 6541, 12390);
    ("fetch-multiply", "ok", 6541, 12390);
    ("inc-dec", "ok", 593, 873);
    ("intro-faa2-tas", "ok", 16, 0);
    ("intro-dec-mul", "ok", 121, 0);
  ]

let test_registry_golden () =
  let rows = Hierarchy.rows ~ells:[ 1; 2 ] () in
  Alcotest.(check (list string))
    "golden table covers the registry"
    (List.map (fun (id, _, _, _) -> id) registry_golden)
    (List.map (fun (row : Hierarchy.row) -> row.id) rows);
  List.iter2
    (fun (row : Hierarchy.row) (id, verdict, configs, probes) ->
      let n = 3 in
      let inputs =
        if row.binary_only then Array.init n (fun i -> i land 1)
        else Array.init n (fun i -> i mod n)
      in
      let outcome = run ~engine:`Memo row.protocol ~inputs ~depth:8 in
      Alcotest.(check string) (id ^ ": verdict") verdict (outcome_string outcome);
      match outcome with
      | Explore.Completed s ->
        Alcotest.(check (pair int int))
          (id ^ ": configs, probes") (configs, probes) (s.configs, s.probes)
      | Explore.Falsified _ | Explore.Timed_out _ -> ())
    rows registry_golden

(* 1b. The same pin under the commutativity reduction: sleep sets prune
   transitions, never configurations, so verdicts, configs and probes equal
   the unreduced table's, and dedup hits and sleep prunes are pinned too.
   Recorded while the commutation matrix was still pre-seeded with the
   statically issued ops; the matrix now interns every op lazily, and the
   independence relation — hence every count — is unchanged. *)
let registry_commute_golden =
  [
    ("tas", "ok", 222, 231, 0, 214);
    ("write1", "ok", 222, 231, 0, 214);
    ("write01", "ok", 165, 135, 0, 196);
    ("rw", "ok", 530, 684, 0, 377);
    ("tas-reset", "ok", 165, 135, 0, 196);
    ("swap", "ok", 243, 288, 0, 199);
    ("buffer-1", "ok", 237, 261, 0, 214);
    ("multi-1", "ok", 237, 261, 0, 214);
    ("buffer-2", "ok", 540, 726, 0, 355);
    ("multi-2", "ok", 540, 726, 0, 355);
    ("increment", "ok", 457, 591, 2, 322);
    ("fetch-incr", "ok", 547, 729, 0, 366);
    ("max-register", "ok", 467, 549, 134, 354);
    ("cas", "ok", 13, 0, 3, 0);
    ("set-bit", "ok", 2259, 3987, 0, 514);
    ("add", "ok", 2240, 3930, 19, 514);
    ("multiply", "ok", 2240, 3930, 19, 514);
    ("fetch-add", "ok", 6541, 12390, 0, 672);
    ("fetch-multiply", "ok", 6541, 12390, 0, 672);
    ("inc-dec", "ok", 593, 873, 6, 308);
    ("intro-faa2-tas", "ok", 16, 0, 0, 0);
    ("intro-dec-mul", "ok", 121, 0, 6, 34);
  ]

let test_registry_commute_golden () =
  let rows = Hierarchy.rows ~ells:[ 1; 2 ] () in
  Alcotest.(check (list string))
    "commute golden table covers the registry"
    (List.map (fun (id, _, _, _, _, _) -> id) registry_commute_golden)
    (List.map (fun (row : Hierarchy.row) -> row.id) rows);
  let reduce = { Explore.commute = true; symmetric = false } in
  List.iter2
    (fun (row : Hierarchy.row) (id, verdict, configs, probes, hits, pruned) ->
      let n = 3 in
      let inputs =
        if row.binary_only then Array.init n (fun i -> i land 1)
        else Array.init n (fun i -> i mod n)
      in
      let outcome = run ~engine:`Memo ~reduce row.protocol ~inputs ~depth:8 in
      Alcotest.(check string) (id ^ ": verdict") verdict (outcome_string outcome);
      match outcome with
      | Explore.Completed s ->
        Alcotest.(check (list int))
          (id ^ ": configs, probes, dedup_hits, sleep_pruned")
          [ configs; probes; hits; pruned ]
          [ s.configs; s.probes; s.dedup_hits; s.sleep_pruned ]
      | Explore.Falsified _ | Explore.Timed_out _ -> ())
    rows registry_commute_golden

(* 2. Each built-in observer renders one verdict across engines × its sound
   reductions, on a clean protocol and on the protocol built to violate it.
   Symmetric reduction is exercised only where the protocol certifies
   pid-symmetric AND the observer permits it. *)
let matrix_cases =
  (* (label, proto, inputs, depth, probe, solo_fuel, symmetric_certifiable) *)
  [
    ("cas", Consensus.Cas_protocol.protocol, [| 0; 1; 1 |], 6, `Leaves, 100_000, true);
    ("disagree", broken_disagree, [| 0; 1 |], 3, `Leaves, 100_000, false);
    ("invalid", broken_invalid, [| 0; 1 |], 3, `Leaves, 100_000, false);
    ("spin", broken_nonterminating, [| 0; 1 |], 2, `Everywhere, 1_000, false);
    ("lockout-victim", spin_forever, [| 0; 1 |], 6, `Leaves, 1_000, false);
    ("decreasing", decreasing_writes, [| 0; 0 |], 8, `Leaves, 100_000, false);
  ]

let test_engine_matrix () =
  let observers =
    [
      Observer.agreement;
      Observer.validity;
      Observer.solo_termination;
      Observer.lockout ~fair_bound:2 ~patience:4 ();
      Observer.maxreg_monotonic;
    ]
  in
  List.iter
    (fun obs ->
      let (module O : Observer.S) = obs in
      let reductions =
        [ ("none", Explore.no_reduction) ]
        @ (if O.commute_safe then
             [ ("commute", { Explore.commute = true; symmetric = false }) ]
           else [])
        @
        if O.symmetric_safe then
          [ ("symmetric", { Explore.commute = false; symmetric = true }) ]
        else []
      in
      List.iter
        (fun (cname, proto, inputs, depth, probe, solo_fuel, certifiable) ->
          let reference =
            outcome_string
              (run ~probe ~solo_fuel ~observers:[ obs ] proto ~inputs ~depth)
          in
          List.iter
            (fun (ename, engine) ->
              List.iter
                (fun (rname, reduce) ->
                  if rname <> "symmetric" || certifiable then
                    Alcotest.(check string)
                      (Printf.sprintf "%s on %s: %s/%s" O.name cname ename rname)
                      reference
                      (outcome_string
                         (run ~probe ~solo_fuel ~engine ~reduce ~observers:[ obs ] proto
                            ~inputs ~depth)))
                reductions)
            engines)
        matrix_cases)
    observers

(* 3. Each purpose-built violation trips exactly its observer, with the
   advertised witness kind. *)
let expect_kind name kind outcome =
  match outcome with
  | Explore.Falsified f ->
    Alcotest.(check string)
      (name ^ ": witness kind")
      kind
      (Explore.kind_name f.Explore.witness.Explore.kind)
  | Explore.Completed _ | Explore.Timed_out _ ->
    Alcotest.fail (name ^ ": violation not detected")

let test_builtin_violations () =
  expect_kind "agreement" "agreement"
    (run ~observers:[ Observer.agreement ] broken_disagree ~inputs:[| 0; 1 |] ~depth:3);
  expect_kind "validity" "validity"
    (run ~observers:[ Observer.validity ] broken_invalid ~inputs:[| 0; 1 |] ~depth:3);
  expect_kind "solo-termination" "obstruction-freedom"
    (run ~probe:`Everywhere ~solo_fuel:1_000
       ~observers:[ Observer.solo_termination ]
       broken_nonterminating ~inputs:[| 0; 1 |] ~depth:2);
  expect_kind "lockout" "lockout"
    (run
       ~observers:[ Observer.lockout ~fair_bound:2 ~patience:4 () ]
       spin_forever ~inputs:[| 0; 1 |] ~depth:6);
  expect_kind "maxreg-monotonic" "maxreg-monotonic"
    (run
       ~observers:[ Observer.maxreg_monotonic ]
       decreasing_writes ~inputs:[| 0; 0 |] ~depth:8);
  (* and all of them stay quiet on a correct protocol *)
  match
    run ~probe:`Everywhere
      ~observers:
        (Observer.defaults
        @ [ Observer.lockout (); Observer.maxreg_monotonic ])
      Consensus.Cas_protocol.protocol ~inputs:[| 0; 1 |] ~depth:6
  with
  | Explore.Completed _ -> ()
  | Explore.Falsified f ->
    Alcotest.fail ("cas clean: " ^ f.Explore.witness.Explore.message)
  | Explore.Timed_out _ -> Alcotest.fail "cas clean: timeout"

(* 4. Combinators. *)
let test_combinators () =
  (* [all] reports the first member's violation in list order *)
  expect_kind "all" "agreement"
    (run
       ~observers:[ Observer.all [ Observer.agreement; Observer.validity ] ]
       broken_disagree ~inputs:[| 0; 1 |] ~depth:3);
  (* [named] renames the witness kind *)
  expect_kind "named" "no-split-brain"
    (run
       ~observers:[ Observer.named "no-split-brain" Observer.agreement ]
       broken_disagree ~inputs:[| 0; 1 |] ~depth:3);
  (* [per_pid] routes each pid's events to its own copy: a per-pid agreement
     observer never sees two decisions, so the disagreement vanishes —
     evidence the routing is really per-process *)
  (match
     run
       ~observers:[ Observer.per_pid Observer.agreement ]
       broken_disagree ~inputs:[| 0; 1 |] ~depth:3
   with
  | Explore.Completed _ -> ()
  | Explore.Falsified _ | Explore.Timed_out _ ->
    Alcotest.fail "per_pid agreement saw a cross-pid decision");
  (* a per-pid validity copy still catches its own pid's invalid decision,
     and prefixes the message with the pid *)
  match
    run
      ~observers:[ Observer.per_pid Observer.validity ]
      broken_invalid ~inputs:[| 0; 1 |] ~depth:3
  with
  | Explore.Falsified f ->
    let msg = f.Explore.witness.Explore.message in
    Alcotest.(check bool)
      "per_pid message names the pid" true
      (String.length msg >= 1 && msg.[0] = 'p')
  | Explore.Completed _ | Explore.Timed_out _ ->
    Alcotest.fail "per_pid validity missed the violation"

(* 5. Registry. *)
let test_registry () =
  List.iter
    (fun (name, _) ->
      match Observer.of_name name with
      | Ok o -> Alcotest.(check string) "registry name" name (Observer.name o)
      | Error e -> Alcotest.fail e)
    Observer.known;
  (match Observer.of_name "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown observer resolved");
  match Observer.of_names [ "default"; "lockout" ] with
  | Error e -> Alcotest.fail e
  | Ok os ->
    Alcotest.(check (list string))
      "default expands in place"
      [ "agreement"; "validity"; "solo-termination"; "lockout" ]
      (List.map Observer.name os)

(* 6. The reduction gate: an observer that declares a reduction unsafe
   refuses to run under it (unless forced), BEFORE any exploration. *)
let test_reduction_gate () =
  let lockout = Observer.lockout () in
  let commute = { Explore.commute = true; symmetric = false } in
  (match
     run ~reduce:commute ~observers:[ lockout ] Consensus.Cas_protocol.protocol
       ~inputs:[| 0; 1 |] ~depth:4
   with
  | exception Explore.Observer_unsafe_reduction { observer; reduction } ->
    Alcotest.(check string) "gate names the observer" "lockout" observer;
    Alcotest.(check string) "gate names the reduction" "commute" reduction
  | _ -> Alcotest.fail "lockout ran under the commute reduction");
  (* per_pid is never symmetric-safe, whatever it wraps *)
  (match
     Explore.run ~reduce:{ Explore.commute = false; symmetric = true }
       ~observers:[ Observer.per_pid Observer.validity ]
       Consensus.Cas_protocol.protocol ~inputs:[| 1; 1 |] ~depth:4
   with
  | exception Explore.Observer_unsafe_reduction { reduction; _ } ->
    Alcotest.(check string) "per_pid symmetric refused" "symmetric" reduction
  | _ -> Alcotest.fail "per_pid ran under the symmetric reduction");
  (* force overrides the gate, mirroring the symmetry certifier's escape
     hatch *)
  match
    Explore.run ~force:true ~reduce:commute ~observers:[ lockout ]
      Consensus.Cas_protocol.protocol ~inputs:[| 0; 1 |] ~depth:4
  with
  | Explore.Completed _ | Explore.Falsified _ | Explore.Timed_out _ -> ()

(* 7. Witnesses found by observers replay — through the observer-aware
   replay path — to the same kind, and deepen threads observers too. *)
let test_observer_witness_replays () =
  List.iter
    (fun (ename, engine) ->
      match
        run ~engine ~observers:Observer.defaults ~shrink:true broken_disagree
          ~inputs:[| 0; 1 |] ~depth:3
      with
      | Explore.Falsified f ->
        Alcotest.(check bool)
          (ename ^ ": witness reproduced") true f.Explore.reproduced;
        (match
           Explore.replay ~observers:Observer.defaults broken_disagree
             ~inputs:[| 0; 1 |] f.Explore.witness
         with
        | Error e -> Alcotest.fail (ename ^ ": replay rejected the witness: " ^ e)
        | Ok r ->
          (match r.Explore.violation with
          | Some (k, _) ->
            Alcotest.(check string)
              (ename ^ ": replay kind") "agreement" (Explore.kind_name k)
          | None -> Alcotest.fail (ename ^ ": observer replay found no violation")))
      | Explore.Completed _ | Explore.Timed_out _ ->
        Alcotest.fail (ename ^ ": violation not detected"))
    engines;
  match
    Explore.deepen ~observers:Observer.defaults Consensus.Cas_protocol.protocol
      ~inputs:[| 0; 1 |] ~max_depth:6
  with
  | Explore.Completed r -> Alcotest.(check bool) "deepen complete" true r.Explore.complete
  | Explore.Falsified _ | Explore.Timed_out _ ->
    Alcotest.fail "deepen with observers failed on cas"

(* 8. [Run.step] over stateless observers allocates nothing per member: the
   minor words one event costs are the same for a set of 1 and a set of 8
   (the pack array is copied only when some member's state changes). *)
let test_run_step_allocation () =
  let words_per_step set =
    let o = Observer.Run.make set ~n:2 ~inputs:[| 0; 1 |] in
    let steps = 10_000 in
    let sink = ref o in
    let before = Gc.minor_words () in
    for i = 1 to steps do
      sink := Observer.Run.step !sink ~pid:(i land 1)
    done;
    let after = Gc.minor_words () in
    ignore (Sys.opaque_identity !sink);
    (after -. before) /. float_of_int steps
  in
  let one = words_per_step [ Observer.agreement ] in
  let eight = words_per_step (List.init 8 (fun _ -> Observer.agreement)) in
  Alcotest.(check (float 0.01)) "minor words per step: 1 vs 8 stateless observers" one eight

let () =
  Alcotest.run "observer"
    [
      ( "golden",
        [
          Alcotest.test_case "registry verdicts at n=3 d=8" `Quick test_registry_golden;
          Alcotest.test_case "registry verdicts under commute at n=3 d=8" `Quick
            test_registry_commute_golden;
        ] );
      ( "differential",
        [
          Alcotest.test_case "engine x reduction matrix" `Quick
            test_engine_matrix;
        ] );
      ( "violations",
        [
          Alcotest.test_case "each builtin trips on its violation" `Quick
            test_builtin_violations;
          Alcotest.test_case "observer witnesses replay" `Quick
            test_observer_witness_replays;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "all/named/per_pid" `Quick test_combinators;
          Alcotest.test_case "registry round-trip" `Quick test_registry;
        ] );
      ( "soundness",
        [ Alcotest.test_case "reduction gate" `Quick test_reduction_gate ] );
      ( "runtime",
        [
          Alcotest.test_case "step allocation vs set size" `Quick test_run_step_allocation;
        ] );
    ]
