(* Tests for the crash–recovery subsystem: machine-level crash–recover
   semantics, crash-aware adversaries, exhaustive crash-point enumeration in
   the model checker, and the Golab separation pair — rc-tas-naive is
   falsified under a 1-crash budget while rc-cas is certified under the same
   budget on every engine. *)

module M = Model.Machine.Make (Isets.Tasrw)

(* 1. Machine-level crash–recover semantics. *)
let test_machine_crash_semantics () =
  let n = 2 in
  let cfg =
    M.make ~record_trace:true ~n (fun pid ->
        let open Model.Proc.Syntax in
        let* () = Isets.Tasrw.write pid (Model.Value.Int (10 + pid)) in
        let* v = Isets.Tasrw.read pid in
        Model.Proc.return (Model.Value.to_int_exn v))
  in
  Alcotest.(check (list int)) "fresh: nobody crashable" [] (M.crashable cfg);
  let cfg1 = M.step cfg 0 in
  Alcotest.(check (list int)) "p0 crashable after a step" [ 0 ] (M.crashable cfg1);
  Alcotest.(check int) "epoch 0 before crash" 0 (M.epoch cfg1 0);
  let crashed = M.crash_recover cfg1 0 in
  Alcotest.(check int) "epoch bumped" 1 (M.epoch crashed 0);
  Alcotest.(check int) "crash counted" 1 (M.crashes crashed);
  Alcotest.(check int) "steps unchanged by crash" (M.steps cfg1) (M.steps crashed);
  Alcotest.(check (list int)) "victim not immediately re-crashable" []
    (M.crashable crashed);
  (* shared memory survives the crash *)
  Alcotest.(check bool) "memory survives" true
    (Model.Value.equal (M.cell crashed 0) (Model.Value.Int 10));
  (* fingerprints distinguish recovery epochs *)
  Alcotest.(check bool) "crash changes fingerprint" false
    (M.fingerprint cfg1 = M.fingerprint crashed);
  (* the victim restarted from its root: it re-executes from the write *)
  let rerun = M.step (M.step crashed 0) 0 in
  Alcotest.(check (option int)) "recovered process re-decides" (Some 10)
    (M.decision rerun 0);
  (* a decided process is still crashable, and crashing it erases the
     decision — the re-decision scenario *)
  Alcotest.(check bool) "decided pid crashable" true (List.mem 0 (M.crashable rerun));
  let again = M.crash_recover rerun 0 in
  Alcotest.(check (option int)) "decision erased by crash" None (M.decision again 0);
  let crashes_on_trace =
    List.length
      (List.filter (function M.Crash _ -> true | M.Step _ -> false) (M.trace again))
  in
  Alcotest.(check int) "crash events traced" 2 crashes_on_trace

(* 2. Crash-aware adversaries: [reliable] is the identity embedding, and
   [crashing] is deterministic in its seed. *)
let test_sched_crashy () =
  let (module P : Consensus.Proto.S) = Recovery.cas_durable in
  let module PM = Model.Machine.Make (P.I) in
  let inputs = [| 3; 4 |] in
  let n = Array.length inputs in
  let mk () =
    PM.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
  in
  let drive sched =
    let cfg, outcome = PM.run_crashy ~sched (mk ()) in
    (PM.decisions cfg, PM.crashes cfg, PM.fingerprint cfg, outcome)
  in
  let plain = Model.Sched.random_then_sequential ~seed:11 ~prefix:6 in
  let ds, crashes, fp, outcome = drive (Model.Sched.Crashy.reliable plain) in
  Alcotest.(check int) "reliable never crashes" 0 crashes;
  Alcotest.(check bool) "reliable decides" true (outcome = `All_decided);
  (* reliable equals the plain run, fingerprint and all *)
  let cfg, _ = PM.run ~sched:plain (mk ()) in
  Alcotest.(check bool) "reliable == plain (fingerprint)" true (PM.fingerprint cfg = fp);
  Alcotest.(check bool) "reliable == plain (decisions)" true (PM.decisions cfg = ds);
  (* crashing is deterministic in its seed *)
  let crashy () =
    Model.Sched.Crashy.crashing ~period:3 ~seed:5 ~budget:2
      (Model.Sched.random_then_sequential ~seed:11 ~prefix:12)
  in
  let r1 = drive (crashy ()) in
  let r2 = drive (crashy ()) in
  Alcotest.(check bool) "crashing replays deterministically" true (r1 = r2);
  (* rc-cas stays consistent under the random crash adversary *)
  let ds, _, _, outcome = r1 in
  Alcotest.(check bool) "rc-cas decided under crashes" true (outcome = `All_decided);
  match ds with
  | (_, first) :: rest ->
    List.iter (fun (_, v) -> Alcotest.(check int) "agreement under crashes" first v) rest
  | [] -> Alcotest.fail "no decisions"

(* 3. Satellite: [Sched.excluding] composed with [Sched.phased] — crash-stop
   mid-run — is the differential baseline for the crash–recover adversary: a
   victim that crash–recovers but is never scheduled again is, to the
   survivors, indistinguishable from one that crash-stopped (shared memory is
   untouched either way). *)
let test_crash_stop_differential () =
  let (module P : Consensus.Proto.S) = Recovery.cas_durable in
  let module PM = Model.Machine.Make (P.I) in
  let inputs = [| 7; 8 |] in
  let n = Array.length inputs in
  let mk () =
    PM.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
  in
  let survivors_decision cfg =
    match PM.decision cfg 1 with
    | Some v -> v
    | None -> Alcotest.fail "p1 undecided"
  in
  List.iter
    (fun k ->
      (* crash-stop baseline: round-robin for k steps, then p0 is gone *)
      let stop_sched =
        Model.Sched.phased
          [ (k, Model.Sched.round_robin) ]
          (Model.Sched.excluding [ 0 ] Model.Sched.sequential)
      in
      let stop_cfg, _ = PM.run ~sched:stop_sched (mk ()) in
      (* the mirror under the crash–recover adversary: round_robin at n = 2
         is p0, p1, p0, p1, … while both run — neither decides within 6
         steps — then crash p0 (skipped at k = 0 where it is not yet
         crashable) and run the survivor out *)
      let mirror =
        List.init k (fun i -> Model.Sched.Crashy.Run (i mod 2))
        @ [ Model.Sched.Crashy.Crash 0 ]
        @ List.init 12 (fun _ -> Model.Sched.Crashy.Run 1)
      in
      let rec_cfg, _ =
        PM.run_crashy ~sched:(Model.Sched.Crashy.script mirror) (mk ())
      in
      Alcotest.(check int)
        (Printf.sprintf "crash-stop == crash-recover-and-park (k=%d)" k)
        (survivors_decision stop_cfg)
        (survivors_decision rec_cfg))
    [ 0; 1; 2; 3; 4; 5; 6 ]

(* 4. The Golab separation, engine by engine: exhaustive crash-point
   enumeration falsifies rc-tas-naive under a 1-crash budget with a
   replayable, shrunk witness, and certifies rc-cas under the same budget. *)
let engines = [ ("naive", `Naive); ("memo", `Memo) ]

let test_falsify_tas_naive () =
  List.iter
    (fun (ename, engine) ->
      match
        Explore.run ~engine ~probe:`Never ~crashes:1 Recovery.tas_naive
          ~inputs:[| 0; 1 |] ~depth:10
      with
      | Explore.Falsified f ->
        Alcotest.(check bool) (ename ^ ": agreement kind") true
          (f.witness.kind = `Agreement);
        Alcotest.(check bool) (ename ^ ": witness reproduced") true f.reproduced;
        Alcotest.(check bool) (ename ^ ": witness contains a crash") true
          (List.exists Explore.is_crash f.witness.schedule);
        Alcotest.(check bool)
          (ename ^ ": shrunk no longer than original")
          true
          (List.length f.witness.schedule <= List.length f.original.schedule);
        (* the witness replays to the same violation *)
        (match Explore.replay Recovery.tas_naive ~inputs:[| 0; 1 |] f.witness with
         | Ok { violation = Some (`Agreement, _); _ } -> ()
         | Ok { violation; _ } ->
           Alcotest.failf "%s: replay found %s" ename
             (match violation with
              | None -> "no violation"
              | Some (k, _) -> Explore.kind_name k)
         | Error e -> Alcotest.failf "%s: replay invalid: %s" ename e);
        (* rendered witnesses mark crash entries *)
        let rendered = Format.asprintf "%a" Explore.pp_witness f.witness in
        let crash_mark = "\xe2\x80\xa0p" in
        let rec mem i =
          i + String.length crash_mark <= String.length rendered
          && (String.sub rendered i (String.length crash_mark) = crash_mark
              || mem (i + 1))
        in
        Alcotest.(check bool) (ename ^ ": crash rendered") true (mem 0)
      | Explore.Completed _ -> Alcotest.failf "%s: rc-tas-naive not falsified" ename
      | Explore.Timed_out _ -> Alcotest.failf "%s: timed out" ename)
    engines

let test_certify_rc_cas () =
  List.iter
    (fun (ename, engine) ->
      match
        Explore.run ~engine ~probe:`Leaves ~crashes:1 Recovery.cas_durable
          ~inputs:[| 0; 1 |] ~depth:14
      with
      | Explore.Completed s ->
        Alcotest.(check bool) (ename ^ ": complete (not truncated)") false s.truncated
      | Explore.Falsified f ->
        Alcotest.failf "%s: rc-cas falsified: %s" ename (Explore.failure_message f)
      | Explore.Timed_out _ -> Alcotest.failf "%s: timed out" ename)
    engines;
  (* and crash-free both protocols are correct consensus *)
  List.iter
    (fun (name, proto, depth) ->
      match
        Explore.run ~engine:`Memo ~probe:`Everywhere proto ~inputs:[| 0; 1 |] ~depth
      with
      | Explore.Completed s ->
        Alcotest.(check bool) (name ^ " crash-free complete") false s.truncated
      | Explore.Falsified f ->
        Alcotest.failf "%s crash-free falsified: %s" name (Explore.failure_message f)
      | Explore.Timed_out _ -> Alcotest.failf "%s timed out" name)
    [
      ("rc-tas-naive", Recovery.tas_naive, 8); ("rc-cas", Recovery.cas_durable, 10);
    ]

(* 5. rc-cas at n = 3 under the memoized engine, and the recoverable
   observers catching the tas-naive flip under their own kinds. *)
let test_rc_cas_n3_and_observers () =
  (match
     Explore.run ~engine:`Memo ~probe:`Never ~crashes:1 Recovery.cas_durable
       ~inputs:[| 0; 1; 2 |] ~depth:17
   with
   | Explore.Completed s ->
     Alcotest.(check bool) "rc-cas n=3 complete" false s.truncated
   | Explore.Falsified f ->
     Alcotest.failf "rc-cas n=3 falsified: %s" (Explore.failure_message f)
   | Explore.Timed_out _ -> Alcotest.fail "rc-cas n=3 timed out");
  let observers = [ Observer.recoverable_agreement; Observer.recoverable_validity ] in
  (match
     Explore.run ~engine:`Memo ~probe:`Never ~crashes:1 ~observers Recovery.tas_naive
       ~inputs:[| 0; 1 |] ~depth:10
   with
   | Explore.Falsified f ->
     Alcotest.(check bool) "recoverable observer catches the flip" true
       (match f.witness.kind with
        | `Observer ("recoverable-agreement" | "recoverable-validity") -> true
        | _ -> false)
   | Explore.Completed _ -> Alcotest.fail "observers missed the tas-naive flip"
   | Explore.Timed_out _ -> Alcotest.fail "observer run timed out");
  match
    Explore.run ~engine:`Memo ~probe:`Never ~crashes:1 ~observers Recovery.cas_durable
      ~inputs:[| 0; 1 |] ~depth:14
  with
  | Explore.Completed _ -> ()
  | Explore.Falsified f ->
    Alcotest.failf "rc-cas under recoverable observers: %s" (Explore.failure_message f)
  | Explore.Timed_out _ -> Alcotest.fail "rc-cas observer run timed out"

(* 5b. The default property set remembers a crashed process's decision.
   p0 decides 0, and after a crash it finds its own marker and decides 1;
   p1 never decides.  No configuration ever holds two different decisions,
   but the [agreement] observer still has p0's first one. *)
let flip_after_crash : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "flip-after-crash"
    let locations ~n:_ = Some 2

    let proc ~n:_ ~pid ~input:_ =
      let open Model.Proc.Syntax in
      if pid = 0 then
        let* v = Isets.Rw.read 0 in
        match v with
        | Model.Value.Int _ -> Model.Proc.return 1
        | _ ->
          let* () = Isets.Rw.write 0 (Model.Value.Int 1) in
          Model.Proc.return 0
      else
        Model.Proc.rec_loop () (fun () ->
            let* _ = Isets.Rw.read 1 in
            Model.Proc.return (Either.Left ()))
  end)

let test_defaults_remember_crashed_decisions () =
  List.iter
    (fun (ename, engine) ->
      match
        Explore.run ~engine ~probe:`Never ~crashes:1 flip_after_crash ~inputs:[| 0; 1 |]
          ~depth:6
      with
      | Explore.Falsified f ->
        Alcotest.(check string)
          (ename ^ ": kind") "agreement" (Explore.kind_name f.witness.kind);
        Alcotest.(check bool) (ename ^ ": witness replays") true f.reproduced;
        Alcotest.(check bool)
          (ename ^ ": witness crashes") true
          (List.exists Explore.is_crash f.witness.schedule)
      | Explore.Completed _ -> Alcotest.failf "%s: the re-decision went unseen" ename
      | Explore.Timed_out _ -> Alcotest.failf "%s: timed out" ename)
    engines

(* 6. Crash-free identity: a zero budget leaves verdicts and every counter
   exactly as a run without the [crashes] argument. *)
let test_crash_free_identity () =
  let stats_of = function
    | Explore.Completed (s : Explore.stats) ->
      (s.configs, s.probes, s.truncated, s.dedup_hits, s.sleep_pruned)
    | _ -> Alcotest.fail "expected completion"
  in
  List.iter
    (fun (name, proto, depth) ->
      let base =
        stats_of
          (Explore.run ~engine:`Memo ~probe:`Leaves proto ~inputs:[| 0; 1 |] ~depth)
      in
      let zero =
        stats_of
          (Explore.run ~engine:`Memo ~probe:`Leaves ~crashes:0 proto
             ~inputs:[| 0; 1 |] ~depth)
      in
      Alcotest.(check bool) (name ^ ": crashes:0 is the identity") true (base = zero))
    [
      ("cas", Consensus.Cas_protocol.protocol, 8);
      ("rw", Consensus.Rw_protocol.protocol, 8);
      ("rc-cas", Recovery.cas_durable, 10);
    ]

(* 7. The registry rows: rc- rows are opt-in and findable. *)
let test_registry_rows () =
  let default_ids = List.map (fun r -> r.Hierarchy.id) (Hierarchy.rows ()) in
  Alcotest.(check bool) "rc rows absent by default" false
    (List.exists (fun id -> id = "rc-cas" || id = "rc-tas-naive") default_ids);
  let rec_ids =
    List.map (fun r -> r.Hierarchy.id) (Hierarchy.rows ~recovery:true ())
  in
  Alcotest.(check bool) "rc-cas present with ~recovery" true (List.mem "rc-cas" rec_ids);
  Alcotest.(check bool) "rc-tas-naive present with ~recovery" true
    (List.mem "rc-tas-naive" rec_ids);
  (match Hierarchy.find "rc-cas" with
   | Some row ->
     Alcotest.(check string) "find rc-cas" "rc-cas" row.Hierarchy.id;
     (match Hierarchy.measure row ~n:2 with
      | Ok m ->
        Alcotest.(check bool) "rc-cas measurable" true (m.Hierarchy.measured >= 1)
      | Error e -> Alcotest.failf "rc-cas measure failed: %s" e)
   | None -> Alcotest.fail "find rc-cas");
  match Hierarchy.find "rc-tas-naive" with
  | Some _ -> ()
  | None -> Alcotest.fail "find rc-tas-naive"

let () =
  Alcotest.run "recovery"
    [
      ( "machine",
        [
          Alcotest.test_case "crash-recover semantics" `Quick
            test_machine_crash_semantics;
        ] );
      ( "sched",
        [
          Alcotest.test_case "crashy adversaries" `Quick test_sched_crashy;
          Alcotest.test_case "crash-stop differential" `Quick
            test_crash_stop_differential;
        ] );
      ( "explore",
        [
          Alcotest.test_case "falsify rc-tas-naive" `Quick test_falsify_tas_naive;
          Alcotest.test_case "certify rc-cas" `Quick test_certify_rc_cas;
          Alcotest.test_case "n=3 and observers" `Quick test_rc_cas_n3_and_observers;
          Alcotest.test_case "defaults remember crashed decisions" `Quick
            test_defaults_remember_crashed_decisions;
          Alcotest.test_case "crash-free identity" `Quick
            test_crash_free_identity;
        ] );
      ( "registry", [ Alcotest.test_case "rc rows" `Quick test_registry_rows ] );
    ]
