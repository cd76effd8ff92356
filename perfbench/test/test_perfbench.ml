(* Self-test of the benchmark: the traced run's shadow walk must reproduce
   the memo engine's exact counts, and every workload must meet its expected
   outcomes under the default seed. *)

module W = Perfbench.Workloads

let row id = (Option.get (Hierarchy.find id)).Hierarchy.protocol

let observers names = Result.get_ok (Observer.of_names names)

let shadow_matches ?(probe = `Leaves) ?(commute = false) ?(crashes = 0) ?(observe = [])
    id ~n ~depth () =
  let proto = row id in
  let inputs = Array.init n Fun.id in
  let observers = observers observe in
  let reduce = { Explore.commute; symmetric = false } in
  let engine =
    match
      Explore.run ~engine:`Memo ~probe ~reduce ~crashes ~observers proto ~inputs ~depth
    with
    | Explore.Completed s -> s
    | _ -> Alcotest.fail (id ^ ": engine did not complete")
  in
  let ly = Perfbench.Shadow.layers () in
  match
    Perfbench.Shadow.run ly ~probe ~commute ~crashes ~observers proto ~inputs ~depth
  with
  | Error kind -> Alcotest.fail (id ^ ": shadow walk stopped at a " ^ kind ^ " violation")
  | Ok sh ->
    let check what a b = Alcotest.(check int) (Printf.sprintf "%s %s" id what) a b in
    check "configs" engine.configs sh.configs;
    check "probes" engine.probes sh.probes;
    check "dedup hits" engine.dedup_hits sh.dedup_hits;
    check "sleep pruned" engine.sleep_pruned sh.sleep_pruned;
    Alcotest.(check bool) (id ^ " explored something") true (sh.configs > 1);
    Alcotest.(check int) (id ^ " probe chains") sh.probes ly.snapshot.calls

let test_shadow_probe () =
  shadow_matches "rw" ~n:3 ~depth:8 ();
  shadow_matches "swap" ~n:3 ~depth:10 ();
  shadow_matches "max-register" ~n:3 ~depth:6 ~commute:true ~observe:[ "default" ] ()

let test_shadow_crash () =
  shadow_matches "rc-cas" ~n:3 ~depth:12 ~probe:`Never ~commute:true ~crashes:2
    ~observe:[ "recoverable-agreement"; "recoverable-validity" ]
    ();
  shadow_matches "rc-cas" ~n:3 ~depth:8 ~crashes:1 ()

let expect_outcomes (w : W.t) () =
  let p = w.setup ~seed:W.default_seed ~workdir:"." in
  Fun.protect ~finally:p.release (fun () ->
      let pass = p.pass () in
      Alcotest.(check (list string)) (w.name ^ " failures") [] pass.failures;
      Alcotest.(check bool) (w.name ^ " attempted") true (pass.attempted > 0))

let test_campaign_traced () =
  let p = W.campaign_smoke.setup ~seed:2 ~workdir:"." in
  Fun.protect ~finally:p.release (fun () ->
      let pass = p.traced (Perfbench.Trace.create ()) in
      Alcotest.(check (list string)) "traced campaign failures" [] pass.failures;
      Alcotest.(check bool) "absint seeded every commute task" true
        (List.assoc "absint.calls" pass.layers > 0.))

let () =
  Alcotest.run "perfbench"
    [
      ( "shadow walk",
        [
          Alcotest.test_case "leaf probes = engine" `Quick test_shadow_probe;
          Alcotest.test_case "crash branching = engine" `Quick test_shadow_crash;
        ] );
      ( "expected outcomes",
        List.map (fun (w : W.t) -> Alcotest.test_case w.name `Slow (expect_outcomes w)) W.all
        @ [ Alcotest.test_case "campaign traced pass" `Quick test_campaign_traced ] );
    ]
