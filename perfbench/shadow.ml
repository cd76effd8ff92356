(* The shadow walk: a benchmark-side copy of [Explore.run ~engine:`Memo]
   built only from public functions — [Model.Machine.Make], its [Scratch]
   probe workspace, [Transposition], [P.I.commutes] and [Observer.Run] — so
   that every call into a layer can be timed from outside the library.

   It must visit exactly what the engine visits: the traced run compares its
   [configs], [probes], [dedup_hits] and [sleep_pruned] with the engine's on
   the same check and counts the check as failed if any differs.  Supported
   are the options the workloads use: probe policy, commutativity reduction,
   crash budget and observer set, on the flat fingerprint.  The walk stops
   at the first violation.

   It is temporary: once the engine carries its own telemetry counters, the
   traced run reads those and this module goes. *)

type counts = {
  configs : int;
  probes : int;
  dedup_hits : int;
  sleep_pruned : int;
}

type layers = {
  snapshot : Trace.layer;  (** [Scratch.of_config]: one per probe chain *)
  solo : Trace.layer;  (** [Scratch.run_solo] *)
  step : Trace.layer;  (** [Machine.step] *)
  fingerprint : Trace.layer;  (** [Machine.fingerprint_words] *)
  crash : Trace.layer;  (** [Machine.crashable] and [Machine.crash_recover] *)
  tt : Trace.layer;  (** [Transposition.plan] *)
  sleep : Trace.layer;  (** independence checks of the sleep-set filter *)
  observer : Trace.layer;  (** every [Observer.Run] call *)
  absint : Trace.layer;  (** [Analysis.Absint.Issued.ops], the commute seed *)
  mutable tt_hits : int;
  mutable tt_partials : int;
  mutable tt_entries : int;
  mutable crash_branches : int;
  mutable issued_ops : int;
}

let layers () =
  let l = Trace.layer in
  {
    snapshot = l ();
    solo = l ();
    step = l ();
    fingerprint = l ();
    crash = l ();
    tt = l ();
    sleep = l ();
    observer = l ();
    absint = l ();
    tt_hits = 0;
    tt_partials = 0;
    tt_entries = 0;
    crash_branches = 0;
    issued_ops = 0;
  }

let named (ly : layers) =
  [
    ("probe.snapshot", ly.snapshot);
    ("probe.solo", ly.solo);
    ("step", ly.step);
    ("fingerprint", ly.fingerprint);
    ("crash", ly.crash);
    ("tt", ly.tt);
    ("sleep", ly.sleep);
    ("observer", ly.observer);
    ("absint", ly.absint);
  ]

exception Violation of string

module Walk (P : Consensus.Proto.S) = struct
  module M = Model.Machine.Make (P.I)

  let t = Trace.now_ns

  let check_decisions ~inputs = function
    | [] -> ()
    | (_, first) :: rest ->
      if List.exists (fun (_, v) -> v <> first) rest then raise (Violation "agreement");
      if not (Array.mem first inputs) then raise (Violation "validity")

  let verdict (ly : layers) o =
    let t0 = t () in
    let v = Observer.Run.verdict o in
    Trace.charge ly.observer t0;
    match v with None -> () | Some (kind, _, _) -> raise (Violation kind)

  (* One probe chain on a scratch copy: [pid] solo, then every other running
     process solo once — the engine's probe, step for step. *)
  let probe_chain (ly : layers) ~solo_fuel cfg pid =
    let t0 = t () in
    let s = M.Scratch.of_config cfg in
    Trace.charge ly.snapshot t0;
    let solo q =
      let t0 = t () in
      let d = M.Scratch.run_solo ~fuel:solo_fuel ~pid:q s in
      Trace.charge ly.solo t0;
      d
    in
    match solo pid with
    | None -> Observer.Probe_stuck { pid; fuel = solo_fuel }
    | Some _ ->
      List.iter (fun q -> ignore (solo q)) (M.Scratch.running s);
      (match M.Scratch.running s with
       | q :: _ -> Observer.Probe_starved { pid; straggler = q }
       | [] -> Observer.Probe_decided { pid; decisions = M.Scratch.decisions s })

  (* The engine's observer transition over one step, including the
     per-access feed (multi-assignment steps see their own earlier writes). *)
  let obs_step o cfg pid cfg' =
    let o =
      if not (Observer.Run.wants_accesses o) then o
      else
        match M.poised cfg pid with
        | None | Some [] -> o
        | Some accesses ->
          let overlay = ref [] in
          List.fold_left
            (fun o (loc, op) ->
              let cell =
                match List.assoc_opt loc !overlay with Some c -> c | None -> M.cell cfg loc
              in
              let cell', r = P.I.apply op cell in
              overlay := (loc, cell') :: !overlay;
              Observer.Run.access o ~pid ~loc ~value:(P.I.observe_result r))
            o accesses
    in
    let o = Observer.Run.step o ~pid in
    match M.decision cfg' pid with
    | Some v -> Observer.Run.decide o ~pid ~value:v
    | None -> o

  let indep cfg p q =
    match (M.poised cfg p, M.poised cfg q) with
    | Some ap, Some aq ->
      List.for_all
        (fun (l1, o1) -> List.for_all (fun (l2, o2) -> l1 <> l2 || P.I.commutes o1 o2) aq)
        ap
    | _ -> false

  let run (ly : layers) ~probe ~commute ~crashes ~observers ~solo_fuel ~inputs ~depth =
    let n = Array.length inputs in
    if commute then begin
      let module S = Analysis.Absint.Issued (P) in
      let t0 = t () in
      let ops = S.ops ~n ~inputs:(List.sort_uniq compare (Array.to_list inputs)) in
      Trace.charge ly.absint t0;
      ly.issued_ops <- ly.issued_ops + List.length ops
    end;
    let configs = ref 0 and probes = ref 0 and hits = ref 0 and sleeps = ref 0 in
    let tbl = Transposition.create ~concurrent:false () in
    let root = M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid)) in
    let obs =
      match observers with
      | [] -> None
      | set ->
        let t0 = t () in
        let o = Observer.Run.make set ~n ~inputs in
        let o =
          List.fold_left
            (fun o (pid, value) -> Observer.Run.decide o ~pid ~value)
            o (M.decisions root)
        in
        Trace.charge ly.observer t0;
        Some o
    in
    let advance obs cfg pid cfg' =
      match obs with
      | None -> None
      | Some o ->
        let t0 = t () in
        let o = obs_step o cfg pid cfg' in
        Trace.charge ly.observer t0;
        Some o
    in
    let key obs cfg =
      let t0 = t () in
      let a, b = M.fingerprint_words cfg in
      Trace.charge ly.fingerprint t0;
      match obs with
      | None -> (a, b)
      | Some o ->
        let t0 = t () in
        let h = Observer.Run.digest o in
        Trace.charge ly.observer t0;
        ((a lxor (h * 0x100000001B3)) land max_int, (b lxor (h * 0x1000193)) land max_int)
    in
    let crashable cfg =
      if crashes > 0 && M.crashes cfg < crashes then begin
        let t0 = t () in
        let c = M.crashable cfg in
        Trace.charge ly.crash t0;
        c
      end
      else []
    in
    let rec go cfg d sleep obs =
      let a, b = key obs cfg in
      let t0 = t () in
      let plan = Transposition.plan tbl a b ~depth:d ~sleep in
      Trace.charge ly.tt t0;
      match plan with
      | Transposition.Hit ->
        incr hits;
        ly.tt_hits <- ly.tt_hits + 1
      | Transposition.Visit -> visit cfg d sleep obs
      | Transposition.Partial inter ->
        incr hits;
        ly.tt_partials <- ly.tt_partials + 1;
        if d > 0 && M.running_count cfg > 0 then children cfg d sleep obs inter
    and children cfg d sleep obs inter =
      let running = M.running cfg in
      let covered = lnot inter in
      let asleep = ref sleep in
      if covered <> 0 then
        List.iter
          (fun q -> if covered land (1 lsl q) <> 0 then asleep := !asleep lor (1 lsl q))
          running;
      List.iter
        (fun pid ->
          let bit = 1 lsl pid in
          if !asleep land bit <> 0 then begin
            if covered land bit = 0 then incr sleeps
          end
          else begin
            let succ_sleep =
              if not commute then 0
              else
                List.fold_left
                  (fun m q ->
                    if !asleep land (1 lsl q) <> 0 then begin
                      let t0 = t () in
                      let i = indep cfg q pid in
                      Trace.charge ly.sleep t0;
                      if i then m lor (1 lsl q) else m
                    end
                    else m)
                  0 running
            in
            let t0 = t () in
            let cfg' = M.step cfg pid in
            Trace.charge ly.step t0;
            go cfg' (d - 1) succ_sleep (advance obs cfg pid cfg');
            asleep := !asleep lor bit
          end)
        running
    and visit cfg d sleep obs =
      incr configs;
      (match obs with
       | None -> check_decisions ~inputs (M.decisions cfg)
       | Some o -> verdict ly o);
      let at_bound = d <= 0 in
      if M.running_count cfg > 0 then begin
        let running = M.running cfg in
        let wants =
          match obs with
          | None -> true
          | Some o ->
            let t0 = t () in
            let w = Observer.Run.wants_probes o in
            Trace.charge ly.observer t0;
            w
        in
        let should_probe =
          (match probe with `Never -> false | `Leaves -> at_bound | `Everywhere -> true)
          && wants
        in
        if should_probe then
          List.iter
            (fun pid ->
              incr probes;
              let outcome = probe_chain ly ~solo_fuel cfg pid in
              match obs with
              | Some o ->
                let t0 = t () in
                let o = Observer.Run.probe o outcome in
                Trace.charge ly.observer t0;
                verdict ly o
              | None ->
                (match outcome with
                 | Observer.Probe_stuck _ -> raise (Violation "obstruction-freedom")
                 | Observer.Probe_starved _ -> raise (Violation "termination")
                 | Observer.Probe_decided { decisions; _ } ->
                   check_decisions ~inputs decisions))
            running;
        if not at_bound then children cfg d sleep obs (-1)
      end;
      (* at the bound the engine still reads the crashable set, to flag
         truncation *)
      if at_bound then ignore (crashable cfg)
      else
        List.iter
          (fun pid ->
            let t0 = t () in
            let cfg' = M.crash_recover cfg pid in
            Trace.charge ly.crash t0;
            ly.crash_branches <- ly.crash_branches + 1;
            go cfg' (d - 1) 0 obs)
          (crashable cfg)
    in
    let result =
      match go root depth 0 obs with
      | () -> Ok ()
      | exception Violation kind -> Error kind
    in
    ly.tt_entries <- ly.tt_entries + Transposition.stats tbl;
    Result.map
      (fun () ->
        {
          configs = !configs;
          probes = !probes;
          dedup_hits = !hits;
          sleep_pruned = !sleeps;
        })
      result
end

let run ly ?(probe = `Leaves) ?(commute = false) ?(crashes = 0) ?(observers = [])
    ?(solo_fuel = 100_000) (module P : Consensus.Proto.S) ~inputs ~depth =
  let module W = Walk (P) in
  W.run ly ~probe ~commute ~crashes ~observers ~solo_fuel ~inputs ~depth
