type work =
  | Check of {
      engine : Explore.engine;
      reduce : Explore.reduction;
      depth : int;
      probe : Explore.probe_policy;
      crashes : int;
    }
  | Stress of { seed : int; prefix : int; max_burst : int; fuel : int }

type t = {
  row : Hierarchy.row;
  n : int;
  inputs : int array;
  solo_fuel : int;
  deadline : float option;
  observe : string list;
  work : work;
}

(* the registry convention: binary-only protocols get 0/1 inputs, the rest
   spread over the value domain *)
let inputs_for (row : Hierarchy.row) ~n =
  if row.binary_only then Array.init n (fun i -> i land 1)
  else Array.init n (fun i -> i mod n)

let check ?(probe = `Leaves) ?(solo_fuel = 100_000) ?deadline ?(observe = [])
    ?(crashes = 0) ~engine ~reduce ~depth row ~n =
  {
    row;
    n;
    inputs = inputs_for row ~n;
    solo_fuel;
    deadline;
    observe;
    work = Check { engine; reduce; depth; probe; crashes };
  }

let stress ?(solo_fuel = 100_000) ?(fuel = 50_000_000) ~seed ~prefix ~max_burst row ~n =
  {
    row;
    n;
    inputs = inputs_for row ~n;
    solo_fuel;
    deadline = None;
    observe = [];
    work = Stress { seed; prefix; max_burst; fuel };
  }

let engine_name = function `Naive -> "naive" | `Memo -> "memo"

let reduce_name (r : Explore.reduction) =
  match (r.commute, r.symmetric) with
  | false, false -> "none"
  | true, false -> "commute"
  | false, true -> "symmetric"
  | true, true -> "full"

let probe_name = function `Leaves -> "leaves" | `Everywhere -> "everywhere" | `Never -> "never"

let describe t =
  match t.work with
  | Check { engine; reduce; depth; probe; crashes } ->
    Printf.sprintf "%s n=%d check %s/%s depth=%d probe=%s%s%s%s" t.row.id t.n
      (engine_name engine) (reduce_name reduce) depth (probe_name probe)
      (if crashes > 0 then Printf.sprintf " crashes=%d" crashes else "")
      (match t.observe with
       | [] -> ""
       | os -> " observe=" ^ String.concat "," os)
      (match t.deadline with
       | Some d -> Printf.sprintf " deadline=%.3gs" d
       | None -> "")
  | Stress { seed; prefix; max_burst; _ } ->
    Printf.sprintf "%s n=%d stress seed=%d prefix=%d max_burst=%d" t.row.id t.n seed
      prefix max_burst

(* -------------------------------------------------- content address -- *)

(* 63-bit FNV-style mixing, same family as [Machine.fingerprint]. *)
let mix h v = (h lxor (v land max_int)) * 0x100000001b3 land max_int

(* Hash the protocol's observable behaviour: configuration fingerprints
   along two fixed deterministic schedules from the initial configuration.
   Keying on behaviour rather than the protocol's name means editing a
   protocol invalidates its cached campaign results, while renaming one
   does not.  A protocol that raises mid-walk still digests deterministically
   (the exception text is mixed in). *)
let behaviour_steps = 48

let digest proto ~inputs ~params =
  let (module P : Consensus.Proto.S) = proto in
  let n = Array.length inputs in
  let module M = Model.Machine.Make (P.I) in
  let walk pick h0 =
    match
      let root =
        M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
      in
      let rec go cfg k h =
        if k = 0 then h
        else
          match M.running cfg with
          | [] -> h
          | running ->
            let cfg = M.step cfg (pick running k) in
            go cfg (k - 1) (mix h (M.fingerprint cfg))
      in
      go root behaviour_steps h0
    with
    | h -> h
    | exception exn -> mix h0 (Hashtbl.hash (Printexc.to_string exn))
  in
  let h = 0x51F6_CDD1_2545_F491 land max_int in
  (* all-solo: each process's private behaviour *)
  let h = walk (fun running _ -> List.hd running) h in
  (* rotating: cross-process interference *)
  let h = walk (fun running k -> List.nth running (k mod List.length running)) h in
  let h = mix h (Hashtbl.hash (Array.to_list inputs)) in
  let h = mix h (Hashtbl.hash params) in
  Printf.sprintf "%016x" h

let fingerprint t =
  let params =
    match t.work with
    | Check { engine; reduce; depth; probe; crashes } ->
      (* the observer and crash suffixes appear only when non-trivial, so
         every fingerprint minted before those features existed stays
         valid — crash-free grids address the same store entries as ever.
         The crash suffix is versioned: since [agreement] remembers a
         crashed process's first decision, crash-budget verdicts are
         stricter, and records stored under the earlier [/crashes=]
         address must not answer for them. *)
      Printf.sprintf "check/%s/%s/%d/%s/%d%s%s" (engine_name engine) (reduce_name reduce)
        depth (probe_name probe) t.solo_fuel
        (match t.observe with
         | [] -> ""
         | os -> "/obs=" ^ String.concat "+" os)
        (if crashes > 0 then Printf.sprintf "/crashes.v2=%d" crashes else "")
    | Stress { seed; prefix; max_burst; fuel } ->
      Printf.sprintf "stress/%d/%d/%d/%d" seed prefix max_burst fuel
  in
  digest t.row.protocol ~inputs:t.inputs ~params

(* --------------------------------------------------------------- run -- *)

let run t =
  let task = fingerprint t in
  let protocol = Consensus.Proto.name t.row.protocol in
  let base ~kind ~depth ~engine ~reduce ?(crashes = 0) =
    fun ~status ?configs ?probes ?dedup_hits ?sleep_pruned ?truncated ?elapsed ?extra () ->
    Record.make ~task ~kind ~row:t.row.id ~protocol ~n:t.n ~depth ~engine ~reduce
      ~observers:t.observe ~crashes ~status ?configs ?probes ?dedup_hits ?sleep_pruned
      ?truncated ?elapsed ?extra ()
  in
  let t0 = Unix.gettimeofday () in
  match t.work with
  | Check { engine; reduce; depth; probe; crashes } ->
    let record =
      base ~kind:"check" ~depth ~engine:(engine_name engine)
        ~reduce:(reduce_name reduce) ~crashes
    in
    let of_stats status (s : Explore.stats) =
      record ~status ~configs:s.configs ~probes:s.probes ~dedup_hits:s.dedup_hits
        ~sleep_pruned:s.sleep_pruned ~truncated:s.truncated ~elapsed:s.elapsed ()
    in
    (match
       (* observer names resolve at run time, not construction time, so an
          unknown name in a stored spec surfaces as a Crash record instead of
          sinking the whole campaign *)
       match Observer.of_names t.observe with
       | Error e -> Error e
       | Ok observers ->
         Ok
           (Explore.run ~probe ~solo_fuel:t.solo_fuel ~engine ~reduce ~crashes
              ~observers ?deadline:t.deadline t.row.protocol ~inputs:t.inputs ~depth)
     with
     | Error e ->
       record ~status:(Record.Crash e) ~elapsed:(Unix.gettimeofday () -. t0) ()
     | Ok (Explore.Completed s) -> of_stats Record.Verified s
     | Ok (Explore.Falsified f) ->
       let w = f.witness in
       of_stats
         (Record.Violation
            {
              kind = Explore.kind_name w.kind;
              message = w.message;
              schedule = w.schedule;
              probe = w.probe;
            })
         f.stats
     | Ok (Explore.Timed_out { partial; _ }) -> of_stats Record.Timeout partial
     | exception Explore.Uncertified_symmetry { verdict; _ } ->
       record
         ~status:
           (Record.Crash
              (Format.asprintf "symmetric reduction refused: %a"
                 Analysis.Symmetry.pp_verdict verdict))
         ~elapsed:(Unix.gettimeofday () -. t0) ()
     | exception exn ->
       record
         ~status:(Record.Crash (Printexc.to_string exn))
         ~elapsed:(Unix.gettimeofday () -. t0) ())
  | Stress { seed; prefix; max_burst; fuel } ->
    let record = base ~kind:"stress" ~depth:prefix ~engine:"driver" ~reduce:"none" in
    (match
       let sched =
         Model.Sched.phased
           [ (prefix, Model.Sched.random_bursts ~seed ~max_burst) ]
           Model.Sched.sequential
       in
       Consensus.Driver.run ~fuel t.row.protocol ~inputs:t.inputs ~sched
     with
     | report ->
       let elapsed = Unix.gettimeofday () -. t0 in
       let extra =
         [
           ("seed", Json.Int seed);
           ("max_burst", Json.Int max_burst);
           ("steps", Json.Int report.steps);
           ("locations_used", Json.Int report.locations_used);
           ("decided", Json.Int (List.length report.decisions));
         ]
       in
       let status =
         match report.outcome with
         | `Out_of_fuel -> Record.Timeout
         | `Sched_stopped ->
           (* sequential never stops while someone runs, so this means a
              blocked process — surface it rather than vacuously passing
              the check over the decided subset *)
           Record.Crash "stress: scheduler stopped before every process decided"
         | `All_decided ->
           (match Consensus.Driver.check report ~inputs:t.inputs with
            | Ok () -> Record.Verified
            | Error msg ->
              let kind =
                if String.length msg >= 9 && String.sub msg 0 9 = "agreement" then
                  "agreement"
                else if String.length msg >= 8 && String.sub msg 0 8 = "validity" then
                  "validity"
                else "driver"
              in
              Record.Violation { kind; message = msg; schedule = []; probe = None })
       in
       record ~status ~elapsed ~extra ()
     | exception exn ->
       record
         ~status:(Record.Crash (Printexc.to_string exn))
         ~elapsed:(Unix.gettimeofday () -. t0) ())
