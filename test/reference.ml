(* Test-only reference implementations, built from public library APIs
   only: the optimised library paths are differentially tested against
   them, and nothing outside [test/] depends on them. *)

(* An independent configuration key, read off [Machine]'s public
   accessors.  Two configurations of the same initial machine get equal
   keys iff they agree on
   - the contents of every cell that differs from [I.init] (an explicit
     write of the initial value is indistinguishable from an untouched
     location);
   - each process's per-step results since its last crash (a process is a
     deterministic function of the results it has observed since its last
     start);
   - each process's decision and recovery epoch.
   That is the indistinguishability notion the maintained fingerprint
   digests, so the two must induce the same partition of reachable
   configurations.  The canonical variant keys processes by input and sorts
   them, quotienting by permutations of equal-input processes.  Reading the
   histories needs a configuration built with [~record_trace:true]. *)
module Key (I : Model.Iset.S) = struct
  module M = Model.Machine.Make (I)

  let cells cfg =
    List.rev
      (M.fold_cells cfg ~init:[] ~f:(fun acc loc c ->
           if I.equal_cell c I.init then acc else (loc, c) :: acc))

  (* per process, the result lists of its steps since its last crash, most
     recent first *)
  let histories cfg =
    let h = Array.make (M.n_processes cfg) [] in
    List.iter
      (function
        | M.Step { pid; accesses } ->
          h.(pid) <- List.map (fun (_, _, r) -> r) accesses :: h.(pid)
        | M.Crash { pid; _ } -> h.(pid) <- [])
      (M.trace cfg);
    h

  let processes cfg =
    List.mapi
      (fun pid h -> (h, M.decision cfg pid, M.epoch cfg pid))
      (Array.to_list (histories cfg))

  let plain cfg = (cells cfg, processes cfg)

  let canonical ~inputs cfg =
    ( cells cfg,
      List.sort compare (List.mapi (fun pid p -> (inputs.(pid), p)) (processes cfg)) )
end

(* The unmemoized bivalence walk of every schedule: the reference the
   memoized [Explore.decidable_values] is differentially tested against.
   [crashes] is the crash–recover budget: while depth and budget remain,
   every crashable process also branches into its crash–recover successor,
   decided configurations included. *)
exception Violation of string

let decidable_values_naive ?(solo_fuel = 100_000) ?(crashes = 0)
    (module P : Consensus.Proto.S) ~inputs ~depth =
  let module M = Model.Machine.Make (P.I) in
  let n = Array.length inputs in
  let seen = Hashtbl.create 7 in
  let rec go cfg d =
    List.iter (fun (_, v) -> Hashtbl.replace seen v ()) (M.decisions cfg);
    let running = M.running cfg in
    List.iter
      (fun pid ->
        match M.run_solo ~fuel:solo_fuel ~pid cfg with
        | _, Some v -> Hashtbl.replace seen v ()
        | _, None ->
          raise
            (Violation
               (Printf.sprintf "process %d did not decide solo within %d steps" pid
                  solo_fuel)))
      running;
    if d > 0 then begin
      List.iter (fun pid -> go (M.step cfg pid) (d - 1)) running;
      if M.crashes cfg < crashes then
        List.iter (fun pid -> go (M.crash_recover cfg pid) (d - 1)) (M.crashable cfg)
    end
  in
  let cfg = M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid)) in
  match go cfg depth with
  | () -> Ok (List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) seen []))
  | exception Violation msg -> Error msg
