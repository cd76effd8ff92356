(* Differential tests for the raw-speed pass over the exploration core:
   the maintained flat fingerprint vs an independent public-API key, the
   Scratch probe workspace vs the persistent machine, the sharded
   transposition table and symmetry cache under concurrent domains, op
   interning, and the Bignum small-operand fast paths. *)

(* ------------------------------------------------------------------ *)
(* Fingerprint partition agreement.

   The incrementally maintained fingerprint and the structural key of
   [Reference.Key] are different kinds of value; what must coincide is the
   partition they induce over reachable configurations: two configs get
   equal fingerprints iff they get equal keys.  We enumerate the schedule
   tree of every registry row, recoverable rows included, with
   crash–recover successors of every crashable process up to a 2-crash
   budget, and check both directions for the plain and the canonical
   (pid-symmetric) variants: recovery epochs and the history reset a crash
   performs must neither split nor conflate configurations. *)

let check_partition name pairs =
  let by_fp = Hashtbl.create 97 and by_key = Hashtbl.create 97 in
  List.iter
    (fun (fp, key) ->
      (match Hashtbl.find_opt by_fp fp with
      | Some key' ->
        if key' <> key then Alcotest.failf "%s: fingerprint %d maps to two keys" name fp
      | None -> Hashtbl.add by_fp fp key);
      match Hashtbl.find_opt by_key key with
      | Some fp' ->
        if fp' <> fp then
          Alcotest.failf "%s: one key maps to fingerprints %d and %d" name fp' fp
      | None -> Hashtbl.add by_key key fp)
    pairs

(* Both partitions over every configuration reachable within [depth]
   transitions — steps, plus crash–recover transitions while [crashes]
   lasts.  Returns the number of configurations checked. *)
let check_fingerprints (module P : Consensus.Proto.S) ~name ~inputs ~depth ~crashes =
  let module K = Reference.Key (P.I) in
  let module M = K.M in
  let n = Array.length inputs in
  let root = M.make ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid)) in
  let plain = ref [] and canonical = ref [] and count = ref 0 in
  let rec go d budget cfg =
    incr count;
    plain := (M.fingerprint cfg, K.plain cfg) :: !plain;
    canonical :=
      (M.canonical_fingerprint ~inputs cfg, K.canonical ~inputs cfg) :: !canonical;
    if d > 0 then begin
      List.iter (fun pid -> go (d - 1) budget (M.step cfg pid)) (M.running cfg);
      if budget > 0 then
        List.iter
          (fun pid -> go (d - 1) (budget - 1) (M.crash_recover cfg pid))
          (M.crashable cfg)
    end
  in
  go depth crashes root;
  check_partition (name ^ " plain") !plain;
  check_partition (name ^ " canonical") !canonical;
  !count

(* At n = 2 and depth 7 a row's tree has at most 2,499 configurations. *)
let test_fingerprint_partition_registry () =
  List.iter
    (fun (row : Hierarchy.row) ->
      List.iter
        (fun inputs ->
          let count =
            check_fingerprints row.protocol ~name:row.id ~inputs ~depth:7 ~crashes:2
          in
          Alcotest.(check bool)
            (row.id ^ ": enumerated some configurations")
            true (count > 1))
        (* duplicate inputs make the canonical quotient non-trivial *)
        [ [| 0; 1 |]; [| 1; 1 |] ])
    (Hierarchy.rows ~recovery:true ())

(* Init-write aliasing: a location explicitly holding the initial value and
   an untouched location must fingerprint identically — and get equal
   public keys.  The test instruction set's [Write x] returns the
   old cell, so "read loc 5" and "write 0 to loc 5" observe the same result
   (0) and leave behaviourally identical configurations that differ only in
   whether loc 5 is materialized in the memory map. *)
module Alias_cell = struct
  type cell = int
  type op = Read | Write of int
  type result = int

  let name = "{read, write} (aliasing test)"
  let init = 0
  let apply op c = match op with Read -> (c, c) | Write x -> (x, c)
  let trivial = function Read -> true | Write _ -> false
  let commutes a b = trivial a && trivial b
  let multi_assignment = false
  let equal_cell = Int.equal
  let hash_cell c = c
  let hash_result r = r
  let observe_result r = Some r
  let pp_cell = Format.pp_print_int

  let pp_op ppf = function
    | Read -> Format.pp_print_string ppf "read"
    | Write x -> Format.fprintf ppf "write %d" x

  let pp_result = Format.pp_print_int
  let sample_cells = Model.Iset.memo (fun () -> [ 0; 1; 2 ])
  let sample_ops = Model.Iset.memo (fun () -> [ Read; Write 0; Write 1 ])
end

module AK = Reference.Key (Alias_cell)
module AM = AK.M

let alias_cfg op =
  let root =
    AM.make ~n:1 (fun _ ->
        Model.Proc.Step ([ (5, op) ], fun _ -> Model.Proc.Done 0))
  in
  AM.step root 0

let test_init_write_aliasing () =
  let a = alias_cfg Alias_cell.Read in
  let b = alias_cfg (Alias_cell.Write 0) in
  Alcotest.(check bool)
    "flat conflates untouched and explicitly-init" true
    (AM.fingerprint a = AM.fingerprint b);
  Alcotest.(check bool)
    "key conflates untouched and explicitly-init" true
    (AK.plain a = AK.plain b);
  (* and a genuinely different write is not conflated by either *)
  let c = alias_cfg (Alias_cell.Write 1) in
  Alcotest.(check bool) "flat separates a real write" false
    (AM.fingerprint a = AM.fingerprint c);
  Alcotest.(check bool) "key separates a real write" false (AK.plain a = AK.plain c)

(* ------------------------------------------------------------------ *)
(* Scratch probe workspace vs the persistent machine.

   Every probe the checker runs is: solo-run one process, then solo-run each
   remaining running process once, then read the decisions.  Three chains
   must agree on the solo decision, the running set and the decision list at
   every reachable configuration: the persistent machine, the plain scratch
   workspace, and the scratch workspace served from a solo-segment memo.
   One memo is shared by every configuration of a row, as in the engines,
   so most memoized runs are hits. *)

type 'a chain = { solo : 'a option; running : int list; decisions : (int * 'a) list }

let scratch_differential (module P : Consensus.Proto.S) ~inputs ~depth ~crashes ~cap name =
  let module M = Model.Machine.Make (P.I) in
  let n = Array.length inputs in
  let root =
    M.make ~record_trace:false ~n (fun pid -> P.proc ~n ~pid ~input:inputs.(pid))
  in
  let fuel = 2000 in
  let memo = M.Scratch.memo () in
  let memo_calls = ref 0 in
  let persistent cfg pid =
    let pc, solo = M.run_solo ~fuel ~pid cfg in
    let pc =
      List.fold_left (fun c q -> fst (M.run_solo ~fuel ~pid:q c)) pc (M.running pc)
    in
    { solo; running = M.running pc; decisions = M.decisions pc }
  in
  (* [first] runs [pid] before the chain proper: a second run of the same
     process in one workspace *)
  let scratch ?first run cfg pid =
    let s = M.Scratch.of_config cfg in
    Option.iter (fun f -> ignore (run ~fuel:f ~pid s)) first;
    let solo = run ~fuel ~pid s in
    List.iter (fun q -> ignore (run ~fuel ~pid:q s)) (M.Scratch.running s);
    { solo; running = M.Scratch.running s; decisions = M.Scratch.decisions s }
  in
  let plain ~fuel ~pid s = M.Scratch.run_solo ~fuel ~pid s in
  let memoized ~fuel ~pid s =
    incr memo_calls;
    M.Scratch.run_solo_memo memo ~fuel ~pid s
  in
  let check what pid (want : int chain) (got : int chain) =
    let label s = Printf.sprintf "%s: %s, pid %d: %s" name what pid s in
    Alcotest.(check (option int)) (label "solo decision") want.solo got.solo;
    Alcotest.(check (list int)) (label "running set after chain") want.running got.running;
    Alcotest.(check (list (pair int int)))
      (label "decisions after chain") want.decisions got.decisions
  in
  let count = ref 0 in
  let rec go d budget cfg =
    if !count < cap then begin
      incr count;
      List.iter
        (fun pid ->
          let want = persistent cfg pid in
          check "plain scratch" pid want (scratch plain cfg pid);
          check "memoized scratch" pid want (scratch memoized cfg pid);
          check "memoized, same pid twice" pid
            (scratch ~first:1 plain cfg pid)
            (scratch ~first:1 memoized cfg pid))
        (M.running cfg);
      if d > 0 then begin
        List.iter (fun pid -> go (d - 1) budget (M.step cfg pid)) (M.running cfg);
        if budget > 0 then
          List.iter
            (fun pid -> go (d - 1) (budget - 1) (M.crash_recover cfg pid))
            (M.crashable cfg)
      end
    end
  in
  go depth crashes root;
  let hits = !memo_calls - M.Scratch.memo_size memo in
  Alcotest.(check bool) (name ^ ": the shared memo was hit") true (hits > 0)

(* Every registry row, recoverable ([rc-]) rows included, with
   crash–recover successors; the [multi-*] rows exercise multi-location
   steps. *)
let test_scratch_vs_persistent () =
  List.iter
    (fun (row : Hierarchy.row) ->
      scratch_differential row.protocol ~inputs:[| 0; 1 |] ~depth:5 ~crashes:1 ~cap:300
        row.id)
    (Hierarchy.rows ~recovery:true ())

(* Locations at or past 2^16 live in the scratch workspace's overflow
   table, not its dense array.  Each process reads location 70,000, decides
   what it finds there, or else writes its input there and decides that. *)
let far = 70_000

module Far = struct
  module I = Isets.Rw

  let name = "far-location"
  let locations ~n:_ = None

  let proc ~n:_ ~pid:_ ~input =
    let open Model.Proc.Syntax in
    let* v = Isets.Rw.read far in
    match v with
    | Model.Value.Int w -> Model.Proc.return w
    | _ ->
      let* () = Isets.Rw.write far (Model.Value.Int input) in
      Model.Proc.return input
end

let test_scratch_overflow () =
  scratch_differential (module Far) ~inputs:[| 3; 5 |] ~depth:4 ~crashes:1 ~cap:200 "far";
  let module M = Model.Machine.Make (Far.I) in
  let root =
    M.make ~record_trace:false ~n:2 (fun pid -> Far.proc ~n:2 ~pid ~input:(3 + (2 * pid)))
  in
  let memo = M.Scratch.memo () in
  let first = M.Scratch.of_config root in
  Alcotest.(check (option int)) "miss decides" (Some 3)
    (M.Scratch.run_solo_memo memo ~pid:0 first);
  let again = M.Scratch.of_config root in
  Alcotest.(check (option int)) "hit decides" (Some 3)
    (M.Scratch.run_solo_memo memo ~pid:0 again);
  Alcotest.(check int) "the second run was a hit" 1 (M.Scratch.memo_size memo);
  (* pid 1 reads location 70,000 only through the replayed write *)
  Alcotest.(check (option int)) "hit replayed the overflow write" (Some 3)
    (M.Scratch.run_solo ~pid:1 again);
  Alcotest.(check (list (pair int int)))
    "decisions after the hit" [ (0, 3); (1, 3) ] (M.Scratch.decisions again)

(* A process that never decides (spins waiting for a write that cannot
   arrive solo) must be classified identically by both implementations. *)
let test_scratch_undecided () =
  let (module P : Consensus.Proto.S) =
    (module struct
      module I = Isets.Rw

      let name = "spin"
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
  in
  let module M = Model.Machine.Make (P.I) in
  let root = M.make ~record_trace:false ~n:2 (fun pid -> P.proc ~n:2 ~pid ~input:pid) in
  let _, pdec = M.run_solo ~fuel:500 ~pid:0 root in
  let s = M.Scratch.of_config root in
  let sdec = M.Scratch.run_solo ~fuel:500 ~pid:0 s in
  Alcotest.(check (option int)) "spinner undecided in both" pdec sdec;
  Alcotest.(check (option int)) "spinner ran out of fuel" None sdec

(* ------------------------------------------------------------------ *)
(* Engine differential: verdicts, witness schedules and decidable-value
   sets must agree across engines, reductions and fingerprint modes. *)

let verdict_kind = function
  | Explore.Completed _ -> "completed"
  | Explore.Timed_out _ -> "timeout"
  | Explore.Falsified (f : Explore.failure) -> Explore.kind_name f.witness.kind

(* rw's writes embed the writer's pid, so it is *not* pid-symmetric and the
   symmetric reduction rightly refuses it — only the certified protocols get
   the [full] reduction in the matrix. *)
let reductions_for ~symmetric_ok =
  [
    ("none", Explore.no_reduction);
    ("commute", { Explore.commute = true; symmetric = false });
  ]
  @ if symmetric_ok then [ ("full", Explore.full_reduction) ] else []

let test_engine_reduction_differential () =
  let protos =
    [
      ("rw", Consensus.Rw_protocol.protocol, [| 0; 1; 1 |], 6, false);
      ("maxreg", Consensus.Maxreg_protocol.protocol, [| 0; 1; 1 |], 6, true);
      ("cas", Consensus.Cas_protocol.protocol, [| 1; 1; 1 |], 8, true);
      ("arith-add", Consensus.Arith_protocols.add, [| 0; 1 |], 8, true);
    ]
  in
  List.iter
    (fun (name, proto, inputs, depth, symmetric_ok) ->
      let reference =
        verdict_kind (Explore.run ~probe:`Leaves ~engine:`Naive proto ~inputs ~depth)
      in
      List.iter
        (fun (ename, engine) ->
          List.iter
            (fun (rname, reduce) ->
              let v =
                verdict_kind
                  (Explore.run ~probe:`Leaves ~engine ~reduce proto ~inputs ~depth)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s: %s/%s verdict" name ename rname)
                reference v)
            (reductions_for ~symmetric_ok))
        [ ("naive", `Naive); ("memo", `Memo) ])
    protos

(* Broken protocols: the naive and memoized engines must find the same
   violation kind and shrink it to the same schedule, and that schedule must
   replay to the violation. *)
let broken_disagree : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "broken-disagree"
    let locations ~n:_ = Some 0
    let proc ~n:_ ~pid ~input:_ = Model.Proc.return pid
  end)

let test_witness_schedule_differential () =
  let fail_of = function
    | Explore.Falsified (f : Explore.failure) -> f
    | _ -> Alcotest.fail "expected a violation"
  in
  let run engine =
    fail_of (Explore.run ~engine broken_disagree ~inputs:[| 0; 1 |] ~depth:3)
  in
  let reference = run `Naive in
  List.iter
    (fun (ename, engine) ->
      let f = run engine in
      Alcotest.(check string)
        (ename ^ ": violation kind")
        "agreement"
        (Explore.kind_name f.witness.kind);
      Alcotest.(check (list int))
        (ename ^ ": shrunk schedule matches naive")
        reference.witness.schedule f.witness.schedule;
      match Explore.replay broken_disagree ~inputs:[| 0; 1 |] f.witness with
      | Ok r ->
        Alcotest.(check bool)
          (ename ^ ": witness replays to a violation")
          true (r.violation <> None)
      | Error e -> Alcotest.failf "%s: replay failed: %s" ename e)
    [ ("naive", `Naive); ("memo", `Memo) ]

(* Decides its input on a first run, but 7 once a restart finds its own
   mark: a value only crash–recover branches can reach, so the crash cases
   below cannot pass by agreeing on the crash-free value set. *)
let recover_seven : Consensus.Proto.t =
  (module struct
    module I = Isets.Rw

    let name = "recover-seven"
    let locations ~n = Some n

    let proc ~n:_ ~pid ~input =
      let open Model.Proc.Syntax in
      let* v = Isets.Rw.read pid in
      match v with
      | Model.Value.Int _ -> Model.Proc.return 7
      | _ ->
        let* () = Isets.Rw.write pid (Model.Value.Int input) in
        Model.Proc.return input
  end)

let test_decidable_values_differential () =
  List.iter
    (fun (name, proto, inputs, depth, crashes, symmetric_ok) ->
      let name = Printf.sprintf "%s d=%d crashes=%d" name depth crashes in
      let values = function
        | Explore.Completed vs -> List.sort_uniq compare vs
        | _ -> Alcotest.fail (name ^ ": decidable_values did not complete")
      in
      let reference =
        match Reference.decidable_values_naive ~crashes proto ~inputs ~depth with
        | Ok vs -> List.sort_uniq compare vs
        | Error e -> Alcotest.failf "%s: naive walk failed: %s" name e
      in
      Alcotest.(check bool) (name ^ ": bivalent") true (List.length reference >= 2);
      List.iter
        (fun (rname, reduce) ->
          let vs =
            values (Explore.decidable_values ~reduce ~crashes proto ~inputs ~depth)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s decidable set" name rname)
            reference vs)
        (reductions_for ~symmetric_ok))
    ([
       ("rw", Consensus.Rw_protocol.protocol, [| 0; 1; 1 |], 5, 0, false);
       ("maxreg", Consensus.Maxreg_protocol.protocol, [| 0; 1; 1 |], 5, 0, true);
     ]
    @ List.concat_map
        (fun (name, proto) ->
          List.concat_map
            (fun depth ->
              List.map
                (fun crashes -> (name, proto, [| 0; 1 |], depth, crashes, false))
                [ 1; 2 ])
            [ 6; 7; 8 ])
        [
          ("rc-cas", Recovery.cas_durable);
          ("rc-tas-naive", Recovery.tas_naive);
          ("recover-seven", recover_seven);
        ]);
  List.iter
    (fun (crashes, want) ->
      match
        Reference.decidable_values_naive ~crashes recover_seven ~inputs:[| 0; 1 |] ~depth:6
      with
      | Ok vs ->
        Alcotest.(check (list int))
          (Printf.sprintf "recover-seven crashes=%d: reference value set" crashes)
          want vs
      | Error e -> Alcotest.failf "recover-seven: naive walk failed: %s" e)
    [ (0, [ 0; 1 ]); (1, [ 0; 1; 7 ]) ]

(* ------------------------------------------------------------------ *)
(* Sharded transposition table. *)

let test_transposition_plan_semantics () =
  let t = Transposition.create ~concurrent:false () in
  Alcotest.(check int) "sequential table has one shard" 1 (Transposition.shard_count t);
  (* first sight explores in full *)
  (match Transposition.plan t 42 99 ~depth:5 ~sleep:0 with
  | Transposition.Visit -> ()
  | _ -> Alcotest.fail "first visit must be Visit");
  (* covered revisit: same key, shallower, superset sleep *)
  (match Transposition.plan t 42 99 ~depth:5 ~sleep:0 with
  | Transposition.Hit -> ()
  | _ -> Alcotest.fail "exact revisit must be Hit");
  (match Transposition.plan t 42 99 ~depth:3 ~sleep:0b101 with
  | Transposition.Hit -> ()
  | _ -> Alcotest.fail "shallower revisit with more sleep must be Hit");
  (* deeper revisit was not covered *)
  (match Transposition.plan t 42 99 ~depth:7 ~sleep:0 with
  | Transposition.Visit -> ()
  | _ -> Alcotest.fail "deeper revisit must be Visit");
  (* incomparable sleep set at a covered depth: re-explore only the
     transitions every adequate prior pass had asleep *)
  let t2 = Transposition.create ~concurrent:false () in
  (match Transposition.plan t2 1 2 ~depth:4 ~sleep:0b011 with
  | Transposition.Visit -> ()
  | _ -> Alcotest.fail "fresh key must be Visit");
  (match Transposition.plan t2 1 2 ~depth:4 ~sleep:0b110 with
  | Transposition.Partial inter -> Alcotest.(check int) "intersection" 0b011 inter
  | _ -> Alcotest.fail "incomparable sleep must be Partial");
  (* distinct lane-b under equal lane-a is a distinct key *)
  (match Transposition.plan t2 1 3 ~depth:4 ~sleep:0b011 with
  | Transposition.Visit -> ()
  | _ -> Alcotest.fail "distinct key must be Visit");
  Alcotest.(check int) "two keys claimed" 2 (Transposition.stats t2)

let test_transposition_concurrent_stress () =
  let t = Transposition.create ~shards:16 ~concurrent:true () in
  Alcotest.(check int) "requested shard count" 16 (Transposition.shard_count t);
  let domains = 4 and keys = 2000 in
  let visits = Array.init domains (fun _ -> Array.make keys 0) in
  let spawned =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            (* every domain races over every key; exactly one domain may win
               the Visit for each *)
            for k = 0 to keys - 1 do
              match Transposition.plan t k (k * 31) ~depth:6 ~sleep:0 with
              | Transposition.Visit -> visits.(d).(k) <- visits.(d).(k) + 1
              | Transposition.Hit -> ()
              | Transposition.Partial _ ->
                Alcotest.fail "equal sleep sets can never yield Partial"
            done))
  in
  Array.iter Domain.join spawned;
  for k = 0 to keys - 1 do
    let total = Array.fold_left (fun acc v -> acc + v.(k)) 0 visits in
    if total <> 1 then
      Alcotest.failf "key %d claimed %d Visits (want exactly 1)" k total
  done;
  Alcotest.(check int) "every key claimed once" keys (Transposition.stats t)

(* ------------------------------------------------------------------ *)
(* Sharded symmetry cache under concurrent certification. *)

let test_symmetry_cache_concurrent () =
  Analysis.Symmetry.reset_run_cache ();
  let protos =
    [
      Consensus.Tugofwar_protocol.protocol;
      Consensus.Maxreg_protocol.protocol;
      Consensus.Cas_protocol.protocol;
      Consensus.Arith_protocols.add;
    ]
  in
  let certify () =
    List.map
      (fun p ->
        Analysis.Symmetry.certified
          (Analysis.Symmetry.certify_for_run p ~inputs:[| 1; 1; 1 |]))
      protos
  in
  let spawned = Array.init 4 (fun _ -> Domain.spawn certify) in
  let results = Array.map Domain.join spawned in
  Array.iter
    (fun r ->
      Alcotest.(check (list bool))
        "all protocols certify from every domain"
        [ true; true; true; true ]
        r)
    results;
  (* the cache survives a reset: recertification still works *)
  Analysis.Symmetry.reset_run_cache ();
  Alcotest.(check (list bool))
    "recertifies after reset"
    [ true; true; true; true ]
    (certify ())

(* ------------------------------------------------------------------ *)
(* Interning. *)

let test_intern_poly () =
  let module I = Model.Intern.Poly (struct
    type t = string * int
  end) in
  let t = I.create () in
  Alcotest.(check int) "empty" 0 (I.size t);
  let a = I.id t ("read", 0) in
  let b = I.id t ("write", 1) in
  let a' = I.id t ("read", 0) in
  Alcotest.(check int) "ids dense from zero" 0 a;
  Alcotest.(check int) "second key gets next id" 1 b;
  Alcotest.(check int) "re-interning is stable" a a';
  Alcotest.(check int) "size counts distinct keys" 2 (I.size t);
  Alcotest.(check (pair string int)) "value roundtrips" ("write", 1) (I.value t b);
  Alcotest.check_raises "unassigned id raises"
    (Invalid_argument "Intern.value: unknown id") (fun () -> ignore (I.value t 9))

let test_intern_custom_hash () =
  (* equality coarser than (=): ids must follow the custom equality *)
  let module I = Model.Intern.Make (struct
    type t = int

    let equal a b = a land 0xff = b land 0xff
    let hash x = x land 0xff
  end) in
  let t = I.create ~size:4 () in
  let a = I.id t 0x101 in
  let b = I.id t 0x201 in
  Alcotest.(check int) "custom equality conflates" a b;
  Alcotest.(check int) "one key interned" 1 (I.size t)

(* ------------------------------------------------------------------ *)
(* Bignum small-operand fast paths, differentially against the general
   multi-limb code. *)

let interesting =
  [
    0; 1; -1; 2; -2; 7; -7; 0x7fffffff; -0x7fffffff; 0x80000000; -0x80000000;
    (1 lsl 62) - 1; -((1 lsl 62) - 1); 1 lsl 62; max_int; min_int + 1; min_int;
  ]

let test_compare_int_grid () =
  List.iter
    (fun x ->
      let bx = Bignum.of_int x in
      List.iter
        (fun y ->
          let want = Bignum.compare bx (Bignum.of_int y) in
          Alcotest.(check int)
            (Printf.sprintf "compare_int %d %d" x y)
            want
            (Bignum.compare_int bx y);
          Alcotest.(check bool)
            (Printf.sprintf "equal_int %d %d" x y)
            (want = 0) (Bignum.equal_int bx y))
        interesting;
      (* also against a value the int grid cannot reach *)
      let huge = Bignum.pow (Bignum.of_int 2) 200 in
      Alcotest.(check bool) "huge > every int" true (Bignum.compare_int huge x > 0);
      Alcotest.(check bool) "-huge < every int" true
        (Bignum.compare_int (Bignum.neg huge) x < 0))
    interesting

(* Route the same arithmetic through the multi-limb path by shifting the
   operands far above one limb, and check the results agree. *)
let test_small_arith_fast_paths () =
  let shift = Bignum.pow (Bignum.of_int 2) 120 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ba = Bignum.of_int a and bb = Bignum.of_int b in
          (* add: (a·2^120 + b·2^120) / 2^120 = a + b *)
          let fast = Bignum.add ba bb in
          let slow, rem =
            Bignum.divmod (Bignum.add (Bignum.mul ba shift) (Bignum.mul bb shift)) shift
          in
          Alcotest.(check bool) "exact division" true (Bignum.is_zero rem);
          Alcotest.(check bool)
            (Printf.sprintf "add %d %d" a b)
            true (Bignum.equal fast slow);
          (* mul: (a·2^120 · b) / 2^120 = a·b *)
          let fast = Bignum.mul ba bb in
          let slow, rem = Bignum.divmod (Bignum.mul (Bignum.mul ba shift) bb) shift in
          Alcotest.(check bool) "exact division" true (Bignum.is_zero rem);
          Alcotest.(check bool)
            (Printf.sprintf "mul %d %d" a b)
            true (Bignum.equal fast slow))
        [ 0; 1; -1; 3; -3; 0x7fffffff; -0x40000001 ])
    [ 0; 1; -1; 5; -5; 0x7fffffff; -0x7fffffff ]

let test_divmod_small_fast_path () =
  List.iter
    (fun x ->
      let bx = Bignum.of_int x in
      List.iter
        (fun d ->
          let q, r = Bignum.divmod_small bx d in
          let q', r' = Bignum.divmod bx (Bignum.of_int d) in
          Alcotest.(check bool)
            (Printf.sprintf "divmod_small %d %d quotient" x d)
            true (Bignum.equal q q');
          Alcotest.(check bool)
            (Printf.sprintf "divmod_small %d %d remainder" x d)
            true
            (Bignum.equal (Bignum.of_int r) r'))
        [ 1; 2; 3; 7; 1000; 0x7fffffff ])
    [ 0; 1; -1; 17; -17; 0x7ffffffe; -0x7ffffffe; (1 lsl 61) + 5; -((1 lsl 61) + 5) ]

let test_to_int_valuation_fast_paths () =
  List.iter
    (fun x ->
      Alcotest.(check (option int))
        (Printf.sprintf "to_int (of_int %d)" x)
        (Some x)
        (Bignum.to_int (Bignum.of_int x)))
    interesting;
  (* 2-limb to_int: values needing both limbs *)
  let v = (123 lsl 31) lor 456 in
  Alcotest.(check (option int)) "two-limb to_int" (Some v) (Bignum.to_int (Bignum.of_int v));
  Alcotest.(check (option int))
    "huge value does not fit"
    None
    (Bignum.to_int (Bignum.pow (Bignum.of_int 2) 200));
  (* valuation p-adic on one-limb values, against the definition *)
  List.iter
    (fun (m, p, k) ->
      let x = Bignum.mul (Bignum.of_int m) (Bignum.pow (Bignum.of_int p) k) in
      let got_k, rest = Bignum.valuation x p in
      Alcotest.(check int) (Printf.sprintf "valuation %d^%d·%d" p k m) k got_k;
      Alcotest.(check bool) "cofactor" true (Bignum.equal rest (Bignum.of_int m)))
    [ (1, 2, 0); (3, 2, 5); (-3, 2, 5); (7, 5, 3); (-1, 3, 9); (11, 7, 0) ]

let () =
  Alcotest.run "perf_core"
    [
      ( "fingerprints",
        [
          Alcotest.test_case "registry partition agreement" `Slow
            test_fingerprint_partition_registry;
          Alcotest.test_case "init-write aliasing" `Quick test_init_write_aliasing;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "probe differential over registry" `Slow
            test_scratch_vs_persistent;
          Alcotest.test_case "undecided classification" `Quick test_scratch_undecided;
          Alcotest.test_case "overflow locations" `Quick test_scratch_overflow;
        ] );
      ( "engines",
        [
          Alcotest.test_case "verdicts across engines x reductions" `Slow
            test_engine_reduction_differential;
          Alcotest.test_case "witness schedules across engines" `Quick
            test_witness_schedule_differential;
          Alcotest.test_case "decidable-value sets vs naive walk" `Slow
            test_decidable_values_differential;
        ] );
      ( "transposition",
        [
          Alcotest.test_case "claim-list plan semantics" `Quick
            test_transposition_plan_semantics;
          Alcotest.test_case "concurrent visit uniqueness" `Quick
            test_transposition_concurrent_stress;
        ] );
      ( "symmetry-cache",
        [
          Alcotest.test_case "concurrent certification" `Quick
            test_symmetry_cache_concurrent;
        ] );
      ( "intern",
        [
          Alcotest.test_case "poly table basics" `Quick test_intern_poly;
          Alcotest.test_case "custom equality" `Quick test_intern_custom_hash;
        ] );
      ( "bignum-fast-paths",
        [
          Alcotest.test_case "compare_int grid" `Quick test_compare_int_grid;
          Alcotest.test_case "add/mul vs multi-limb" `Quick test_small_arith_fast_paths;
          Alcotest.test_case "divmod_small" `Quick test_divmod_small_fast_path;
          Alcotest.test_case "to_int and valuation" `Quick
            test_to_int_valuation_fast_paths;
        ] );
    ]
