(* Transposition table over two-word configuration fingerprints.

   The [`Memo] engine and the bivalence walk use a single unlocked shard
   ([~concurrent:false]).  The locked, sharded mode ([~concurrent:true],
   shard chosen by the fingerprint's low bits) served the parallel engine,
   which is gone; it is kept only because the benchmark's shadow walk
   ([perfbench/shadow.ml]) still calls [create ~concurrent], and goes with
   that file.  Entries are {e claim lists}: each claim [(d, S)] records
   one exploration pass through the keyed configuration — "every enabled
   transition outside the sleep set [S] has been (or is being) explored to
   remaining depth [d]".  Claims are inserted before the subtree is walked,
   matching the engine's historical replace-then-visit order; a stopped run
   reports [Timed_out]/[Falsified], never a completed exploration, so a
   claim whose subtree was cut short never backs a [Completed] verdict.

   [plan] implements sleep sets with state matching and partial
   re-exploration (Godefroid's Algorithm 5, generalized to depth-bounded
   claims): a revisit covered by some claim is pruned outright ([Hit]); a
   revisit at a depth no prior pass reached re-explores in full ([Visit]);
   and a revisit whose depth is covered but whose sleep set is incomparable
   re-explores {e only} the transitions every adequate prior pass had
   asleep ([Partial] carries their intersection).  The old single-entry
   table treated the third case as a full re-visit, which is where the
   commutativity reduction's config counts regressed past plain memoization
   on the RED bench. *)

type plan =
  | Hit
  | Visit
  | Partial of int

type shard = {
  mu : Mutex.t;
  (* (lane_a, lane_b) -> claims [(depth, sleep); ...], newest first; no
     claim dominates another *)
  tbl : (int * int, (int * int) list) Hashtbl.t;
}

type t = {
  shards : shard array;
  mask : int;
  concurrent : bool;
}

(* Keep claim lists short: claims only enable pruning, so dropping one costs
   re-exploration, never soundness. *)
let max_claims = 4

let create ?shards ~concurrent () =
  let shards =
    match shards with
    | Some s when s > 0 ->
      (* round up to a power of two so the low-bit mask is uniform *)
      let rec pow2 k = if k >= s then k else pow2 (k * 2) in
      pow2 1
    | _ -> if concurrent then 64 else 1
  in
  {
    shards =
      Array.init shards (fun _ -> { mu = Mutex.create (); tbl = Hashtbl.create 1024 });
    mask = shards - 1;
    concurrent;
  }

let shard_count t = Array.length t.shards

(* [covers (d1, s1) (d2, s2)]: a pass at depth [d1] from sleep set [s1]
   explores a superset of what a pass at depth [d2] from sleep set [s2]
   would. *)
let covers (d1, s1) (d2, s2) = d1 >= d2 && s1 land lnot s2 = 0

let locked shard f =
  Mutex.lock shard.mu;
  let r = try f () with e -> Mutex.unlock shard.mu; raise e in
  Mutex.unlock shard.mu;
  r

let plan t a b ~depth ~sleep =
  let shard = t.shards.(a land t.mask) in
  let decide () =
    let key = (a, b) in
    let claims = Option.value (Hashtbl.find_opt shard.tbl key) ~default:[] in
    if List.exists (fun c -> covers c (depth, sleep)) claims then Hit
    else begin
      (* prior passes deep enough to cover this revisit's subtrees *)
      let applicable = List.filter (fun (d', _) -> d' >= depth) claims in
      let claim, result =
        match applicable with
        | [] -> ((depth, sleep), Visit)
        | _ ->
          (* a transition needs (re-)exploration only if every adequate
             prior pass had it asleep *)
          let inter = List.fold_left (fun m (_, s') -> m land s') (-1) applicable in
          ((depth, sleep land inter), Partial inter)
      in
      let kept = List.filter (fun c -> not (covers claim c)) claims in
      let kept =
        (* cap the list; dropping the oldest surviving claim is sound *)
        if List.length kept >= max_claims then
          List.filteri (fun i _ -> i < max_claims - 1) kept
        else kept
      in
      Hashtbl.replace shard.tbl key (claim :: kept);
      result
    end
  in
  if t.concurrent then locked shard decide else decide ()

let stats t =
  Array.fold_left (fun acc s -> acc + Hashtbl.length s.tbl) 0 t.shards
