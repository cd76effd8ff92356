(** Transposition table over two-word configuration fingerprints.

    The [`Memo] engine uses one unlocked shard ([~concurrent:false]).  The
    locked, sharded mode served the removed parallel engine and is kept
    only for the benchmark's shadow walk ([perfbench/shadow.ml]).

    Entries are {e claim lists}: a claim [(d, S)] records one exploration
    pass — every enabled transition outside the sleep set [S] explored to
    remaining depth [d].  Claims are inserted optimistically, before the
    subtree is walked; see [transposition.ml] for why that is sound. *)

type t

type plan =
  | Hit  (** some prior pass covers this revisit — skip it entirely *)
  | Visit
      (** no prior pass reached this depth — explore in full (a claim for
          this pass has been recorded) *)
  | Partial of int
      (** prior passes cover the depth but left some transitions asleep;
          the payload is the {e intersection} of their sleep sets.  Explore
          only transitions in it (minus the current sleep set), and skip
          the per-configuration work — the state itself was checked when
          first visited.  A claim for this pass has been recorded. *)

val create : ?shards:int -> concurrent:bool -> unit -> t
(** [create ~concurrent ()] makes an empty table.  [shards] (rounded up to
    a power of two) defaults to 64 when [concurrent], else 1.  With
    [concurrent:false] all locking is skipped — the engines'
    configuration. *)

val shard_count : t -> int

val plan : t -> int -> int -> depth:int -> sleep:int -> plan
(** [plan t a b ~depth ~sleep] consults and updates the table for the
    configuration fingerprinted [(a, b)], reached with [depth] remaining
    steps and the pid bitmask [sleep] asleep.  Atomic per shard. *)

val stats : t -> int
(** Total number of distinct fingerprints claimed across all shards. *)
