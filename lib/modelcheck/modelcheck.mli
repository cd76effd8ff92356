(** Bounded exhaustive verification of consensus protocols.

    Explores {e every} schedule of a protocol up to a step bound — possible
    because processes are pure step machines, so a configuration can be
    stepped along all branches.  At each explored configuration the checker
    can probe obstruction-freedom and agreement: run each undecided process
    solo (it must decide), then drive the rest sequentially and demand a
    consistent, valid decision set.

    This is the executable counterpart of the paper's proof obligations:
    agreement and validity in all executions, solo termination from every
    reachable configuration.  A violation is reported as a structured
    {!Explore.failure} carrying a replayable, shrunk schedule witness — the
    adversarial interleaving as data. *)

type stats = {
  configs : int;        (** configurations visited *)
  probes : int;         (** solo/termination probes run *)
  truncated : bool;     (** some branch hit the depth bound *)
}

val failure_message : Explore.failure -> string
(** The violation message — string-compatible with the pre-witness API
    (re-export of {!Explore.failure_message}). *)

val explore :
  ?probe:[ `Leaves | `Everywhere | `Never ] ->
  ?solo_fuel:int ->
  ?engine:[ `Naive | `Memo | `Parallel of int ] ->
  ?shrink:bool ->
  ?reduce:Explore.reduction ->
  ?crashes:int ->
  ?force:bool ->
  ?notify_symmetry:(Analysis.Symmetry.verdict -> unit) ->
  ?deadline:float ->
  ?observers:Observer.t list ->
  Consensus.Proto.t ->
  inputs:int array ->
  depth:int ->
  stats Explore.verdict
(** [explore proto ~inputs ~depth] walks the full schedule tree to [depth]
    steps.  Probing (default [`Leaves]: only where the depth bound cuts the
    tree off, or [`Everywhere]: at every configuration) checks that each
    undecided process decides within [solo_fuel] solo steps and that the
    resulting decisions agree and are valid.

    [engine] selects the exploration strategy (default [`Naive]): [`Memo]
    dedups configurations reached by commuting independent steps via a
    transposition table on {!Model.Machine.Make.fingerprint}; [`Parallel k]
    additionally splits the schedule tree across [k] domains.  All engines
    return the same verdict; [`Memo]/[`Parallel] visit fewer configurations
    and may report [truncated] differently at the same bound.  On a
    violation the reported witness has been replayed for confirmation and
    (unless [shrink:false]) minimized by delta debugging.  [reduce] layers
    commutativity/symmetry reduction over the engine (default off — see
    {!Explore.reduction} for when each half is sound).  Symmetric reduction
    is gated on the pid-symmetry certifier: an uncertified protocol raises
    {!Explore.Uncertified_symmetry} unless [force] is set, and
    [notify_symmetry] receives the certification verdict.  [deadline]
    bounds the wall-clock budget: an expired run returns
    [Explore.Timed_out] with the partial counters instead of running
    unbounded.  [crashes] (default 0) is the crash–recovery budget —
    exhaustive crash-point enumeration under Golab's model; see
    {!Explore.run}.  [observers] swaps the hard-coded agreement/validity/probe
    checks for a pluggable {!Observer} set — see {!Explore.run}.  This is a
    thin wrapper over {!Explore.run}, which also exposes dedup/timing
    stats, witness replay ({!Explore.replay}) and iterative deepening
    ({!Explore.deepen}). *)

val decidable_values :
  ?solo_fuel:int ->
  ?reduce:Explore.reduction ->
  ?crashes:int ->
  ?force:bool ->
  ?notify_symmetry:(Analysis.Symmetry.verdict -> unit) ->
  ?deadline:float ->
  ?observers:Observer.t list ->
  Consensus.Proto.t ->
  inputs:int array ->
  depth:int ->
  (int list, string) result
(** The set of values some solo continuation decides from some configuration
    reachable within [depth] steps — ≥ 2 values demonstrate bivalence
    (Lemma 6.4).  Runs on the [`Memo] engine's fingerprint transposition
    table ({!Explore.decidable_values}), so commuting schedules are walked
    once; [reduce] as in {!explore}.  [deadline] as in {!explore}, but
    flattened to [Error _]: a partial value set would not witness anything,
    so a timeout here is just a failure to answer. *)
