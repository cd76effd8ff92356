(** Declarative campaign specifications.

    A spec is a grid — registry rows × process counts × depths × engines ×
    reductions, plus stress seeds — with include/exclude row filters.
    {!tasks} expands it into the concrete task list the executor runs; the
    expansion is deterministic, so the same spec always names the same
    content-addressed tasks and a re-run resumes instead of restarting. *)

type t = {
  ells : int list;  (** ℓ-buffer instantiations, as in {!Hierarchy.rows} *)
  include_rows : string list;  (** row ids to keep; empty means every row *)
  exclude_rows : string list;
  ns : int list;
  depths : int list;
  engines : Explore.engine list;
  reduces : Explore.reduction list;
  probe : Explore.probe_policy;
  solo_fuel : int;
  deadline : float option;  (** per-task wall-clock budget for checks *)
  observe : string list;
      (** observer names ({!Observer.of_names}; ["default"] expands) applied
          to every [Check] task; empty means {!Observer.defaults}.
          Validated and canonicalized by {!tasks}, so a misspelt name fails
          the whole expansion rather than crashing tasks one by one. *)
  crashes : int;
      (** crash budget applied to every [Check] task ([Explore.run
          ?crashes]).  [0] (the default) expands exactly the historical
          crash-free grid; a positive budget additionally admits the
          recovery rows ([rc-] prefix) into the registry the row filters
          see. *)
  stress_seeds : int list;  (** one stress task per (row, n, seed) *)
  stress_prefix : int;
  stress_max_burst : int;
  stress_fuel : int;
}

val default : t
(** Every row, [ns = [2; 3]], depths [[6]], memo engine, commute reduction,
    10 s deadline, two stress seeds. *)

val smoke : t
(** The CI preset: every registry row ([ells = [1; 2]]) at [n = 2],
    depth 4, memo engine with commutativity reduction, a 10 s per-task
    deadline and one stress seed — small enough for a pull-request gate,
    wide enough to cover the full Table 1 registry. *)

val engine_of_string : string -> (Explore.engine, string) result
(** ["naive"] or ["memo"].  ["parallel"] and ["parallel-<k>"], the names of
    the removed parallel engine, are an [Error] naming [memo] as its
    replacement (the executor's domains run whole tasks in parallel). *)

val reduction_of_string : string -> (Explore.reduction, string) result
(** ["none"], ["commute"], ["symmetric"], ["full"]. *)

val rotate : by:int -> 'a list -> 'a list
(** Left-rotate a list by [by mod length] (negative [by] allowed).  Used by
    shared-store workers to start claiming at a pid-dependent offset, so a
    fleet launched at once spreads over the grid instead of contending on
    the first task. *)

val tasks : t -> (Task.t list, string) result
(** Expand the grid: per (row, n), one [Check] task per depth × engine ×
    reduction and one [Stress] task per stress seed.  [Error _] if a filter
    names an unknown row id, a grid dimension is empty, or [observe] names
    an unknown observer. *)
