(** One unit of campaign work, content-addressed and crash-isolated.

    A task names a registry row, a process count, and either a bounded
    exhaustive check (engine × reduction × depth, with a wall-clock
    deadline) or a seeded stress run (a deterministic bursty-random
    adversary driven to completion).  {!fingerprint} is the store key:
    it hashes the protocol's observable behaviour — not its name — plus
    every parameter that can change the verdict, so re-running a campaign
    skips exactly the tasks whose answer is already known, and editing a
    protocol invalidates its cached results. *)

type work =
  | Check of {
      engine : Explore.engine;
      reduce : Explore.reduction;
      depth : int;
      probe : Explore.probe_policy;
      crashes : int;
          (** crash budget for exhaustive crash-point enumeration
              ([Explore.run ?crashes]); [0] — the default everywhere — is
              the crash-free check, whose fingerprint is byte-identical to
              one minted before the crash subsystem existed; a positive
              budget's fingerprint carries a versioned suffix, so records
              stored before [agreement] remembered a crashed process's
              first decision are not reused *)
    }  (** bounded exhaustive exploration, as in [modelcheck] *)
  | Stress of { seed : int; prefix : int; max_burst : int; fuel : int }
      (** one full run under [Sched.random_bursts ~seed ~max_burst] for
          [prefix] steps then a sequential finish, checked for
          agreement/validity; [fuel] bounds total steps ([Timeout] past
          it).  Deterministic in [seed]. *)

type t = {
  row : Hierarchy.row;
  n : int;
  inputs : int array;  (** [i mod n], or [i land 1] for binary-only rows *)
  solo_fuel : int;
  deadline : float option;  (** wall-clock budget for [Check] work *)
  observe : string list;
      (** observer names ({!Observer.of_names}) checked during [Check]
          work; resolved at {!run} time, so an unknown name yields a
          [Crash] record rather than an exception.  Empty — always the
          case for [Stress] — means the default
          agreement/validity/solo-termination set ({!Observer.defaults}).
          A non-empty set is part of the task's {!fingerprint}, so an empty
          set keeps the store addresses tasks had before observers
          existed. *)
  work : work;
}

val check :
  ?probe:Explore.probe_policy ->
  ?solo_fuel:int ->
  ?deadline:float ->
  ?observe:string list ->
  ?crashes:int ->
  engine:Explore.engine ->
  reduce:Explore.reduction ->
  depth:int ->
  Hierarchy.row ->
  n:int ->
  t

val stress :
  ?solo_fuel:int ->
  ?fuel:int ->
  seed:int ->
  prefix:int ->
  max_burst:int ->
  Hierarchy.row ->
  n:int ->
  t

val engine_name : Explore.engine -> string
(** ["naive"], ["memo"]: the [engine] string of the task's {!Record.t}
    and part of its {!fingerprint}, so an engine's store addresses never
    change. *)

val reduce_name : Explore.reduction -> string
(** ["none"], ["commute"], ["symmetric"], ["full"]. *)

val describe : t -> string
(** One-line human description (row, n, work parameters). *)

val digest : Consensus.Proto.t -> inputs:int array -> params:string -> string
(** The content-addressing primitive: a 16-hex-char digest of the
    protocol's observable behaviour (configuration fingerprints along two
    fixed deterministic schedules from the initial configuration) mixed
    with [params].  Also used directly by the bench writers, so bench
    records share the campaign store's key space. *)

val fingerprint : t -> string
(** [digest] of the task's protocol, inputs and all work parameters. *)

val run : t -> Record.t
(** Execute the task and report a {!Record.t} (kind ["check"] or
    ["stress"]).  Never raises: protocol exceptions — including a refused
    symmetric reduction — come back as [Record.Crash]. *)
