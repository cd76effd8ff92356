(** The shared result-record schema.

    One record describes one unit of verification work on one protocol: a
    campaign task, or a bench measurement.  The campaign store persists
    records content-addressed by [task]; the bench writers
    ([BENCH_modelcheck.json], [BENCH_reduce.json], [BENCH_campaign.json])
    emit lists of the same records, so campaign and bench outputs are
    diffable with the same tooling. *)

type status =
  | Verified  (** exploration/run completed with no violation *)
  | Violation of {
      kind : string;         (** agreement, validity, obstruction-freedom, … *)
      message : string;
      schedule : int list;   (** witness schedule, execution order *)
      probe : int option;    (** solo-probe pid of the witness, if any *)
    }
  | Timeout  (** the wall-clock deadline (or fuel) expired first *)
  | Crash of string
      (** the task raised; campaign executors record the exception and move
          on — one diverging protocol cannot sink a sweep *)

val status_name : status -> string
(** ["verified"], ["violation:<kind>"], ["timeout"], ["crash"]. *)

type t = {
  task : string;      (** content-addressed task fingerprint (16 hex chars) *)
  kind : string;      (** e.g. ["check"], ["stress"], ["bench-mc"] *)
  row : string;       (** registry row id ({!Hierarchy.row.id}) *)
  protocol : string;  (** protocol name *)
  n : int;
  depth : int;        (** exploration depth, or schedule-prefix length *)
  engine : string;
      (** ["naive"], ["memo"], ["driver"]; stores written before the
          parallel engine was removed also hold ["parallel-k"], read back
          and rendered like any other name *)
  reduce : string;    (** ["none"], ["commute"], ["symmetric"], ["full"] *)
  observers : string list;
      (** observer names the check ran under ({!Task.t.observe}); [[]]
          means the default set ({!Observer.defaults}).  Serialized only when
          non-empty, so pre-observer records parse back unchanged. *)
  crashes : int;
      (** crash budget of the check ([Explore.run ?crashes]); [0] means a
          crash-free check.  Serialized only when positive, so crash-free
          records keep their pre-crash-subsystem bytes. *)
  status : status;
  configs : int;
  probes : int;
  dedup_hits : int;
  sleep_pruned : int;
  truncated : bool;
  elapsed : float;    (** wall-clock seconds of the work proper *)
  extra : (string * Json.t) list;
      (** producer-specific fields (bench ratios, stress step counts, …) —
          round-tripped verbatim *)
}

val make :
  task:string ->
  kind:string ->
  row:string ->
  protocol:string ->
  n:int ->
  depth:int ->
  engine:string ->
  reduce:string ->
  ?observers:string list ->
  ?crashes:int ->
  status:status ->
  ?configs:int ->
  ?probes:int ->
  ?dedup_hits:int ->
  ?sleep_pruned:int ->
  ?truncated:bool ->
  ?elapsed:float ->
  ?extra:(string * Json.t) list ->
  unit ->
  t
(** Counters default to 0 / [false] / [0.0] / [[]]. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json r) = Ok r]. *)

val same_verdict : t -> t -> bool
(** Equality on everything that identifies the work and its verdict — task,
    kind, row, protocol, n, depth, engine, reduce, observers, crashes,
    status —
    ignoring the
    timing and search counters that legitimately differ between two writers
    executing the same task (elapsed, configs, probes, …).  This is the
    dedupe invariant of multi-writer campaigns: any two records written for
    one task fingerprint must satisfy [same_verdict]. *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering (row, n, engine/reduce, status, timing). *)
