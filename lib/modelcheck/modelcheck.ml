type stats = {
  configs : int;
  probes : int;
  truncated : bool;
}

let failure_message = Explore.failure_message

(* The exploration engines live in [Explore]; this is the historical entry
   point, kept as a thin wrapper so existing callers (synthesis, tests,
   executables) keep their signature.  Violations now carry a replayable,
   shrunk witness; [failure_message] recovers the old string. *)
let explore ?probe ?solo_fuel ?engine ?shrink ?reduce ?crashes ?force ?notify_symmetry
    ?deadline ?observers p ~inputs ~depth =
  match
    Explore.run ?probe ?solo_fuel ?engine ?shrink ?reduce ?crashes ?force
      ?notify_symmetry ?deadline ?observers p ~inputs ~depth
  with
  | Explore.Completed (s : Explore.stats) ->
    Explore.Completed
      { configs = s.Explore.configs; probes = s.Explore.probes; truncated = s.Explore.truncated }
  | Falsified f -> Falsified f
  | Timed_out t -> Timed_out t

(* Bivalence on the shared memoized DFS core (Explore's fingerprint
   transposition table); errors flattened back to strings for the callers
   that predate witnesses — a timeout flattens too, since for bivalence a
   partial value set is not a sound answer. *)
let decidable_values ?solo_fuel ?reduce ?crashes ?force ?notify_symmetry ?deadline
    ?observers p ~inputs ~depth =
  match
    Explore.decidable_values ?solo_fuel ?reduce ?crashes ?force
      ?notify_symmetry ?deadline ?observers p ~inputs ~depth
  with
  | Explore.Completed vs -> Ok vs
  | Falsified f -> Error (failure_message f)
  | Timed_out t ->
    Error
      (Printf.sprintf "timed out after %.3gs (%d configurations visited)" t.deadline
         t.partial.configs)
