(* Benchmark-side tracing.

   Two kinds of record, both kept in memory until the run ends:

   - [layer] accumulators: call count and busy nanoseconds of one layer's
     public entry point, timed around each call by the benchmark's own code
     (the library carries no instrumentation).  Fine-grained layers are
     called hundreds of thousands of times per check, so they are summed
     rather than logged call by call.
   - [span]s: named intervals with a parent id (pass, check, phase), written
     out as JSON lines by [write].  A span records how much each layer
     accumulator it is given grew while it was open, so a span's self time
     is its duration minus those busy times. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns /. 1e9

type layer = { mutable calls : int; mutable ns : int }

let layer () = { calls = 0; ns = 0 }

(* Charge one call that started at [t0] (from [now_ns]). *)
let charge l t0 =
  l.calls <- l.calls + 1;
  l.ns <- l.ns + (now_ns () - t0)

let busy_s l = seconds l.ns

type span = {
  id : int;
  parent : int;  (** [0] for a root span *)
  name : string;
  start_ns : int;
  stop_ns : int;
  layers : (string * layer) list;
}

type log = {
  mutable spans : span list;  (** closed spans, newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (** ids of the open spans, innermost first *)
}

let create () = { spans = []; next_id = 1; open_ = [] }

(* Run [f] inside a span named [name], child of the innermost open span,
   recording what [f] charged to the accumulators [layers] names.  [layers]
   is called when the span opens and again when it closes, so it may hand
   over accumulators that [f] itself creates. *)
let span log ?(layers = fun () -> []) name f =
  let id = log.next_id in
  log.next_id <- id + 1;
  let parent = match log.open_ with p :: _ -> p | [] -> 0 in
  log.open_ <- id :: log.open_;
  let before = List.map (fun (n, l) -> (n, (l.calls, l.ns))) (layers ()) in
  let start_ns = now_ns () in
  let close () =
    let stop_ns = now_ns () in
    log.open_ <- List.tl log.open_;
    let grown =
      List.map
        (fun (n, l) ->
          let calls, ns = Option.value (List.assoc_opt n before) ~default:(0, 0) in
          (n, { calls = l.calls - calls; ns = l.ns - ns }))
        (layers ())
    in
    log.spans <- { id; parent; name; start_ns; stop_ns; layers = grown } :: log.spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let write log path =
  let module J = Campaign.Json in
  let t_origin =
    List.fold_left (fun m s -> min m s.start_ns) max_int log.spans
  in
  let oc = open_out path in
  List.iter
    (fun s ->
      let line =
        J.Obj
          [
            ("id", J.Int s.id);
            ("parent", J.Int s.parent);
            ("name", J.String s.name);
            ("start_s", J.Float (seconds (s.start_ns - t_origin)));
            ("dur_s", J.Float (seconds (s.stop_ns - s.start_ns)));
            ( "layers",
              J.Obj
                (List.map
                   (fun (n, l) ->
                     (n, J.Obj [ ("calls", J.Int l.calls); ("busy_s", J.Float (busy_s l)) ]))
                   s.layers) );
          ]
      in
      output_string oc (J.to_string line);
      output_char oc '\n')
    (List.rev log.spans);
  close_out oc
