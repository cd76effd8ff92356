(* The host fingerprint printed with every result: what a number was measured
   on, and of which source tree. *)

(* Reads to end of file: files under /proc report no length. *)
let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some text ->
    let model =
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.trim (String.sub line 0 i) = "model name" ->
            Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> None)
        (String.split_on_char '\n' text)
    in
    Option.value model ~default:"unknown"

(* The checked-out commit, read from [.git] without running git; [None]
   outside a git work tree (the benchmark also runs from plain exports). *)
let commit () =
  let trim = String.trim in
  match read_file ".git/HEAD" with
  | None -> None
  | Some head ->
    let head = trim head in
    let prefix = "ref: " in
    let pl = String.length prefix in
    if String.length head > pl && String.sub head 0 pl = prefix then begin
      let name = String.sub head pl (String.length head - pl) in
      match read_file (Filename.concat ".git" name) with
      | Some sha -> Some (trim sha)
      | None ->
        Option.bind (read_file ".git/packed-refs") (fun packed ->
            List.find_map
              (fun line ->
                match String.split_on_char ' ' (trim line) with
                | [ sha; r ] when r = name -> Some sha
                | _ -> None)
              (String.split_on_char '\n' packed))
    end
    else Some head

(* A digest of every library source file, so results from trees without git
   metadata still say which code they measured. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Option.iter (fun s -> Buffer.add_string buf (Digest.to_hex (Digest.string s))) (read_file p))
    (files "lib");
  Digest.to_hex (Digest.string (Buffer.contents buf))

let json () =
  let module J = Campaign.Json in
  let opt = function Some s -> J.String s | None -> J.Null in
  J.Obj
    [
      ("cores", J.Int (Domain.recommended_domain_count ()));
      ("cpu", J.String (cpu_model ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("ocamlrunparam", opt (Sys.getenv_opt "OCAMLRUNPARAM"));
      ("commit", opt (commit ()));
      ("source_digest", J.String (source_digest ()));
    ]
