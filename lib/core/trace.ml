type kind =
  | Trigger
  | Sample of { prop : string; value : bool }
  | Verdict_change of { property : string; verdict : Verdict.t }
  | Handshake_armed of { source : string }
  | Test_case_begin of { index : int; op : string }
  | Test_case_end of { index : int; result : string option }
  | Watchdog_fired of { index : int; op : string }
  | Software_crashed of { reason : string }

type event = { seq : int; time_unit : int; kind : kind }

type sink = { on_event : event -> unit; on_close : unit -> unit }

type t = {
  active : bool;
  mutable sinks : sink list;  (* reversed attachment order *)
  mutable seq : int;
  mutable time_source : unit -> int;
  mutable triggers : int;
  mutable samples : int;
  started_at : float;
}

let zero () = 0

let null =
  {
    active = false;
    sinks = [];
    seq = 0;
    time_source = zero;
    triggers = 0;
    samples = 0;
    started_at = 0.0;
  }

let create () =
  {
    active = true;
    sinks = [];
    seq = 0;
    time_source = zero;
    triggers = 0;
    samples = 0;
    started_at = Unix.gettimeofday ();
  }

let enabled bus = bus.active

let attach bus sink =
  if not bus.active then invalid_arg "Trace.attach: the null bus has no sinks";
  bus.sinks <- sink :: bus.sinks

let set_time_source bus source = bus.time_source <- source

(* A bus without sinks only counts: nobody reads the event record or its
   time stamp, so neither is built. *)
let emit bus kind =
  if bus.active then begin
    (match kind with
    | Trigger -> bus.triggers <- bus.triggers + 1
    | Sample _ -> bus.samples <- bus.samples + 1
    | _ -> ());
    let seq = bus.seq in
    bus.seq <- seq + 1;
    match bus.sinks with
    | [] -> ()
    | sinks ->
      let event = { seq; time_unit = bus.time_source (); kind } in
      List.iter (fun sink -> sink.on_event event) sinks
  end

let has_sinks bus = match bus.sinks with [] -> false | _ :: _ -> true

(* what [emit] does for [n] samples on a bus no sink reads *)
let count_samples bus n =
  if has_sinks bus then invalid_arg "Trace.count_samples: the bus has sinks";
  if bus.active then begin
    bus.samples <- bus.samples + n;
    bus.seq <- bus.seq + n
  end

let close bus = List.iter (fun sink -> sink.on_close ()) bus.sinks

let events bus = bus.seq
let triggers bus = bus.triggers
let samples bus = bus.samples

let triggers_per_sec bus =
  if not bus.active then 0.0
  else
    let elapsed = Unix.gettimeofday () -. bus.started_at in
    if elapsed <= 0.0 then 0.0 else float_of_int bus.triggers /. elapsed

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let kind_label = function
  | Trigger -> "trigger"
  | Sample _ -> "sample"
  | Verdict_change _ -> "verdict_change"
  | Handshake_armed _ -> "handshake_armed"
  | Test_case_begin _ -> "test_case_begin"
  | Test_case_end _ -> "test_case_end"
  | Watchdog_fired _ -> "watchdog_fired"
  | Software_crashed _ -> "software_crashed"

(* top-level, not closures over [buffer]: those would be allocated for
   every event *)
let add_str buffer key value =
  Buffer.add_string buffer ",\"";
  Buffer.add_string buffer key;
  Buffer.add_string buffer "\":\"";
  Buffer.add_string buffer (Obs.Json.escape value);
  Buffer.add_char buffer '"'

let add_num buffer key value =
  Buffer.add_string buffer ",\"";
  Buffer.add_string buffer key;
  Buffer.add_string buffer "\":";
  Obs.Json.add_int buffer value

(* Every line starts with {"seq":N; the tail is everything after N. The
   campaign renders tails in its workers, where the global seq is not yet
   known, and writes the seq in front of each under the reassembly lock.
   The tail appends straight into the caller's buffer: no member list, no
   intermediate strings. The bytes are exactly those of [Obs.Json.obj]
   over the same members; the goldens pin the format. *)
let tail_into buffer (event : event) =
  Buffer.add_string buffer ",\"tu\":";
  Obs.Json.add_int buffer event.time_unit;
  Buffer.add_string buffer ",\"event\":\"";
  Buffer.add_string buffer (kind_label event.kind);
  Buffer.add_char buffer '"';
  (match event.kind with
  | Trigger -> ()
  | Sample { prop; value } ->
    add_str buffer "prop" prop;
    Buffer.add_string buffer
      (if value then ",\"value\":true" else ",\"value\":false")
  | Verdict_change { property; verdict } ->
    add_str buffer "property" property;
    add_str buffer "verdict" (Verdict.to_string verdict)
  | Handshake_armed { source } -> add_str buffer "source" source
  | Test_case_begin { index; op } ->
    add_num buffer "index" index;
    add_str buffer "op" op
  | Test_case_end { index; result } -> (
    add_num buffer "index" index;
    match result with
    | Some result -> add_str buffer "result" result
    | None -> Buffer.add_string buffer ",\"result\":null")
  | Watchdog_fired { index; op } ->
    add_num buffer "index" index;
    add_str buffer "op" op
  | Software_crashed { reason } -> add_str buffer "reason" reason);
  Buffer.add_char buffer '}'

let seq_prefix = "{\"seq\":"

let event_to_json_into buffer (event : event) =
  Buffer.add_string buffer seq_prefix;
  Obs.Json.add_int buffer event.seq;
  tail_into buffer event

let event_to_json (event : event) =
  let buffer = Buffer.create 64 in
  event_to_json_into buffer event;
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Pre-rendered JSONL                                                  *)

module Rendered = struct
  (* Tails, each with its newline, packed into line-aligned chunks: a
     chunk is sealed when the next line does not fit. Chunks start small
     and double up to [max_chunk], so a short job holds little and a long
     one allocates its trace in 64 KiB blocks, never one doubling buffer
     copied at the end. [lengths] records every line's length, so writing
     never scans for newlines. *)
  let max_chunk = 65536
  let first_chunk = 1024

  type t = {
    scratch : Buffer.t; (* the line being rendered *)
    mutable sealed : (Bytes.t * int) list; (* full chunks, newest first *)
    mutable chunk : Bytes.t;
    mutable fill : int;
    mutable lengths : int array;
    mutable lines : int;
  }

  let create () =
    {
      scratch = Buffer.create 256;
      sealed = [];
      chunk = Bytes.create first_chunk;
      fill = 0;
      lengths = Array.make 256 0;
      lines = 0;
    }

  let lines rendered = rendered.lines

  let add rendered event =
    let scratch = rendered.scratch in
    Buffer.clear scratch;
    tail_into scratch event;
    Buffer.add_char scratch '\n';
    let length = Buffer.length scratch in
    if rendered.fill + length > Bytes.length rendered.chunk then begin
      rendered.sealed <- (rendered.chunk, rendered.fill) :: rendered.sealed;
      let size = min max_chunk (2 * Bytes.length rendered.chunk) in
      rendered.chunk <- Bytes.create (max size length);
      rendered.fill <- 0
    end;
    Buffer.blit scratch 0 rendered.chunk rendered.fill length;
    rendered.fill <- rendered.fill + length;
    if rendered.lines = Array.length rendered.lengths then begin
      let grown = Array.make (2 * rendered.lines) 0 in
      Array.blit rendered.lengths 0 grown 0 rendered.lines;
      rendered.lengths <- grown
    end;
    rendered.lengths.(rendered.lines) <- length;
    rendered.lines <- rendered.lines + 1

  let sink rendered = { on_event = add rendered; on_close = (fun () -> ()) }

  (* the lines of one chunk, the first being line [line] of the job; line
     [i] gets seq [seq + i]. Returns the next line. *)
  let write_chunk buffer lengths ~line ~seq (chunk, fill) =
    let rec go line pos =
      if pos >= fill then line
      else begin
        let length = lengths.(line) in
        Buffer.add_string buffer seq_prefix;
        Obs.Json.add_int buffer (seq + line);
        Buffer.add_subbytes buffer chunk pos length;
        go (line + 1) (pos + length)
      end
    in
    go line 0

  let add_to_buffer buffer rendered ~first_seq =
    let chunks =
      List.rev ((rendered.chunk, rendered.fill) :: rendered.sealed)
    in
    ignore
      (List.fold_left
         (fun line chunk ->
           write_chunk buffer rendered.lengths ~line ~seq:first_seq chunk)
         0 chunks)
end

(* ------------------------------------------------------------------ *)
(* Parsing: a schema check over the shared JSON reader                 *)

let event_of_json line =
  match Obs.Json.parse line with
  | Error _ as error -> error
  | Ok (Obs.Json.Object members) -> (
    let find key =
      match List.assoc_opt key members with
      | Some v -> v
      | None -> failwith (Printf.sprintf "missing %S" key)
    in
    let str key =
      match find key with
      | Obs.Json.String s -> s
      | _ -> failwith (Printf.sprintf "%S: expected string" key)
    in
    let num key =
      match find key with
      | Obs.Json.Int v -> v
      | _ -> failwith (Printf.sprintf "%S: expected int" key)
    in
    let boolean key =
      match find key with
      | Obs.Json.Bool b -> b
      | _ -> failwith (Printf.sprintf "%S: expected bool" key)
    in
    let str_opt key =
      match find key with
      | Obs.Json.Null -> None
      | Obs.Json.String s -> Some s
      | _ -> failwith (Printf.sprintf "%S: expected string or null" key)
    in
    let verdict key =
      match str key with
      | "true" -> Verdict.True
      | "false" -> Verdict.False
      | "pending" -> Verdict.Pending
      | other -> failwith (Printf.sprintf "unknown verdict %S" other)
    in
    try
      let kind =
        match str "event" with
        | "trigger" -> Trigger
        | "sample" -> Sample { prop = str "prop"; value = boolean "value" }
        | "verdict_change" ->
          Verdict_change
            { property = str "property"; verdict = verdict "verdict" }
        | "handshake_armed" -> Handshake_armed { source = str "source" }
        | "test_case_begin" ->
          Test_case_begin { index = num "index"; op = str "op" }
        | "test_case_end" ->
          Test_case_end { index = num "index"; result = str_opt "result" }
        | "watchdog_fired" ->
          Watchdog_fired { index = num "index"; op = str "op" }
        | "software_crashed" -> Software_crashed { reason = str "reason" }
        | other -> failwith (Printf.sprintf "unknown event %S" other)
      in
      Ok { seq = num "seq"; time_unit = num "tu"; kind }
    with Failure msg -> Error msg)
  | Ok _ -> Error "event is not a JSON object"

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let memory_sink () =
  let buffered = ref [] in
  let sink =
    { on_event = (fun event -> buffered := event :: !buffered);
      on_close = (fun () -> ()) }
  in
  (sink, fun () -> List.rev !buffered)
