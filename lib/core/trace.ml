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

(* The streaming campaign engine renders every event of every job through
   this path, so it appends directly into the caller's buffer: no member
   list, no intermediate strings, no [Obs.Json.obj] concatenation. The
   bytes are exactly those of [Obs.Json.obj] over the same members —
   [event_to_json] is defined in terms of this function, and the goldens
   pin the format. *)
let event_to_json_into buffer (event : event) =
  let str key value =
    Buffer.add_string buffer ",\"";
    Buffer.add_string buffer key;
    Buffer.add_string buffer "\":\"";
    Buffer.add_string buffer (Obs.Json.escape value);
    Buffer.add_char buffer '"'
  and num key value =
    Buffer.add_string buffer ",\"";
    Buffer.add_string buffer key;
    Buffer.add_string buffer "\":";
    Buffer.add_string buffer (string_of_int value)
  in
  Buffer.add_string buffer "{\"seq\":";
  Buffer.add_string buffer (string_of_int event.seq);
  Buffer.add_string buffer ",\"tu\":";
  Buffer.add_string buffer (string_of_int event.time_unit);
  Buffer.add_string buffer ",\"event\":\"";
  Buffer.add_string buffer (kind_label event.kind);
  Buffer.add_char buffer '"';
  (match event.kind with
  | Trigger -> ()
  | Sample { prop; value } ->
    str "prop" prop;
    Buffer.add_string buffer
      (if value then ",\"value\":true" else ",\"value\":false")
  | Verdict_change { property; verdict } ->
    str "property" property;
    str "verdict" (Verdict.to_string verdict)
  | Handshake_armed { source } -> str "source" source
  | Test_case_begin { index; op } ->
    num "index" index;
    str "op" op
  | Test_case_end { index; result } -> (
    num "index" index;
    match result with
    | Some result -> str "result" result
    | None -> Buffer.add_string buffer ",\"result\":null")
  | Watchdog_fired { index; op } ->
    num "index" index;
    str "op" op
  | Software_crashed { reason } -> str "reason" reason);
  Buffer.add_char buffer '}'

let event_to_json (event : event) =
  let buffer = Buffer.create 64 in
  event_to_json_into buffer event;
  Buffer.contents buffer

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
