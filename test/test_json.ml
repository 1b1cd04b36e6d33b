(* The shared JSON codec (Obs.Json) and the three artifact readers built
   on it: Sctc.Trace.event_of_json (campaign trace), Obs.Export
   .validate_snapshot_line (metrics snapshot) and Verif.Bench_log
   .parse_line (bench trajectory). The readers differ in schema only, so
   the same lexical input must get the same verdict from all three. *)

module Json = Obs.Json
module Trace = Sctc.Trace
module Bench_log = Verif.Bench_log

(* ---- one grammar, three front ends -------------------------------------- *)

(* a front end: a valid line with a string slot, one with an integer slot,
   and its reader reduced to accept/reject *)
type front_end = {
  name : string;
  with_string : string -> string;
  with_number : string -> string;
  accepts : string -> bool;
}

let front_ends =
  [
    {
      name = "trace";
      with_string =
        Printf.sprintf
          {|{"seq":1,"tu":0,"event":"handshake_armed","source":%s}|};
      with_number = Printf.sprintf {|{"seq":1,"tu":%s,"event":"trigger"}|};
      accepts = (fun line -> Result.is_ok (Trace.event_of_json line));
    };
    {
      name = "metrics";
      with_string =
        Printf.sprintf
          {|{"metric":"m","type":"counter","labels":{"l":%s},"value":1}|};
      with_number =
        Printf.sprintf
          {|{"metric":"m","type":"counter","labels":{},"value":%s}|};
      accepts =
        (fun line -> Result.is_ok (Obs.Export.validate_snapshot_line line));
    };
    {
      name = "bench";
      with_string = Printf.sprintf {|{"table":"campaign","note":%s}|};
      with_number = Printf.sprintf {|{"table":"campaign","n":%s}|};
      accepts = (fun line -> Result.is_ok (Bench_log.parse_line line));
    };
  ]

type case =
  | Str of string  (** a string literal in the string slot *)
  | Num of string  (** a numeral in the integer slot *)
  | Spaced of string  (** the string-slot line with this after ',' and ':' *)
  | Suffixed of string  (** the string-slot line followed by these bytes *)

let render fe = function
  | Str literal -> fe.with_string literal
  | Num numeral -> fe.with_number numeral
  | Spaced sep ->
    String.concat ("," ^ sep)
      (String.split_on_char ','
         (String.concat (":" ^ sep)
            (String.split_on_char ':' (fe.with_string {|"x"|}))))
  | Suffixed tail -> fe.with_string {|"x"|} ^ tail

let grammar =
  [
    ("plain string", Str {|"abc"|}, true);
    ("every two-byte escape", Str {|"\"\\\/\b\f\n\r\t"|}, true);
    ("\\u escapes", Str {|"\u0041\u00e9\u20AC\ud83d"|}, true);
    ("raw bytes >= 0x80", Str "\"\xc3\xa9\xff\"", true);
    ("short \\u", Str {|"\u12"|}, false);
    ("non-hex \\u", Str {|"\u12g4"|}, false);
    ("unknown escape", Str {|"\x"|}, false);
    ("unterminated string", Str {|"abc|}, false);
    ("integer", Num "7", true);
    ("zero", Num "0", true);
    ("leading dot", Num ".5", false);
    ("leading plus", Num "+7", false);
    ("lone minus", Num "-", false);
    ("numeral then letters", Num "7x", false);
    ("hex numeral", Num "0x10", false);
    ("newline between tokens", Spaced "\n", true);
    ("CR LF tab space between tokens", Spaced "\r\n\t ", true);
    ("vertical tab between tokens", Spaced "\011", false);
    ("trailing whitespace", Suffixed " \r\n", true);
    ("bytes after the object", Suffixed "garbage", false);
    ("two objects glued", Suffixed {|{"seq":2}|}, false);
  ]

let test_same_grammar () =
  List.iter
    (fun (label, case, expected) ->
      List.iter
        (fun fe ->
          let line = render fe case in
          if fe.accepts line <> expected then
            Alcotest.failf "%s: %s %s %S" label fe.name
              (if expected then "rejects" else "accepts")
              line)
        front_ends)
    grammar

(* a sink that drops a '\n' glues two trace lines together; the reader
   must notice instead of returning the first event *)
let test_trace_rejects_trailing_bytes () =
  let line = {|{"seq":1,"tu":0,"event":"trigger"}|} in
  Alcotest.(check bool) "clean line" true
    (Result.is_ok (Trace.event_of_json line));
  List.iter
    (fun bad ->
      match Trace.event_of_json bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ line ^ "garbage"; line ^ {|{"seq":2}|}; line ^ line ]

(* ---- the value reader ---------------------------------------------------- *)

let parsed =
  Alcotest.testable
    (fun ppf v ->
      Fmt.string ppf
        (match v with
        | Ok _ -> "Ok <value>"
        | Error msg -> "Error " ^ msg))
    ( = )

let test_values () =
  let check label expected text =
    Alcotest.check parsed label (Ok expected) (Json.parse text)
  in
  check "max_int stays an int" (Json.Int max_int) (string_of_int max_int);
  check "min_int stays an int" (Json.Int min_int) (string_of_int min_int);
  check "overflow becomes a float" (Json.Float 1e19) "10000000000000000000";
  check "%.6g notation" (Json.Float 1.33827e+06) "1.33827e+06";
  check "\\u is UTF-8" (Json.String "A\xc3\xa9\xe2\x82\xac")
    {|"\u0041\u00e9\u20AC"|};
  check "a surrogate is U+FFFD" (Json.String "\xef\xbf\xbd") {|"\ud83d"|};
  check "nested"
    (Json.Object
       [
         ("a", Json.Array [ Json.Null; Json.Bool true ]); ("a", Json.Object []);
       ])
    {| { "a" : [ null , true ] , "a" : {} } |};
  Alcotest.(check bool) "empty input" true (Result.is_error (Json.parse ""))

(* ---- property-based round trips ----------------------------------------- *)

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (4, int); (2, small_signed_int); (1, return max_int);
        (1, return min_int);
      ])

(* any of the 256 bytes, biased toward the ones the escaper rewrites *)
let gen_string =
  QCheck.Gen.(
    string_size (int_bound 12)
      ~gen:
        (frequency
           [
             (3, char);
             ( 2,
               oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\x1f'; '\x7f' ] );
             (1, map Char.chr (int_bound 0x1f));
           ]))

let gen_kind =
  let open QCheck.Gen in
  oneof
    [
      return Trace.Trigger;
      map2 (fun prop value -> Trace.Sample { prop; value }) gen_string bool;
      map2
        (fun property verdict -> Trace.Verdict_change { property; verdict })
        gen_string
        (oneofl [ Verdict.True; Verdict.False; Verdict.Pending ]);
      map (fun source -> Trace.Handshake_armed { source }) gen_string;
      map2
        (fun index op -> Trace.Test_case_begin { index; op })
        gen_int gen_string;
      map2
        (fun index result -> Trace.Test_case_end { index; result })
        gen_int (opt gen_string);
      map2
        (fun index op -> Trace.Watchdog_fired { index; op })
        gen_int gen_string;
      map (fun reason -> Trace.Software_crashed { reason }) gen_string;
    ]

let gen_event =
  QCheck.Gen.map3
    (fun seq time_unit kind -> { Trace.seq; time_unit; kind })
    gen_int gen_int gen_kind

let prop_event_round_trip =
  QCheck.Test.make ~count:2000 ~name:"event_of_json (event_to_json e) = Ok e"
    (QCheck.make ~print:Trace.event_to_json gen_event)
    (fun event -> Trace.event_of_json (Trace.event_to_json event) = Ok event)

(* a flat row value, with the field value the reader must give back *)
let gen_member =
  let open QCheck.Gen in
  let value =
    oneof
      [
        map (fun i -> (Json.int i, Bench_log.Number (float_of_int i))) gen_int;
        map
          (fun v ->
            let text = Json.float v in
            ( text,
              if Float.is_finite v then Bench_log.Number (float_of_string text)
              else Bench_log.Null ))
          (oneof [ float; map float_of_int small_signed_int ]);
        map (fun b -> (Json.bool b, Bench_log.Bool b)) bool;
        map (fun s -> (Json.string s, Bench_log.String s)) gen_string;
        return (Json.null, Bench_log.Null);
      ]
  in
  pair
    (map (fun key -> if key = "table" then "table_" else key) gen_string)
    value

let render_row (table, members) =
  Bench_log.render ~table
    (List.map (fun (key, (text, _)) -> (key, text)) members)

let prop_bench_row_round_trip =
  QCheck.Test.make ~count:1000
    ~name:"Bench_log.parse_line (render ~table m) gives back m"
    (QCheck.make ~print:render_row
       QCheck.Gen.(pair gen_string (list_size (int_bound 8) gen_member)))
    (fun ((table, members) as row) ->
      Bench_log.parse_line (render_row row)
      = Ok
          {
            Bench_log.table;
            tagged = true;
            fields =
              ("table", Bench_log.String table)
              :: List.map (fun (key, (_, value)) -> (key, value)) members;
          })

(* ---- writers ------------------------------------------------------------ *)

let test_escape () =
  Alcotest.(check string) "escaped bytes"
    {|a\"b\\c\nd\re\tf\u0000\u001f|}
    (Json.escape "a\"b\\c\nd\re\tf\000\x1f");
  Alcotest.(check string) "bytes >= 0x20 are kept" "\x7f\x80\xff/"
    (Json.escape "\x7f\x80\xff/");
  List.iter
    (fun clean ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is returned itself" clean)
        true
        (Json.escape clean == clean))
    [ ""; "p_done"; "x > 100 && y"; "\x7f\x80\xff/" ]

let prop_add_int =
  QCheck.Test.make ~count:2000 ~name:"add_int writes string_of_int's bytes"
    (QCheck.make ~print:string_of_int gen_int)
    (fun n ->
      let buffer = Buffer.create 4 in
      Buffer.add_char buffer '[';
      Json.add_int buffer n;
      Buffer.add_char buffer ']';
      Buffer.contents buffer = "[" ^ string_of_int n ^ "]")

(* the independent oracle: Json.obj over the event's members *)
let obj_line (event : Trace.event) =
  let str = Json.string in
  let members =
    match event.Trace.kind with
    | Trace.Trigger -> []
    | Trace.Sample { prop; value } ->
      [ ("prop", str prop); ("value", Json.bool value) ]
    | Trace.Verdict_change { property; verdict } ->
      [ ("property", str property);
        ("verdict", str (Verdict.to_string verdict)) ]
    | Trace.Handshake_armed { source } -> [ ("source", str source) ]
    | Trace.Test_case_begin { index; op }
    | Trace.Watchdog_fired { index; op } ->
      [ ("index", Json.int index); ("op", str op) ]
    | Trace.Test_case_end { index; result } ->
      [ ("index", Json.int index); ("result", Json.option str result) ]
    | Trace.Software_crashed { reason } -> [ ("reason", str reason) ]
  in
  Json.obj
    (("seq", Json.int event.Trace.seq)
    :: ("tu", Json.int event.Trace.time_unit)
    :: ("event", str (Trace.kind_label event.Trace.kind))
    :: members)
  ^ "\n"

(* the worker's path: tails rendered by the bus sink (whatever seq the
   events carry), then numbered from [first_seq] when written *)
let rendered_lines ~first_seq events =
  let rendered = Trace.Rendered.create () in
  let sink = Trace.Rendered.sink rendered in
  List.iter sink.Trace.on_event events;
  let buffer = Buffer.create 64 in
  Buffer.add_string buffer "head\n";
  Trace.Rendered.add_to_buffer buffer rendered ~first_seq;
  (Trace.Rendered.lines rendered, Buffer.contents buffer)

let check_three_paths ~first_seq events =
  let numbered =
    List.mapi
      (fun i (event : Trace.event) -> { event with Trace.seq = first_seq + i })
      events
  in
  let into = Buffer.create 64 in
  Buffer.add_string into "head\n";
  List.iter
    (fun event ->
      Trace.event_to_json_into into event;
      Buffer.add_char into '\n')
    numbered;
  let lines, rendered = rendered_lines ~first_seq events in
  lines = List.length events
  && rendered = Buffer.contents into
  && rendered = "head\n" ^ String.concat "" (List.map obj_line numbered)

let prop_three_paths =
  QCheck.Test.make ~count:500
    ~name:"seq+tail lines == event_to_json_into == Json.obj"
    (QCheck.make
       ~print:(fun (first_seq, events) ->
         Printf.sprintf "first_seq %d, %d events: %s" first_seq
           (List.length events)
           (String.concat " | " (List.map Trace.event_to_json events)))
       QCheck.Gen.(pair gen_int (list_size (int_bound 120) gen_event)))
    (fun (first_seq, events) -> check_three_paths ~first_seq events)

(* lines longer than a chunk get one of their own, between short lines *)
let test_long_lines () =
  let long n = Trace.Software_crashed { reason = String.make n '"' } in
  let events =
    List.mapi
      (fun i kind -> { Trace.seq = i; time_unit = i * 7; kind })
      [ Trace.Trigger; long 70_000; Trace.Trigger; long 200_000; long 10;
        Trace.Sample { prop = "p"; value = true } ]
  in
  List.iter
    (fun first_seq ->
      Alcotest.(check bool)
        (Printf.sprintf "three paths agree from seq %d" first_seq)
        true
        (check_three_paths ~first_seq events))
    [ 0; 41; max_int - 2; min_int ]

let () =
  Alcotest.run "json"
    [
      ( "grammar",
        [
          Alcotest.test_case "same verdict from all three readers" `Quick
            test_same_grammar;
          Alcotest.test_case "trace rejects bytes after the object" `Quick
            test_trace_rejects_trailing_bytes;
          Alcotest.test_case "values" `Quick test_values;
        ] );
      ( "writers",
        [
          Alcotest.test_case "escape" `Quick test_escape;
          QCheck_alcotest.to_alcotest prop_add_int;
          QCheck_alcotest.to_alcotest prop_three_paths;
          Alcotest.test_case "lines longer than a chunk" `Quick test_long_lines;
        ] );
      ( "round trip",
        [
          QCheck_alcotest.to_alcotest prop_event_round_trip;
          QCheck_alcotest.to_alcotest prop_bench_row_round_trip;
        ] );
    ]
