module Heap = Sim.Heap
module Kernel = Sim.Kernel
module Signal = Sim.Signal
module Clock = Sim.Clock

(* Tests for the discrete-event simulation kernel: scheduling order, delta
   cycles, signals, clocks, timeouts, and heap invariants. *)

let test_heap_ordering () =
  let heap = Heap.create () in
  List.iteri (fun i (k, v) -> Heap.push heap k i v)
    [ (5, "e"); (1, "a"); (3, "c"); (1, "b"); (4, "d") ];
  let order = ref [] in
  while not (Heap.is_empty heap) do
    let tag = Heap.top_tag heap in
    let v = Heap.pop heap in
    order := (v, tag) :: !order
  done;
  (* equal keys pop in insertion order (stability); tags travel along *)
  Alcotest.(check (list (pair string int)))
    "sorted stable"
    [ ("a", 1); ("b", 3); ("c", 2); ("d", 4); ("e", 0) ]
    (List.rev !order)

let test_heap_empty () =
  let heap = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty heap);
  Alcotest.check_raises "no min" Not_found (fun () ->
      ignore (Heap.min_key heap));
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Heap.pop heap))

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let heap = Heap.create () in
      List.iter (fun k -> Heap.push heap k k k) keys;
      let rec drain last acc =
        if Heap.is_empty heap then List.rev acc
        else
          let k = Heap.min_key heap in
          if Heap.top_tag heap <> k || Heap.pop heap <> k || k < last then
            raise Exit
          else drain k (k :: acc)
      in
      try List.length (drain min_int []) = List.length keys
      with Exit -> false)

let test_spawn_runs () =
  let kernel = Kernel.create () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  ignore (Kernel.spawn kernel ~name:"a" (fun () -> log "a"));
  ignore (Kernel.spawn kernel ~name:"b" (fun () -> log "b"));
  Kernel.run kernel;
  Alcotest.(check (list string)) "both ran in order" [ "a"; "b" ]
    (List.rev !trace)

let test_wait_notify_delta () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  ignore
    (Kernel.spawn kernel ~name:"waiter" (fun () ->
         log "wait";
         Kernel.wait_event ev;
         log "woken"));
  ignore
    (Kernel.spawn kernel ~name:"notifier" (fun () ->
         log "notify";
         Kernel.notify ev));
  Kernel.run kernel;
  Alcotest.(check (list string))
    "delta notification wakes in next delta" [ "wait"; "notify"; "woken" ]
    (List.rev !trace);
  Alcotest.(check int) "one delta cycle" 1 (Kernel.delta_count kernel)

let test_timed_notify () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let woken_at = ref (-1) in
  ignore
    (Kernel.spawn kernel ~name:"waiter" (fun () ->
         Kernel.wait_event ev;
         woken_at := Kernel.now kernel));
  ignore
    (Kernel.spawn kernel ~name:"notifier" (fun () -> Kernel.notify_in ev 42));
  Kernel.run kernel;
  Alcotest.(check int) "woken at t=42" 42 !woken_at

let test_wait_for_accumulates () =
  let kernel = Kernel.create () in
  let times = ref [] in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         Kernel.wait_for kernel 10;
         times := Kernel.now kernel :: !times;
         Kernel.wait_for kernel 5;
         times := Kernel.now kernel :: !times));
  Kernel.run kernel;
  Alcotest.(check (list int)) "10 then 15" [ 10; 15 ] (List.rev !times)

let test_wait_any_timeout () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "never" in
  let result = ref None in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         result := Some (Kernel.wait_any ~timeout:7 [ ev ])));
  Kernel.run kernel;
  (match !result with
  | Some Kernel.Timeout -> ()
  | Some (Kernel.Woken_by _) -> Alcotest.fail "expected timeout"
  | None -> Alcotest.fail "process never resumed");
  Alcotest.(check int) "time advanced to timeout" 7 (Kernel.now kernel)

let test_wait_any_event_beats_timeout () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "fast" in
  let result = ref None in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         result := Some (Kernel.wait_any ~timeout:100 [ ev ])));
  ignore
    (Kernel.spawn kernel ~name:"q" (fun () ->
         Kernel.wait_for kernel 3;
         Kernel.notify ev));
  Kernel.run kernel;
  (match !result with
  | Some (Kernel.Woken_by woke) ->
    Alcotest.(check string) "right event" "fast" (Kernel.event_name woke)
  | Some Kernel.Timeout -> Alcotest.fail "timeout should not win"
  | None -> Alcotest.fail "process never resumed");
  Alcotest.(check int) "woken at t=3" 3 (Kernel.now kernel)

let test_immediate_notification () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let deltas_when_woken = ref (-1) in
  ignore
    (Kernel.spawn kernel ~name:"waiter" (fun () ->
         Kernel.wait_event ev;
         deltas_when_woken := Kernel.delta_count kernel));
  ignore
    (Kernel.spawn kernel ~name:"notifier" (fun () ->
         Kernel.notify_immediate ev));
  Kernel.run kernel;
  Alcotest.(check int) "woken without delta" 0 !deltas_when_woken

let test_signal_update_semantics () =
  let kernel = Kernel.create () in
  let signal = Signal.create kernel ~name:"s" 0 in
  let observed = ref [] in
  ignore
    (Kernel.spawn kernel ~name:"writer" (fun () ->
         Signal.write signal 1;
         (* not yet committed: evaluation phase still sees old value *)
         observed := ("writer", Signal.read signal) :: !observed));
  ignore
    (Kernel.spawn kernel ~name:"reader" (fun () ->
         Signal.wait_change signal;
         observed := ("reader", Signal.read signal) :: !observed));
  Kernel.run kernel;
  Alcotest.(check (list (pair string int)))
    "write commits in update phase"
    [ ("writer", 0); ("reader", 1) ]
    (List.rev !observed)

let test_signal_last_write_wins () =
  let kernel = Kernel.create () in
  let signal = Signal.create kernel ~name:"s" 0 in
  ignore
    (Kernel.spawn kernel ~name:"writer" (fun () ->
         Signal.write signal 1;
         Signal.write signal 2));
  Kernel.run kernel;
  Alcotest.(check int) "last write" 2 (Signal.read signal)

let test_signal_no_change_no_event () =
  let kernel = Kernel.create () in
  let signal = Signal.create kernel ~name:"s" 5 in
  let woken = ref false in
  ignore
    (Kernel.spawn kernel ~name:"reader" (fun () ->
         Signal.wait_change signal;
         woken := true));
  ignore
    (Kernel.spawn kernel ~name:"writer" (fun () -> Signal.write signal 5));
  Kernel.run kernel;
  Alcotest.(check bool) "same value does not notify" false !woken

let test_clock_cycles () =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:10 () in
  let count = ref 0 in
  ignore
    (Kernel.spawn kernel ~name:"counter" (fun () ->
         let rec loop () =
           Clock.wait_posedge clock;
           incr count;
           loop ()
         in
         loop ()));
  Kernel.run ~max_time:95 kernel;
  (* posedges at t=0,10,...,90 => 10 observed *)
  Alcotest.(check int) "ten edges observed" 10 !count;
  Alcotest.(check int) "clock counted them" 10 (Clock.cycles clock)

let test_stop_from_process () =
  let kernel = Kernel.create () in
  let steps = ref 0 in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         let rec loop () =
           incr steps;
           if !steps = 5 then Kernel.stop kernel;
           Kernel.wait_for kernel 1;
           loop ()
         in
         loop ()));
  Kernel.run kernel;
  Alcotest.(check bool) "stopped early" true (!steps >= 5 && !steps < 20);
  Alcotest.(check bool) "stopped flag" true (Kernel.stopped kernel)

let test_resume_after_max_time () =
  let kernel = Kernel.create () in
  let ticks = ref 0 in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         let rec loop () =
           incr ticks;
           Kernel.wait_for kernel 10;
           loop ()
         in
         loop ()));
  Kernel.run ~max_time:35 kernel;
  let first = !ticks in
  Kernel.run ~max_time:75 kernel;
  Alcotest.(check bool) "made progress on resume" true (!ticks > first)

let test_producer_consumer () =
  (* Two processes rendezvous through events; checks multi-process
     interleaving over many iterations. *)
  let kernel = Kernel.create () in
  let request = Kernel.event kernel "request" in
  let response = Kernel.event kernel "response" in
  let served = ref 0 in
  ignore
    (Kernel.spawn kernel ~name:"server" (fun () ->
         let rec loop () =
           Kernel.wait_event request;
           incr served;
           Kernel.notify response;
           loop ()
         in
         loop ()));
  ignore
    (Kernel.spawn kernel ~name:"client" (fun () ->
         for _ = 1 to 100 do
           Kernel.notify request;
           Kernel.wait_event response
         done;
         Kernel.stop kernel));
  Kernel.run kernel;
  Alcotest.(check int) "served all requests" 100 !served

(* --- scheduling order the allocation-lean kernel must keep ------------ *)

let test_waiters_wake_in_registration_order () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let trace = ref [] in
  List.iter
    (fun name ->
      ignore
        (Kernel.spawn kernel ~name (fun () ->
             Kernel.wait_event ev;
             trace := name :: !trace)))
    [ "first"; "second"; "third" ];
  ignore (Kernel.spawn kernel ~name:"notifier" (fun () -> Kernel.notify ev));
  Kernel.run kernel;
  Alcotest.(check (list string))
    "registration order" [ "first"; "second"; "third" ] (List.rev !trace)

let test_wait_any_wakes_once () =
  let kernel = Kernel.create () in
  let a = Kernel.event kernel "a" and b = Kernel.event kernel "b" in
  let wakes = ref [] in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         let rec loop () =
           (match Kernel.wait_any [ a; b ] with
           | Kernel.Woken_by ev -> wakes := Kernel.event_name ev :: !wakes
           | Kernel.Timeout -> wakes := "timeout" :: !wakes);
           loop ()
         in
         loop ()));
  ignore
    (Kernel.spawn kernel ~name:"notifier" (fun () ->
         Kernel.notify a;
         Kernel.notify b));
  Kernel.run kernel;
  Alcotest.(check (list string)) "one wake, by a" [ "a" ] (List.rev !wakes)

let test_stale_timeout_never_advances_time () =
  let kernel = Kernel.create () in
  let ev = Kernel.event kernel "ev" in
  let log = ref [] in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         (match Kernel.wait_any ~timeout:5 [ ev ] with
         | Kernel.Woken_by _ -> log := ("event", Kernel.now kernel) :: !log
         | Kernel.Timeout -> log := ("timeout", Kernel.now kernel) :: !log);
         Kernel.wait_for kernel 10;
         log := ("wait_for", Kernel.now kernel) :: !log));
  ignore
    (Kernel.spawn kernel ~name:"notifier" (fun () ->
         Kernel.wait_for kernel 1;
         Kernel.notify ev));
  (* the only live entry is at t=11: the stale timeout at t=5 must not
     move time while the run stops short of 11 *)
  Kernel.run ~max_time:7 kernel;
  Alcotest.(check int) "time stays at 1" 1 (Kernel.now kernel);
  Kernel.run kernel;
  Alcotest.(check (list (pair string int)))
    "woken at 1, then at 11"
    [ ("event", 1); ("wait_for", 11) ]
    (List.rev !log);
  Alcotest.(check int) "ends at 11" 11 (Kernel.now kernel)

let test_rewait_on_subset_wakes_once () =
  let kernel = Kernel.create () in
  let a = Kernel.event kernel "a" and b = Kernel.event kernel "b" in
  let never = Kernel.event kernel "never" in
  let wakes = ref [] in
  let record = function
    | Kernel.Woken_by ev -> wakes := Kernel.event_name ev :: !wakes
    | Kernel.Timeout -> wakes := "timeout" :: !wakes
  in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         record (Kernel.wait_any [ a; b ]);
         record (Kernel.wait_any [ b ]);
         record (Kernel.wait_any [ never ])));
  ignore
    (Kernel.spawn kernel ~name:"notifier" (fun () ->
         Kernel.notify a;
         Kernel.wait_for kernel 1;
         Kernel.notify b;
         Kernel.wait_for kernel 1;
         Kernel.notify b));
  Kernel.run kernel;
  Alcotest.(check (list string)) "a, then b once" [ "a"; "b" ] (List.rev !wakes)

let test_delta_wait_order () =
  let kernel = Kernel.create () in
  let e = Kernel.event kernel "e" and a = Kernel.event kernel "a" in
  let log = ref [] in
  let spawn name body = ignore (Kernel.spawn kernel ~name body) in
  spawn "c" (fun () ->
      Kernel.wait_event e;
      log := "c" :: !log);
  spawn "p" (fun () ->
      (* woken by an immediate notification in this evaluation phase, then
         delta-waits again: only the second delta wait may wake it *)
      (match Kernel.wait_any ~timeout:0 [ a ] with
      | Kernel.Woken_by ev -> log := ("p:" ^ Kernel.event_name ev) :: !log
      | Kernel.Timeout -> log := "p:timeout" :: !log);
      Kernel.wait_for kernel 0;
      log := "p" :: !log);
  spawn "q" (fun () ->
      Kernel.wait_for kernel 0;
      log := "q" :: !log);
  spawn "n" (fun () ->
      Kernel.notify_immediate a;
      Kernel.notify e);
  spawn "r" (fun () ->
      Kernel.wait_for kernel 0;
      log := "r" :: !log);
  Kernel.run kernel;
  Alcotest.(check (list string))
    "delta entries wake in notification order"
    [ "p:a"; "q"; "c"; "r"; "p" ]
    (List.rev !log)

let test_spawn_during_evaluation () =
  let kernel = Kernel.create () in
  let log = ref [] in
  let note name = log := (name, Kernel.delta_count kernel) :: !log in
  ignore
    (Kernel.spawn kernel ~name:"parent" (fun () ->
         note "parent";
         ignore (Kernel.spawn kernel ~name:"child" (fun () -> note "child"));
         Kernel.wait_for kernel 0;
         note "parent again"));
  ignore (Kernel.spawn kernel ~name:"sibling" (fun () -> note "sibling"));
  Kernel.run kernel;
  Alcotest.(check (list (pair string int)))
    "child joins the current evaluation phase"
    [ ("parent", 0); ("sibling", 0); ("child", 0); ("parent again", 1) ]
    (List.rev !log)

(* --- memory and allocation -------------------------------------------- *)

(* Live heap words after [waits] timed-out waits on an event that is never
   notified; the event stays reachable throughout. *)
let live_words_after waits =
  let kernel = Kernel.create () in
  let never = Kernel.event kernel "never" in
  ignore
    (Kernel.spawn kernel ~name:"p" (fun () ->
         for _ = 1 to waits do
           ignore (Kernel.wait_any ~timeout:1 [ never ])
         done));
  Kernel.run kernel;
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity never);
  live

let test_stale_waiters_do_not_leak () =
  let small = live_words_after 1_000 in
  let large = live_words_after 100_000 in
  if large - small > 10_000 then
    Alcotest.failf "live words grew from %d (1k waits) to %d (100k waits)"
      small large

(* The approach-2 round trip: one process notifies the program-counter
   event and waits one time unit, another waits on the event. *)
let test_round_trip_allocation () =
  let kernel = Kernel.create () in
  let pc = Kernel.event kernel "pc" in
  ignore
    (Kernel.spawn kernel ~name:"model" (fun () ->
         while true do
           Kernel.notify pc;
           Kernel.wait_for kernel 1
         done));
  ignore
    (Kernel.spawn kernel ~name:"trigger" (fun () ->
         while true do
           Kernel.wait_event pc
         done));
  Kernel.run ~max_time:1_000 kernel;
  let statements = 100_000 in
  let before = Gc.minor_words () in
  Kernel.run ~max_time:(1_000 + statements) kernel;
  let words = (Gc.minor_words () -. before) /. float_of_int statements in
  if words > 30.0 then
    Alcotest.failf "%.1f minor words per statement (gate: 30)" words

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    QCheck_alcotest.to_alcotest heap_qcheck;
    Alcotest.test_case "spawn runs" `Quick test_spawn_runs;
    Alcotest.test_case "wait/notify delta" `Quick test_wait_notify_delta;
    Alcotest.test_case "timed notify" `Quick test_timed_notify;
    Alcotest.test_case "wait_for accumulates" `Quick test_wait_for_accumulates;
    Alcotest.test_case "wait_any timeout" `Quick test_wait_any_timeout;
    Alcotest.test_case "wait_any event first" `Quick
      test_wait_any_event_beats_timeout;
    Alcotest.test_case "immediate notification" `Quick
      test_immediate_notification;
    Alcotest.test_case "signal update semantics" `Quick
      test_signal_update_semantics;
    Alcotest.test_case "signal last write wins" `Quick
      test_signal_last_write_wins;
    Alcotest.test_case "signal no-change no-event" `Quick
      test_signal_no_change_no_event;
    Alcotest.test_case "clock cycles" `Quick test_clock_cycles;
    Alcotest.test_case "stop from process" `Quick test_stop_from_process;
    Alcotest.test_case "resume after max_time" `Quick
      test_resume_after_max_time;
    Alcotest.test_case "producer/consumer rendezvous" `Quick
      test_producer_consumer;
    Alcotest.test_case "waiters wake in registration order" `Quick
      test_waiters_wake_in_registration_order;
    Alcotest.test_case "wait_any wakes once" `Quick test_wait_any_wakes_once;
    Alcotest.test_case "stale timeout never advances time" `Quick
      test_stale_timeout_never_advances_time;
    Alcotest.test_case "re-wait on a subset wakes once" `Quick
      test_rewait_on_subset_wakes_once;
    Alcotest.test_case "delta wait order" `Quick test_delta_wait_order;
    Alcotest.test_case "spawn during evaluation" `Quick
      test_spawn_during_evaluation;
    Alcotest.test_case "stale waiters do not leak" `Quick
      test_stale_waiters_do_not_leak;
    Alcotest.test_case "round-trip allocation gate" `Quick
      test_round_trip_allocation;
  ]

let () = Alcotest.run "sim" [ ("kernel", suite) ]
