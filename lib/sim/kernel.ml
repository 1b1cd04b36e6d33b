(* Discrete-event scheduler with SystemC-like delta-cycle semantics.

   Processes are one-shot coroutines built on OCaml 5 effect handlers: a
   process body performs the [Wait] effect, the handler captures the
   continuation and parks it on the awaited events; notification moves the
   continuation back into the runnable queue.  The run loop alternates
   SystemC's phases: evaluate -> update -> delta notification -> timed
   advance.

   Approach 2 pays one wait per simulated statement, so a wait allocates
   next to nothing (DESIGN.md). A process is its own waiter: its
   generation [gen] grows at every wake-up, and a waiter, delta or timed
   entry armed with an older generation is stale and dropped lazily.
   Queues are growable arrays in insertion order. [wait_for 0] and
   timeouts are entries of the process's own [<delta>] event; the entry's
   generation names its wait, keeping the order of a fresh event per wait. *)

type wake_reason = Woken_by of event | Timeout

(* items with an int tag each, in insertion order *)
and 'a queue = { mutable items : 'a array; mutable tags : int array; mutable len : int }

and event = {
  ev_name : string;
  ev_kernel : t;
  ev_reason : wake_reason; (* [Woken_by] this event, built once *)
  ev_alone : event list; (* [[ev]], the request of [wait_event] *)
  mutable ev_owner : process option; (* set on a process's [<delta>] *)
  waiters : process queue; (* tag: the generation armed with *)
}

and pstate =
  | Not_started of (unit -> unit)
  | Suspended of (wake_reason, unit) Effect.Deep.continuation
  | Running | Finished

and process = {
  p_name : string;
  mutable p_state : pstate;
  mutable gen : int;
  mutable reason : wake_reason; (* of the last wake-up *)
  p_delta : event;
}

and t = {
  mutable time : int;
  mutable deltas : int;
  runnable : process queue;
  mutable run_head : int; (* next runnable entry to evaluate *)
  (* delta and timed entries: a notification of the event (tag -1), or
     the wait of its owner armed with generation [tag] *)
  pending : event queue;
  timed : event Heap.t;
  updates : (unit -> unit) queue;
  mutable stop_requested : bool;
  mutable processes : process list;
  mutable wait_on : event list; (* the request [Wait] parks ... *)
  mutable wait_after : int; (* ... and its timeout, or -1 *)
}

exception Deadlock of string

let queue () = { items = [||]; tags = [||]; len = 0 }

let grow q item =
  let capacity = max 8 (2 * q.len) in
  let items = Array.make capacity item and tags = Array.make capacity 0 in
  Array.blit q.items 0 items 0 q.len;
  Array.blit q.tags 0 tags 0 q.len;
  q.items <- items;
  q.tags <- tags

let push q item tag =
  if q.len = Array.length q.items then grow q item;
  q.items.(q.len) <- item;
  q.tags.(q.len) <- tag;
  q.len <- q.len + 1

let create () =
  { time = 0; deltas = 0; runnable = queue (); run_head = 0; pending = queue ();
    timed = Heap.create (); updates = queue (); stop_requested = false;
    processes = []; wait_on = []; wait_after = -1 }

let now kernel = kernel.time
let delta_count kernel = kernel.deltas

let event kernel name =
  let rec ev =
    { ev_name = name; ev_kernel = kernel; ev_reason = Woken_by ev;
      ev_alone = [ ev ]; ev_owner = None; waiters = queue () }
  in
  ev

let event_name ev = ev.ev_name

let spawn kernel ~name body =
  let p_delta = event kernel "<delta>" in
  let proc =
    { p_name = name; p_state = Not_started body; gen = 0; reason = Timeout; p_delta }
  in
  p_delta.ev_owner <- Some proc;
  kernel.processes <- proc :: kernel.processes;
  push kernel.runnable proc 0;
  proc

let fire kernel proc gen reason =
  if proc.gen = gen then begin
    proc.gen <- gen + 1;
    proc.reason <- reason;
    push kernel.runnable proc 0
  end

let wake_event_waiters ev =
  let ws = ev.waiters in
  let n = ws.len in
  ws.len <- 0;
  for i = 0 to n - 1 do
    fire ev.ev_kernel ws.items.(i) ws.tags.(i) ev.ev_reason
  done

let fire_entry ev tag reason =
  match ev.ev_owner with
  | Some proc when tag >= 0 -> fire ev.ev_kernel proc tag reason
  | _ -> wake_event_waiters ev

let stale ev tag =
  match ev.ev_owner with Some proc when tag >= 0 -> proc.gen <> tag | _ -> false

(* A full waiter array first drops the entries a wake-up made stale, so an
   event that is never notified does not keep one entry per wait. *)
let add_waiter ev proc gen =
  let ws = ev.waiters in
  if ws.len = Array.length ws.items then begin
    let live = ref 0 in
    for i = 0 to ws.len - 1 do
      if ws.items.(i).gen = ws.tags.(i) then begin
        ws.items.(!live) <- ws.items.(i);
        ws.tags.(!live) <- ws.tags.(i);
        incr live
      end
    done;
    ws.len <- !live;
    if 2 * ws.len > Array.length ws.items then grow ws proc
  end;
  push ws proc gen

let notify_immediate ev = wake_event_waiters ev
let notify ev = push ev.ev_kernel.pending ev (-1)

let notify_in ev n =
  if n <= 0 then notify ev
  else Heap.push ev.ev_kernel.timed (ev.ev_kernel.time + n) (-1) ev

let schedule_update kernel action = push kernel.updates action 0

(* ------------------------------------------------------------------ *)
(* Waiting primitives (called from inside process bodies)              *)

type _ Effect.t += Wait : wake_reason Effect.t

let wait kernel events after =
  kernel.wait_on <- events;
  kernel.wait_after <- after;
  Effect.perform Wait

let wait_any ?timeout events =
  match events, timeout with
  | [], _ -> invalid_arg "Kernel.wait_any: no event (a pure timeout needs wait_for)"
  | _, Some n when n < 0 -> invalid_arg "Kernel.wait_any: negative timeout"
  | ev :: _, _ -> wait ev.ev_kernel events (Option.value timeout ~default:(-1))

let wait_event ev = ignore (wait ev.ev_kernel ev.ev_alone (-1))

let wait_for kernel n =
  if n < 0 then invalid_arg "Kernel.wait_for: negative delay";
  ignore (wait kernel [] n)

let stop kernel = kernel.stop_requested <- true
let stopped kernel = kernel.stop_requested

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let rec arm proc gen = function
  | [] -> ()
  | ev :: rest ->
    add_waiter ev proc gen;
    arm proc gen rest

let park kernel proc cont =
  proc.p_state <- Suspended cont;
  arm proc proc.gen kernel.wait_on;
  let after = kernel.wait_after in
  if after = 0 then push kernel.pending proc.p_delta proc.gen
  else if after > 0 then
    Heap.push kernel.timed (kernel.time + after) proc.gen proc.p_delta

let run_process kernel proc =
  match proc.p_state with
  | Not_started body ->
    proc.p_state <- Running;
    let handler = Some (park kernel proc) (* once per process *) in
    Effect.Deep.match_with body ()
      {
        retc = (fun () -> proc.p_state <- Finished);
        exnc = (fun exn -> proc.p_state <- Finished; raise exn);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Wait -> (handler : ((a, unit) Effect.Deep.continuation -> unit) option)
            | _ -> None);
      }
  | Suspended cont ->
    proc.p_state <- Running;
    Effect.Deep.continue cont proc.reason
  | Running -> invalid_arg "Kernel: process resumed while running"
  | Finished -> ()

(* Delta cycles until nothing is left to do; true when a budget ran out.
   Allocates nothing per cycle. *)
let rec cycle kernel max_time max_deltas =
  let runnable = kernel.runnable and updates = kernel.updates
  and pending = kernel.pending and timed = kernel.timed in
  (* Evaluation phase. *)
  while kernel.run_head < runnable.len do
    kernel.run_head <- kernel.run_head + 1;
    run_process kernel runnable.items.(kernel.run_head - 1)
  done;
  kernel.run_head <- 0;
  runnable.len <- 0;
  (* Update phase; an action scheduled by an action waits for the next. *)
  let n = updates.len in
  for i = 0 to n - 1 do
    updates.items.(i) ()
  done;
  if n > 0 then Array.blit updates.items n updates.items 0 (updates.len - n);
  updates.len <- updates.len - n;
  if kernel.stop_requested then false
  else begin
    (* Delta notification phase. *)
    let n = pending.len in
    pending.len <- 0;
    for i = 0 to n - 1 do
      fire_entry pending.items.(i) pending.tags.(i) pending.items.(i).ev_reason
    done;
    if runnable.len > 0 then begin
      kernel.deltas <- kernel.deltas + 1;
      kernel.deltas >= max_deltas || cycle kernel max_time max_deltas
    end
    else begin
      (* Timed advance; stale timeouts go first, so they never advance
         time. *)
      while (not (Heap.is_empty timed)) && stale (Heap.top timed) (Heap.top_tag timed) do
        ignore (Heap.pop timed)
      done;
      if Heap.is_empty timed then false
      else if Heap.min_key timed > max_time then true
      else begin
        kernel.time <- Heap.min_key timed;
        while (not (Heap.is_empty timed)) && Heap.min_key timed = kernel.time do
          let tag = Heap.top_tag timed in
          fire_entry (Heap.pop timed) tag Timeout
        done;
        cycle kernel max_time max_deltas
      end
    end
  end

let run ?(max_time = max_int) ?(max_deltas = max_int) ?(expect_activity = false)
    kernel =
  kernel.stop_requested <- false;
  let budget_exhausted = cycle kernel max_time max_deltas in
  let suspended = function
    | { p_state = Suspended _ | Not_started _; p_name; _ } -> Some p_name
    | _ -> None
  in
  if expect_activity && (not budget_exhausted) && not kernel.stop_requested then
    match List.filter_map suspended kernel.processes with
    | [] -> ()
    | names ->
      raise
        (Deadlock
           (Fmt.str "simulation ended at t=%d with suspended processes: %a"
              kernel.time Fmt.(list ~sep:comma string) names))
