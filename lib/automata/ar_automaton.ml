type state_kind = Accept | Reject | Pend

exception Too_large of int

(* Row widths: a state's successors over at most [max_dense_props]
   propositions are a mask-indexed array, up to [max_cached_props] a hash
   table, and anything wider is recomputed on every step. *)
let max_dense_props = 12
let max_cached_props = 16
let default_max_states = 200_000

type row =
  | Unvisited  (** pending state whose row is not allocated yet *)
  | Absorbing  (** accept/reject states are their own successor *)
  | Dense of int array  (** [2^width] successors; [-1] is unfilled *)
  | Hashed of (int, int) Hashtbl.t
  | Uncached

(* Where a missing successor comes from: formula progression (states are
   interned obligations, assigned ids on first reach) or the guards of an
   imported automaton (a fixed state set). *)
type source =
  | Progress of {
      mutable formulas : Formula.t array; (* state -> obligation *)
      index : (int, int) Hashtbl.t; (* formula id -> state *)
    }
  | Guards of (int -> int -> int)

(* fill hits and misses of one domain; registered process-wide so
   [counters] can sum after worker domains have exited *)
type cell = { mutable hits : int; mutable misses : int }

type t = {
  props : string array; (* sorted support: bit [i] of a mask is props.(i) *)
  source : source;
  initial : int;
  mutable kinds : state_kind array;
  mutable rows : row array;
  mutable count : int;
  mutable complete : bool; (* every reachable (state, mask) is filled *)
  mutable build_seconds : float;
  cell : cell;
}

let kind_of_formula f =
  match Progression.verdict f with
  | Verdict.True -> Accept
  | Verdict.False -> Reject
  | Verdict.Pending -> Pend

let row_of_kind = function Accept | Reject -> Absorbing | Pend -> Unvisited

let grow array count filler =
  if count < Array.length array then array
  else
    Array.append array (Array.make (max 8 (Array.length array)) filler)

(* the id of obligation [f], interning it on first reach *)
let intern t f =
  match t.source with
  | Guards _ -> assert false
  | Progress p -> (
    match Hashtbl.find_opt p.index (Formula.hash f) with
    | Some state -> state
    | None ->
      let state = t.count in
      let kind = kind_of_formula f in
      p.formulas <- grow p.formulas state f;
      p.formulas.(state) <- f;
      t.kinds <- grow t.kinds state kind;
      t.kinds.(state) <- kind;
      t.rows <- grow t.rows state Unvisited;
      t.rows.(state) <- row_of_kind kind;
      t.count <- state + 1;
      Hashtbl.replace p.index (Formula.hash f) state;
      state)

(* Per-domain state: the formula-id memo of shared tables plus this
   domain's fill counters. *)
let cell_registry : cell list ref = ref []
let cell_registry_lock = Mutex.create ()

let domain_key =
  Domain.DLS.new_key (fun () ->
      let cell = { hits = 0; misses = 0 } in
      Mutex.lock cell_registry_lock;
      cell_registry := cell :: !cell_registry;
      Mutex.unlock cell_registry_lock;
      ((Hashtbl.create 32 : (int, t) Hashtbl.t), cell))

let create formula =
  let _, cell = Domain.DLS.get domain_key in
  let t =
    {
      props = Array.of_list (Formula.props formula);
      source = Progress { formulas = [||]; index = Hashtbl.create 64 };
      initial = 0;
      kinds = [||];
      rows = [||];
      count = 0;
      complete = false;
      build_seconds = 0.0;
      cell;
    }
  in
  ignore (intern t formula);
  t

let shared formula =
  let memo, _ = Domain.DLS.get domain_key in
  match Hashtbl.find_opt memo (Formula.hash formula) with
  | Some t -> t
  | None ->
    let t = create formula in
    Hashtbl.replace memo (Formula.hash formula) t;
    t

let import ~props ~initial ~kinds successor =
  let _, cell = Domain.DLS.get domain_key in
  {
    props = Array.copy props;
    source = Guards successor;
    initial;
    kinds = Array.copy kinds;
    rows = Array.map row_of_kind kinds;
    count = Array.length kinds;
    complete = false;
    build_seconds = 0.0;
    cell;
  }

let valuation_of_mask props mask name =
  let rec find i =
    if i >= Array.length props then
      invalid_arg ("Ar_automaton: unknown proposition " ^ name)
    else if String.equal props.(i) name then mask land (1 lsl i) <> 0
    else find (i + 1)
  in
  find 0

let compute t state mask =
  t.cell.misses <- t.cell.misses + 1;
  match t.source with
  | Guards successor -> successor state mask
  | Progress p ->
    intern t (Progression.step p.formulas.(state) (valuation_of_mask t.props mask))

let rec next t state mask =
  match t.rows.(state) with
  | Dense row ->
    let target = row.(mask) in
    if target >= 0 then begin
      t.cell.hits <- t.cell.hits + 1;
      target
    end
    else begin
      let target = compute t state mask in
      row.(mask) <- target;
      target
    end
  | Absorbing -> state
  | Hashed row -> (
    match Hashtbl.find_opt row mask with
    | Some target ->
      t.cell.hits <- t.cell.hits + 1;
      target
    | None ->
      let target = compute t state mask in
      Hashtbl.replace row mask target;
      target)
  | Uncached -> compute t state mask
  | Unvisited ->
    let width = Array.length t.props in
    t.rows.(state) <-
      (if width <= max_dense_props then Dense (Array.make (1 lsl width) (-1))
       else if width <= max_cached_props then Hashed (Hashtbl.create 16)
       else Uncached);
    next t state mask

let fill ?(max_states = default_max_states) t =
  let budget () = if t.count > max_states then raise (Too_large t.count) in
  budget ();
  if not t.complete then begin
    let width = Array.length t.props in
    if width > max_cached_props then
      invalid_arg
        (Printf.sprintf "Ar_automaton.fill: more than %d propositions"
           max_cached_props);
    let started = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        t.build_seconds <- t.build_seconds +. (Unix.gettimeofday () -. started))
      (fun () ->
        (* ids grow as states are reached, so visiting them in id order
           is a breadth-first exploration *)
        let state = ref 0 in
        while !state < t.count do
          if t.kinds.(!state) = Pend then
            for mask = 0 to (1 lsl width) - 1 do
              ignore (next t !state mask);
              budget ()
            done;
          incr state
        done;
        t.complete <- true)
  end

let synthesize ?max_states formula =
  let t = create formula in
  fill ?max_states t;
  t

type counters = { hits : int; misses : int }

let counters () =
  let hits = ref 0 and misses = ref 0 in
  Mutex.lock cell_registry_lock;
  List.iter
    (fun (cell : cell) ->
      hits := !hits + cell.hits;
      misses := !misses + cell.misses)
    !cell_registry;
  Mutex.unlock cell_registry_lock;
  { hits = !hits; misses = !misses }

let local_counters () =
  let _, cell = Domain.DLS.get domain_key in
  cell

let props t = t.props
let num_states t = t.count
let num_props t = Array.length t.props
let initial t = t.initial
let complete t = t.complete
let kind t state = t.kinds.(state)

let verdict t state =
  match t.kinds.(state) with
  | Accept -> Verdict.True
  | Reject -> Verdict.False
  | Pend -> Verdict.Pending

let state_formula t state =
  match t.source with
  | Progress p -> Some p.formulas.(state)
  | Guards _ -> None

let build_seconds t = t.build_seconds

let mask_of_valuation t valuation =
  let mask = ref 0 in
  Array.iteri (fun i name -> if valuation name then mask := !mask lor (1 lsl i))
    t.props;
  !mask

let stats t =
  Printf.sprintf "%d states, %d propositions, built in %.3fs" (num_states t)
    (num_props t) t.build_seconds
