type t = {
  m_name : string;
  table : Ar_automaton.t;
  samplers : (unit -> bool) array; (* slot [i] samples mask bit [i] *)
  mutable state : int;
  mutable step_count : int;
  mutable last_verdict : Verdict.t;
}

let of_automaton ~name table ~binding =
  let state = Ar_automaton.initial table in
  {
    m_name = name;
    table;
    samplers = Array.map binding (Ar_automaton.props table);
    state;
    step_count = 0;
    last_verdict = Ar_automaton.verdict table state;
  }

let of_formula ~name formula ~binding =
  of_automaton ~name (Ar_automaton.shared formula) ~binding

let of_il ~name il ~binding = of_automaton ~name (Il.to_automaton il) ~binding

let name monitor = monitor.m_name
let verdict monitor = monitor.last_verdict
let steps monitor = monitor.step_count
let support monitor = Array.copy (Ar_automaton.props monitor.table)

let advance monitor mask =
  monitor.state <- Ar_automaton.next monitor.table monitor.state mask;
  monitor.last_verdict <- Ar_automaton.verdict monitor.table monitor.state

let step monitor =
  if not (Verdict.is_final monitor.last_verdict) then begin
    (* sample every supporting proposition exactly once for this step *)
    let mask = ref 0 in
    for slot = 0 to Array.length monitor.samplers - 1 do
      if monitor.samplers.(slot) () then mask := !mask lor (1 lsl slot)
    done;
    advance monitor !mask
  end;
  monitor.step_count <- monitor.step_count + 1;
  monitor.last_verdict

let step_indexed monitor ~samples ~map =
  if not (Verdict.is_final monitor.last_verdict) then begin
    let mask = ref 0 in
    for slot = 0 to Array.length map - 1 do
      if samples.(map.(slot)) then mask := !mask lor (1 lsl slot)
    done;
    advance monitor !mask
  end;
  monitor.step_count <- monitor.step_count + 1;
  monitor.last_verdict

let finalize ?(strong = false) monitor =
  match Ar_automaton.state_formula monitor.table monitor.state with
  | Some obligation -> Progression.finalize ~strong obligation
  | None -> monitor.last_verdict

let reset monitor =
  monitor.state <- Ar_automaton.initial monitor.table;
  monitor.step_count <- 0;
  monitor.last_verdict <- Ar_automaton.verdict monitor.table monitor.state
