(* Machine-speed calibration for the campaign benchmark: a fixed
   allocation- and hash-heavy kernel on two domains, like a two-worker
   campaign, and linked against nothing of the program under test, so no
   change to the program moves it. Prints the median wall time of three
   repetitions, in seconds. *)

let kernel n =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 1 to n do
    let l = List.init 12 (fun j -> (i * 31) + j) in
    acc := !acc + List.fold_left (fun a x -> (a * 7) + x) 0 l;
    let k = !acc land 8191 in
    (match Hashtbl.find_opt h k with
    | Some v -> Hashtbl.replace h k (v + 1)
    | None -> Hashtbl.add h k 1);
    if i land 1023 = 0 then Hashtbl.reset h
  done;
  !acc

let once n =
  let start = Unix.gettimeofday () in
  let d = Domain.spawn (fun () -> kernel n) in
  let a = kernel n in
  let b = Domain.join d in
  let t = Unix.gettimeofday () -. start in
  if a <> b then exit 3;
  t

let () =
  let n = 300_000 and reps = 3 in
  let times = List.sort compare (List.init reps (fun _ -> once n)) in
  Printf.printf "%.9f\n" (List.nth times (reps / 2))
