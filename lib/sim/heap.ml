(* Entry [i] keeps its key, insertion number and tag unboxed in
   [ints.(3i)], [ints.(3i+1)] and [ints.(3i+2)], and its value in
   [values.(i)]: once the arrays have grown, nothing allocates. *)
type 'a t = {
  mutable ints : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { ints = [||]; values = [||]; size = 0; next_seq = 0 }
let is_empty heap = heap.size = 0

(* Entry ordering: by key, then by insertion number for stability. *)
let before { ints; _ } i j =
  ints.(3 * i) < ints.(3 * j)
  || (ints.(3 * i) = ints.(3 * j) && ints.((3 * i) + 1) < ints.((3 * j) + 1))

let swap { ints; values; _ } i j =
  for k = 0 to 2 do
    let x = ints.((3 * i) + k) in
    ints.((3 * i) + k) <- ints.((3 * j) + k);
    ints.((3 * j) + k) <- x
  done;
  let x = values.(i) in
  values.(i) <- values.(j);
  values.(j) <- x

let rec up heap i =
  let parent = (i - 1) / 2 in
  if i > 0 && before heap i parent then begin
    swap heap i parent;
    up heap parent
  end

let rec down heap i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let first = if left < heap.size && before heap left i then left else i in
  let first =
    if right < heap.size && before heap right first then right else first
  in
  if first <> i then begin
    swap heap i first;
    down heap first
  end

let push heap key tag value =
  let i = heap.size in
  if i = Array.length heap.values then begin
    let capacity = max 16 (2 * i) in
    let ints = Array.make (3 * capacity) 0 in
    let values = Array.make capacity value in
    Array.blit heap.ints 0 ints 0 (3 * i);
    Array.blit heap.values 0 values 0 i;
    heap.ints <- ints;
    heap.values <- values
  end;
  heap.ints.(3 * i) <- key;
  heap.ints.((3 * i) + 1) <- heap.next_seq;
  heap.ints.((3 * i) + 2) <- tag;
  heap.values.(i) <- value;
  heap.next_seq <- heap.next_seq + 1;
  heap.size <- i + 1;
  up heap i

let check heap = if heap.size = 0 then raise Not_found
let min_key heap = check heap; heap.ints.(0)
let top_tag heap = check heap; heap.ints.(2)
let top heap = check heap; heap.values.(0)

let pop heap =
  let value = top heap in
  heap.size <- heap.size - 1;
  swap heap 0 heap.size;
  down heap 0;
  value
