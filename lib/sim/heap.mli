(** Minimal binary min-heap keyed by integer priorities.

    Used by the simulation kernel to order timed notifications. Elements with
    equal keys are popped in insertion order (stable), which the kernel relies
    on so that two notifications scheduled for the same timestamp wake
    processes deterministically. Each entry also carries an integer tag;
    keys, insertion numbers and tags are stored unboxed. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

(** [push heap key tag value] inserts [value] with priority [key]. *)
val push : 'a t -> int -> int -> 'a -> unit

(** The smallest key. @raise Not_found when empty. *)
val min_key : 'a t -> int

(** The value and the tag of the entry {!pop} would remove.
    @raise Not_found when empty. *)
val top : 'a t -> 'a
val top_tag : 'a t -> int

(** [pop heap] removes the entry with the smallest key and returns its value.
    @raise Not_found when the heap is empty. *)
val pop : 'a t -> 'a
