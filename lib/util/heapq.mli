(** Binary min-heap keyed by [int] priorities.

    The discrete-event queues of the client sessions, the cluster
    coordinator and the kvstore gateway, keyed by virtual time in
    microseconds.  (The VM's object death queue is the monomorphic
    {!Int_heap}.)  Keys sit in an unboxed [int] column beside a payload
    column: once the columns have grown, {!push} and the
    {!top_key}/{!top}/{!remove_min} drain allocate nothing, and a popped
    payload is no longer referenced by the queue.

    Entries with equal keys leave in a fixed order, that of a
    swap-based binary heap with strict [<], the left child tested
    before the right and the last entry moved to the root on removal;
    event loops depend on it for their determinism. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] pre-sizes the columns, rounded up to a power of two, for
    callers that know how many entries they are about to push. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push q key payload] inserts with priority [key]. *)

val top_key : 'a t -> int
(** Smallest key; raises [Invalid_argument] on an empty queue. *)

val top : 'a t -> 'a
(** Payload of the minimum entry; raises on an empty queue. *)

val remove_min : 'a t -> unit
(** Removes the minimum entry; raises on an empty queue. *)

val min_key : 'a t -> int option
(** Smallest key currently in the queue, if any. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum entry. *)

val clear : 'a t -> unit
