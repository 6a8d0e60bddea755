(** Binary min-heap of [(key, a, b)] int triples, struct-of-arrays.

    The VM's object death queue: keyed by the cumulative allocated bytes
    at which an object's root is dropped, with the object id and its
    owner as the two payload columns.  Three parallel [int array]
    columns, so once they have grown, {!push} and the
    {!top_key}/{!top_a}/{!top_b}/{!remove_min} drain allocate nothing.

    Pop order is that of {!Heapq} for the same push/pop sequence: both
    use the same sift rules (strict [<], left child tested before right,
    the last entry moved to the root on removal), so entries with equal
    keys leave in the same order. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> int -> int -> int -> unit
(** [push h key a b] inserts [(a, b)] with priority [key]. *)

val top_key : t -> int
(** Smallest key; raises [Invalid_argument] on an empty heap. *)

val top_a : t -> int
(** First payload of the minimum entry; raises on an empty heap. *)

val top_b : t -> int
(** Second payload of the minimum entry; raises on an empty heap. *)

val remove_min : t -> unit
(** Removes the minimum entry; raises on an empty heap. *)
