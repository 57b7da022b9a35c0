(** Growable bitset over small non-negative ints (version ids).

    Unlike [Set.Make (Int)], [add]/[remove] are O(1) with no allocation on
    the hot path — this backs the storage layer's live-version visibility
    index, which is touched on every insert, commit, abort and rollback.
    Iteration is in ascending order, matching heap (vid) order, so scans
    draining it stay deterministic. *)

type t

val create : unit -> t

(** O(1) amortized (grows the backing array by doubling); idempotent. *)
val add : t -> int -> unit

(** O(1); absent members are a no-op. Negative ints are never members. *)
val remove : t -> int -> unit

val cardinal : t -> int

(** [iter_union t extra f] visits the union of [t] and [extra] in one
    ascending pass; [extra] must be sorted ascending and disjoint from
    [t]. *)
val iter_union : t -> int list -> (int -> unit) -> unit

(** Ascending. *)
val elements : t -> int list
