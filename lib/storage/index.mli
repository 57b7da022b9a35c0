(** Ordered secondary index: column value -> the version ids under it.

    Backed by a balanced map over {!Value.compare_total}; supports point
    and range scans. Each key keeps its versions split the way
    {!Table} splits the whole heap (DESIGN.md §9, "Visibility index"):
    live vids (no deleter yet, committed or not) apart from retired vids
    ordered by the block that deleted them. Aborted vids are not indexed.
    A reader at snapshot height [h] then visits the live vids plus the
    retired ones deleted above [h], not the key's whole history; it still
    applies MVCC visibility, as index scans over PostgreSQL heaps do.

    {!Table}'s lifecycle functions are the only writers (held by
    [tools/lint.sh]). *)

type t

type bound = Unbounded | Incl of Value.t | Excl of Value.t

val create : column:int -> t

(** Column position this index covers. *)
val column : t -> int

(** [add t key vid] indexes a live version. *)
val add : t -> Value.t -> int -> unit

(** [retire t key vid ~block] moves [vid] from the key's live vids to its
    retired ones, deleted by [block]: one lookup, then an update in place.
    No-op for a key not indexed. *)
val retire : t -> Value.t -> int -> block:int -> unit

(** Reverse of {!retire}: [vid] is live again under [key]. *)
val unretire : t -> Value.t -> int -> unit

(** [remove t key vid] drops [vid] (live or retired) from the index, and
    the key with it when nothing is left under it; an absent [vid] is a
    no-op. *)
val remove : t -> Value.t -> int -> unit

(** [iter_range ?height t ~lo ~hi f] calls [f vid] for every entry with
    key in the given bounds, in key order (ties in vid order). With
    [height], only live vids and vids retired by a block above [height]
    are visited; without it, every indexed vid is. A lifecycle call made
    from [f] does not change the walk of the current key (a key not
    reached yet may show it). A point range [Incl k, Incl k] is one map
    lookup; any other range seeks to [lo] and enumerates keys. *)
val iter_range : ?height:int -> t -> lo:bound -> hi:bound -> (int -> unit) -> unit

(** [iter_key ~height t key f] is [iter_range ~height t ~lo:(Incl key)
    ~hi:(Incl key) f] with no bounds built ([height = min_int] visits
    every indexed vid). *)
val iter_key : height:int -> t -> Value.t -> (int -> unit) -> unit

(** Every key in order, with its live vids (ascending) and its retired
    [(deleter block, vid)] pairs in stored order (newest block first, then
    higher vid first). For {!Table.check_visibility}. *)
val entries : t -> (Value.t * int list * (int * int) list) list

(** Test hooks (DESIGN.md §3). *)
module Testing : sig
  (** [walk_range] is {!iter_range} through the key enumeration for every
      range, point ranges included: the walk the point lookup must match. *)
  val walk_range : ?height:int -> t -> lo:bound -> hi:bound -> (int -> unit) -> unit
end
