(** rw-antidependency graph.

    [add_edge ~reader ~writer] records [reader --rw--> writer]: the reader
    saw the version the writer replaced (or would have seen the row the
    writer created, for predicate reads). Following the paper's
    terminology, [in_conflicts w] is the writer's inConflictList (readers
    pointing at it) and [out_conflicts r] is the reader's
    outConflictList. *)

type t

val create : unit -> t

val add_edge : t -> reader:int -> writer:int -> unit

(** Sorted, duplicate-free. *)
val in_conflicts : t -> int -> int list

val out_conflicts : t -> int -> int list

val edge_count : t -> int

(** Test hooks (DESIGN.md §3). *)
module Testing : sig
  (** All [(reader, writer)] rw-antidependency edges, sorted: the order is
      independent of insertion and hashing, so two detectors' graphs
      compare as lists. *)
  val edges : t -> (int * int) list
end
