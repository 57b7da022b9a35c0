(** Growable arrays.

    OCaml 5.1 does not ship [Dynarray]; this is the small subset the
    storage engine needs. Indices are 0-based; out-of-range access raises
    [Invalid_argument]. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** [push v x] appends [x] and returns its index. *)
val push : 'a t -> 'a -> int

(** [truncate v n] drops all elements at index [>= n]. No-op when
    [n >= length v]. *)
val truncate : 'a t -> int -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val of_list : 'a list -> 'a t

val last : 'a t -> 'a option

val clear : 'a t -> unit
