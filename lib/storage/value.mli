(** Runtime SQL values.

    Two comparison orders coexist:
    - {!compare_total} is an arbitrary total order over all values (used by
      indexes and ORDER BY), with [Null] sorting first and numeric types
      comparing numerically across [Int]/[Float], exactly: an [Int] meets a
      [Float] as the two real numbers, with no rounding past 2^53, a NaN
      below every number and the infinities past every [Int];
    - {!compare_sql} implements SQL semantics where any comparison with
      [Null] is unknown ([None]). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

(** Equality as {!compare_total} has it for numbers (an [Int] equals a
    [Float] of the same real value), structural otherwise. *)
val equal : t -> t -> bool

(** Total order: Null < Bool < numeric (Int/Float merged) < Text. *)
val compare_total : t -> t -> int

(** SQL comparison; [None] when either side is [Null] or the types are not
    comparable (e.g. [Int] vs [Text]). *)
val compare_sql : t -> t -> int option

val is_null : t -> bool

(** [conforms ty v] — [Null] conforms to every type; [Int] conforms to
    [T_float] (implicit widening). *)
val conforms : Brdb_sql.Ast.data_type -> t -> bool

val of_lit : Brdb_sql.Ast.lit -> t

val to_string : t -> string

(** Unambiguous binary encoding used when hashing write sets and
    serializing state snapshots (DESIGN.md §11). *)
val encode : t -> string

(** Inverse of {!encode}; [None] on malformed input. *)
val decode : string -> t option
