(** Table schemas. *)

type column = {
  name : string;
  ty : Brdb_sql.Ast.data_type;
  not_null : bool;
  primary_key : bool;
}

type t = private {
  table_name : string;
  columns : column array;
  pk_index : int option;  (** position of the primary-key column, if any *)
}

(** Builds a schema. Errors: duplicate column names, more than one primary
    key, reserved column names ([xmin], [xmax], [creator], [deleter]). *)
val create :
  name:string ->
  columns:column list ->
  (t, string) result

(** [of_ast name cols] from parsed [CREATE TABLE] column definitions. *)
val of_ast : string -> Brdb_sql.Ast.column_def list -> (t, string) result

val column_index : t -> string -> int option

val arity : t -> int

(** [check_row t row] validates arity, types and NOT NULL constraints. The
    primary key column is implicitly NOT NULL. *)
val check_row : t -> Value.t array -> (unit, string) result
