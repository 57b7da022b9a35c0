(** Recursive-descent parser for the SQL subset (see {!Ast}). *)

(** [parse s] parses a single statement; a trailing [;] is allowed. *)
val parse : string -> (Ast.stmt, string) result

(** [parse_expr s] parses a standalone scalar expression (used in tests). *)
val parse_expr : string -> (Ast.expr, string) result
