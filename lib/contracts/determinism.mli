(** The determinism guard applied at deployment (§4.3).

    Rejects contracts that could produce different results on different
    nodes: non-deterministic functions (date/time, random, sequences,
    system information), [LIMIT]/[FETCH] without a total [ORDER BY], and
    references to row-header pseudo-columns outside provenance mode. *)

(** Check one statement. *)
val check_stmt : Brdb_sql.Ast.stmt -> (unit, string) result

(** Check a whole procedural program. *)
val check_program : Procedural.t -> (unit, string) result
