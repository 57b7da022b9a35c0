(** The determinism guard applied at deployment (§4.3).

    Rejects contracts that could produce different results on different
    nodes: non-deterministic functions (date/time, random, sequences,
    system information), [LIMIT]/[FETCH] without a total [ORDER BY], and
    references to row-header pseudo-columns outside provenance mode. *)

(** Check a whole procedural program. *)
val check_program : Procedural.t -> (unit, string) result

(** [parse_program source] parses a procedural contract and then checks
    it: the one deploy-time gate that direct installs, the deployment
    system contract and its on-commit hook all go through. *)
val parse_program :
  string -> (Procedural.t, [ `Syntax of string | `Nondeterministic of string ]) result
