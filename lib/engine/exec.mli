(** Statement planner and executor.

    Executes parsed statements against the catalog on behalf of a
    transaction: reads go through MVCC visibility at the transaction's
    snapshot height, writes are materialized as uncommitted versions, and
    every access registers the read/predicate information SSI needs.

    In [require_index] mode (the EO flow's restriction from §4.3) every
    table access must go through an index range; sequential scans fail
    with [Missing_index], and [UPDATE]/[DELETE] without a [WHERE] clause
    fail with [Blind_update] (§3.4.3).

    There is one operator set: hash joins for equi-joins (nested loops
    otherwise), streaming hash grouping for GROUP BY (each joined row
    folds into its group's accumulators as the join emits it), a
    bounded top-k heap for
    ORDER BY ... LIMIT, predicate pushdown into scans, index probes for
    [IN (k1, ..., kn)], cached rows and hash semi-joins for uncorrelated
    subqueries (no column reference in them, nested subqueries' included,
    resolves to an enclosing query's row; a [sys.*] view's columns come
    from its registered schema), and the storage layer's live-version
    visibility index for sequential scans. Every plan decision reads the
    slot {!Eval.resolve} returns, and a FROM name used twice is rejected
    at plan time, as PostgreSQL does. No hash structure is iterated: groups
    come out in key order ([Brdb_storage.Value.compare_total]), so results,
    read/predicate sets and commit decisions never depend on hashtable
    internals. The
    property tests check query results against a reference computed with
    plain lists that shares no code with this module. *)

(** Per-operator execution statistics, collected when [mode.stats] is set
    (the observability layer enables it per contract run). Counting is
    passive: it never changes plans, read sets or results. [op_visited]
    counts versions examined by a scan (or candidates probed by a hash
    operator); [op_rows] counts rows the operator produced — the gap
    between the two is what the fast paths save. *)
type op_stat = {
  op_kind : string;
  op_table : string;
  mutable op_rows : int;
  mutable op_visited : int;
}

type stats = {
  mutable scans : op_stat list;  (** per (operator, table) counters *)
  mutable stmts : int;  (** statements executed *)
  mutable rows_out : int;  (** result rows returned *)
  mutable stats_affected : int;  (** rows inserted/updated/deleted *)
}

val new_stats : unit -> stats

(** [(op_kind, table, rows)] triples sorted for deterministic rendering;
    [op_kind] is ["index_scan"], ["seq_scan"], ["hash_join"],
    ["hash_agg"] or ["top_k"] (the latter two use ["-"] as table). *)
val scan_counts : stats -> (string * string * int) list

(** Same triples, but counting versions/candidates examined. *)
val visited_counts : stats -> (string * string * int) list

(** Accumulate [src] into [into] (summing matching operators) — used to
    keep per-node running totals across contract invocations. *)
val merge_stats : into:stats -> stats -> unit

type mode = {
  require_index : bool;
  allow_ddl : bool;  (** system/deployment contracts only *)
  allow_sys : bool;
      (** allow reads of [sys.*] virtual views (DESIGN.md §10). Off for
          contract execution: several views expose node-local facts
          (inbox depth, metrics), so a contract reading them during block
          processing could fork the cluster's write sets. *)
  stats : stats option;  (** when set, scans/statements are counted *)
}

val default_mode : mode

type error =
  | Missing_index of string
  | Blind_update of string
  | Sql_error of string

val error_to_string : error -> string

type result_set = {
  columns : string list;
  rows : Brdb_storage.Value.t array list;
  affected : int;  (** rows touched by DML; 0 for queries/DDL *)
}

val execute :
  Brdb_storage.Catalog.t ->
  Brdb_txn.Txn.t ->
  ?params:Brdb_storage.Value.t array ->
  ?named:(string * Brdb_storage.Value.t) list ->
  ?mode:mode ->
  Brdb_sql.Ast.stmt ->
  (result_set, error) result

(** [explain catalog stmt] renders the plan the executor would choose
    under [default_mode]: one line per table access (index column and
    bounds, or [seq scan]) with pushed-down filters, the join strategy
    (nested loop or hash join with its build side), and the
    aggregation/ordering operators — the tool for checking a contract
    against the EO flow's index-only restriction before deploying it.
    Parameters are treated as opaque values. *)
val explain : Brdb_storage.Catalog.t -> Brdb_sql.Ast.stmt -> (string, string) result

(** [explain_analyzed catalog stats ~op_ms stmt] renders the same plan as
    {!explain} with each operator line annotated by the actual
    [rows]/[visited] counters recorded in [stats] while executing [stmt]
    (EXPLAIN ANALYZE; see {!Scan_counts} note: counters aggregate per
    (operator, table), so a table scanned twice shows totals on each line)
    and a modelled per-operator time [op_ms ~op ~visited] in milliseconds —
    the caller derives it from the simulation {!Brdb_sim.Cost_model}, never
    from the wall clock. *)
val explain_analyzed :
  Brdb_storage.Catalog.t ->
  stats ->
  op_ms:(op:string -> visited:int -> float) ->
  Brdb_sql.Ast.stmt ->
  (string, string) result

val explain_sql : Brdb_storage.Catalog.t -> string -> (string, string) result

(** Convenience: parse and execute one statement. *)
val execute_sql :
  Brdb_storage.Catalog.t ->
  Brdb_txn.Txn.t ->
  ?params:Brdb_storage.Value.t array ->
  ?named:(string * Brdb_storage.Value.t) list ->
  ?mode:mode ->
  string ->
  (result_set, error) result

(** Test hooks (DESIGN.md §3). *)
module Testing : sig
  (** How an aggregated select turns its joined rows into output rows:
      given the select's context, mode, layout and AST once, then per run
      the enclosing frame and the join (called with a row callback), the
      ORDER BY keys and items of each output row, in output order before
      ORDER BY. *)
  type aggregation =
    Eval.ctx ->
    mode ->
    Eval.layout ->
    Brdb_sql.Ast.select ->
    Eval.frame ->
    ((Eval.frame -> unit) -> unit) ->
    (Brdb_storage.Value.t list * Brdb_storage.Value.t list) list

  (** {!execute} with every aggregated select, subqueries included, run
      through the given aggregation instead of the streaming one. *)
  val execute_with :
    aggregation ->
    Brdb_storage.Catalog.t ->
    Brdb_txn.Txn.t ->
    ?params:Brdb_storage.Value.t array ->
    ?named:(string * Brdb_storage.Value.t) list ->
    ?mode:mode ->
    Brdb_sql.Ast.stmt ->
    (result_set, error) result

  (** The statement error an aggregated select raises once its rows are
      read ([SELECT *] with aggregates, or a column outside every
      aggregate and GROUP BY key), if any. *)
  val grouping_error : Eval.layout -> Brdb_sql.Ast.select -> string option

  (** ORDER BY / HAVING with the select's output aliases substituted. *)
  val substitute_aliases :
    Brdb_sql.Ast.select_item list -> Brdb_sql.Ast.expr -> Brdb_sql.Ast.expr

  (** The grouping, DISTINCT and hash-join identity of a key: equal
      exactly when the values are pairwise equal under
      {!Brdb_storage.Value.compare_total}. *)
  val key_string : Brdb_storage.Value.t list -> string
end
