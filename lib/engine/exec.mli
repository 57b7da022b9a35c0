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
    otherwise), hash grouping for GROUP BY, a bounded top-k heap for
    ORDER BY ... LIMIT, predicate pushdown into scans, index probes for
    [IN (k1, ..., kn)], cached rows and hash semi-joins for uncorrelated
    subqueries (no column reference in them, nested subqueries' included,
    resolves to an enclosing query's row; a [sys.*] view's columns come
    from its registered schema), and the storage layer's live-version
    visibility index for sequential scans. Every plan decision reads the
    slot {!Eval.resolve} returns, and a FROM name used twice is rejected
    at plan time, as PostgreSQL does. Every hash structure is drained in key
    order ([Brdb_storage.Value.compare_total]), so results, read/predicate
    sets and commit decisions never depend on hashtable internals. The
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
