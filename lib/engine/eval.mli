(** Expression compilation: scalar and aggregate expressions become
    closures over a frame of bound rows.

    Each expression is compiled once per statement execution against a
    {!layout}, the tables in scope at the point where it runs. Column
    references are resolved at compile time to a (slot, column offset)
    pair, so evaluating a row never looks a name up. A name that does not
    resolve compiles to a closure that raises {!Error} when evaluated: a
    query over an empty table still succeeds.

    SQL three-valued logic: [NULL] propagates through arithmetic and
    comparisons; [AND]/[OR] follow Kleene logic; [WHERE] keeps a row only
    when the predicate is definitely true. Type errors (e.g. ['a' + 1])
    raise {!Error}, which the executor converts into a statement error. *)

exception Error of string

(** One table brought into scope: its alias and schema, whether its
    provenance pseudo-columns [xmin], [xmax], [creator] and [deleter]
    resolve, and the all-NULL row an outer join binds when nothing
    matches (every pseudo-column of that row reads NULL). *)
type slot = {
  alias : string;
  schema : Brdb_storage.Schema.t;
  provenance : bool;
  null_row : Brdb_storage.Version.t;
}

val slot : alias:string -> schema:Brdb_storage.Schema.t -> provenance:bool -> slot

(** The tables in scope, outermost first. Slots from [scope_start] on
    belong to the innermost query; earlier slots are correlated outer
    context, consulted only when a name is not found in the current
    scope (the innermost outer slot wins; ambiguity is an error only
    within the current scope). *)
type layout = { slots : slot array; scope_start : int }

(** No tables: parameters and constants only. *)
val root : layout

(** [extend layout s] binds one more table in the current scope. *)
val extend : layout -> slot -> layout

(** [enter layout] opens a new innermost scope (a subquery's) with every
    slot of [layout] as its outer context. *)
val enter : layout -> layout

(** The bound rows, one version per slot of the layout an expression was
    compiled against (longer frames are fine: extra slots are ignored). *)
type frame = Brdb_storage.Version.t array

(** The provenance pseudo-column names, in [SELECT *] order. *)
val pseudo_columns : string list

(** What a resolved column reference reads from its slot's version. *)
type access = Column of int  (** a schema column offset *) | Pseudo of string

type resolution = Found of int * access  (** slot, access *) | Unresolved of string

(** [resolve layout qualifier name]: the one map from a column reference
    to the slot it reads. Compilation, the planner's pushdown and index
    choice, the correlation check and GROUP BY matching all read its
    answer. [Unresolved msg] is the error the reference raises when it
    is evaluated. *)
val resolve : layout -> string option -> string -> resolution

(** A subquery as the executor runs it: its rows under an outer frame,
    and, for subqueries whose result cannot depend on the outer row, a
    hash-membership fast path for [x IN (SELECT ...)] ([get frame xv]
    answers [Some] of a [Bool]/[Null], or [None] when that [xv] needs the
    linear walk, which keeps the comparison-error semantics). *)
type subquery = {
  rows : frame -> Brdb_storage.Value.t array list;
  probe : (frame -> Brdb_storage.Value.t -> Brdb_storage.Value.t option) option;
}

type ctx = {
  params : Brdb_storage.Value.t array;
  named : (string * Brdb_storage.Value.t) list;  (** [:name] bindings *)
  subquery : (Brdb_sql.Ast.select -> layout -> subquery) option;
      (** compiles a subquery against the layout it runs under; called
          when the subquery is first evaluated. [None]: subqueries raise
          {!Error}. *)
}

(** [compile ctx layout e] — evaluating an aggregate raises {!Error}. *)
val compile : ctx -> layout -> Brdb_sql.Ast.expr -> frame -> Brdb_storage.Value.t

(** WHERE semantics: [true] only when the predicate is definitely true;
    a non-boolean result raises {!Error}. *)
val compile_pred : ctx -> layout -> Brdb_sql.Ast.expr -> frame -> bool

(** [SELECT *] over the slots of the innermost scope (the select's own
    FROM tables, never an enclosing row's), with the pseudo-columns
    appended per slot when [provenance]. *)
val compile_star :
  layout -> provenance:bool -> frame -> Brdb_storage.Value.t list

(** Evaluate a closed expression (no columns in scope). *)
val eval : ctx -> Brdb_sql.Ast.expr -> Brdb_storage.Value.t

(** Evaluate a closed expression to a 3VL boolean: [Some true],
    [Some false], or [None] (unknown). Non-boolean results raise
    {!Error}. *)
val eval_bool : ctx -> Brdb_sql.Ast.expr -> bool option

(** {2 Aggregates} *)

(** A statement's distinct aggregate calls (DESIGN.md §9, "Streaming
    aggregation"). Each gets one accumulator per group: COUNT a count,
    SUM and AVG an int total and a float total added in row order, MIN
    and MAX the best value so far, COUNT(DISTINCT) a set. *)
type aggregates

(** [aggregates ctx layout]: aggregate arguments compile against
    [layout], the layout of the grouped rows. *)
val aggregates : ctx -> layout -> aggregates

(** Can rows fold in as they arrive? Only when no registered aggregate's
    argument has a subquery: a subquery's reads and errors belong at
    projection, where a {!buffered} group evaluates it. Ask once every
    expression of the statement is compiled. *)
val streamable : aggregates -> bool

(** One group: the representative row the non-aggregate parts of an
    expression read, and an accumulator per aggregate call. *)
type group

(** [group aggs ~rep] is a group its rows {!fold} into as they arrive.
    [rep] is kept as is (a reused join frame must be copied first).
    Create it once every expression of the statement is compiled. *)
val group : aggregates -> rep:frame -> group

(** [fold aggs g frame] evaluates each aggregate's argument on [frame]
    and folds the value into [g]. An argument that raises {!Error} is
    kept, that accumulator takes no more rows, and reading its value
    raises the error: at projection, where the aggregate is first
    needed. *)
val fold : aggregates -> group -> frame -> unit

(** [buffered aggs ~rows ~rep] is a group over materialized [rows] (in
    arrival order): each aggregate folds them in when an expression
    first reads it. *)
val buffered : aggregates -> rows:frame list -> rep:frame -> group

(** [compile_grouped aggs e] evaluates [e] per group: aggregate nodes
    from the group's accumulators, everything else on the representative
    row. Both have the layout [aggs] was created with (the single group
    of an empty input binds NULL rows for the select's own tables). *)
val compile_grouped : aggregates -> Brdb_sql.Ast.expr -> group -> Brdb_storage.Value.t

(** Does the expression contain a subquery ([(SELECT ...)], [EXISTS] or
    [IN (SELECT ...)])? *)
val has_subquery : Brdb_sql.Ast.expr -> bool

(** Does the expression contain an aggregate node? *)
val has_aggregate : Brdb_sql.Ast.expr -> bool

(** Test hooks (DESIGN.md §3). *)
module Testing : sig
  (** [compile_grouped_with ctx layout ~agg ~rep e] is {!compile_grouped}'s
      walk over any group type: aggregate nodes through [agg], the rest
      on [rep g]. The materialize-then-group reference aggregation
      evaluates its groups with it. *)
  val compile_grouped_with :
    ctx ->
    layout ->
    agg:(Brdb_sql.Ast.agg_kind -> Brdb_sql.Ast.expr option -> 'g -> Brdb_storage.Value.t) ->
    rep:('g -> frame) ->
    Brdb_sql.Ast.expr ->
    'g ->
    Brdb_storage.Value.t
end
