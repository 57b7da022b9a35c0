open Brdb_storage
open Brdb_sql.Ast
module Txn = Brdb_txn.Txn

type op_stat = {
  op_kind : string;
  op_table : string;
  mutable op_rows : int;
  mutable op_visited : int;
}

type stats = {
  mutable scans : op_stat list;
  mutable stmts : int;
  mutable rows_out : int;
  mutable stats_affected : int;
}

let new_stats () = { scans = []; stmts = 0; rows_out = 0; stats_affected = 0 }

let scan_counts s =
  List.sort compare
    (List.map (fun o -> (o.op_kind, o.op_table, o.op_rows)) s.scans)

let visited_counts s =
  List.sort compare
    (List.map (fun o -> (o.op_kind, o.op_table, o.op_visited)) s.scans)

(* [s]'s counter for (operator, table), created at its first count. *)
let op_stat s ~op ~table =
  let rec find = function
    | [] ->
        let o = { op_kind = op; op_table = table; op_rows = 0; op_visited = 0 } in
        s.scans <- o :: s.scans;
        o
    | o :: rest ->
        if String.equal o.op_kind op && String.equal o.op_table table then o else find rest
  in
  find s.scans

let add_counts o ~rows ~visited =
  o.op_rows <- o.op_rows + rows;
  o.op_visited <- o.op_visited + visited

let merge_stats ~into (src : stats) =
  List.iter
    (fun o ->
      add_counts (op_stat into ~op:o.op_kind ~table:o.op_table) ~rows:o.op_rows
        ~visited:o.op_visited)
    src.scans;
  into.stmts <- into.stmts + src.stmts;
  into.rows_out <- into.rows_out + src.rows_out;
  into.stats_affected <- into.stats_affected + src.stats_affected

type mode = {
  require_index : bool;
  allow_ddl : bool;
  allow_sys : bool;
  stats : stats option;
}

let default_mode =
  { require_index = false; allow_ddl = true; allow_sys = true; stats = None }

let stats_scan mode ~op ~table ~rows ~visited =
  match mode.stats with
  | None -> ()
  | Some s -> add_counts (op_stat s ~op ~table) ~rows ~visited

(* A compiled operator's counter: found in [mode.stats] at its first
   count, as [stats_scan] would, then kept for its later runs. *)
type counter = { c_op : string; c_table : string; mutable c_stat : op_stat option }

let counter ~op ~table = { c_op = op; c_table = table; c_stat = None }

let count mode c ~rows ~visited =
  match mode.stats with
  | None -> ()
  | Some s ->
      let o =
        match c.c_stat with
        | Some o -> o
        | None ->
            let o = op_stat s ~op:c.c_op ~table:c.c_table in
            c.c_stat <- Some o;
            o
      in
      add_counts o ~rows ~visited

type error =
  | Missing_index of string
  | Blind_update of string
  | Sql_error of string

let error_to_string = function
  | Missing_index what -> "no usable index for predicate on " ^ what
  | Blind_update table -> "blind update on " ^ table
  | Sql_error msg -> msg

type result_set = { columns : string list; rows : Value.t array list; affected : int }

exception Exec_error of error

let fail fmt = Printf.ksprintf (fun msg -> raise (Exec_error (Sql_error msg))) fmt

let table_or_fail catalog name =
  match Catalog.find catalog name with
  | Some t -> t
  | None -> fail "table %s does not exist" name

(* Materialize a [sys.*] view as an ephemeral table at [height]: provider
   rows become versions committed at block 0, so ordinary MVCC visibility
   accepts them and the whole executor (joins, aggregates, pushdown,
   provenance pseudo-columns) applies unchanged. The table lives only for
   the current statement and never enters the catalog. *)
let materialize_virtual (v : Catalog.virtual_table) ~height =
  let t = Table.create v.Catalog.v_schema in
  List.iter
    (fun row ->
      let ver = Table.insert_version t ~xmin:0 row in
      ver.Version.creator_block <- 0)
    (v.Catalog.v_rows ~height);
  t

(* Read-side table resolution: real tables first, then registered virtual
   views (materialized at the transaction's snapshot height). Contracts run
   with [allow_sys = false]: several views (sys.nodes, sys.metrics) expose
   node-local facts, so reading them during block processing would fork the
   write sets. *)
let resolve_table catalog txn mode name =
  match Catalog.find catalog name with
  | Some t -> t
  | None -> (
      match Catalog.find_virtual catalog name with
      | Some v ->
          if not mode.allow_sys then
            fail "%s is not readable from contracts" name
          else materialize_virtual v ~height:txn.Txn.snapshot_height
      | None -> fail "table %s does not exist" name)

(* Plan-time table resolution: real tables first, then a registered view
   as an empty table of its schema, read from [Catalog.virtual_schema]
   without materializing its rows. [explain] and the correlation check
   plan with it. *)
let schema_table catalog name =
  match Catalog.find catalog name with
  | Some t -> t
  | None -> (
      match Catalog.virtual_schema catalog name with
      | Some schema -> Table.create schema
      | None -> fail "table %s does not exist" name)

(* --- access-path selection --------------------------------------------- *)

(* Flatten a WHERE/ON tree into AND-ed conjuncts. *)
let rec conjuncts_of = function
  | Binop (And, a, b) -> conjuncts_of a @ conjuncts_of b
  | e -> [ e ]

(* Column references of an expression. *)
let column_refs e =
  let acc = ref [] in
  iter_expr (function Col (q, c) -> acc := (q, c) :: !acc | _ -> ()) e;
  !acc

(* The slots [e]'s column references read, each resolved once by
   [Eval.resolve] in [layout]; [None] when one does not resolve. *)
let read_slots layout e =
  List.fold_left
    (fun acc (q, c) ->
      match (acc, Eval.resolve layout q c) with
      | Some slots, Eval.Found (i, _) -> Some (i :: slots)
      | _ -> None)
    (Some []) (column_refs e)

(* A subquery or an aggregate needs the full row: it never moves into a
   scan. *)
let plain e = not (Eval.has_subquery e || Eval.has_aggregate e)

(* Can [e] run with only the slots before [slot] bound? *)
let bound_before layout slot e =
  plain e
  && match read_slots layout e with
     | Some slots -> List.for_all (fun i -> i < slot) slots
     | None -> false

(* The column of [slot] that [e] names, when [e] is a bare reference that
   resolves there. *)
let column_of layout slot = function
  | Col (q, c) -> (
      match Eval.resolve layout q c with
      | Eval.Found (i, Eval.Column k) when i = slot -> Some k
      | _ -> None)
  | _ -> None

(* --- deterministic hash keys -------------------------------------------- *)

(* Hash-operator keys collide exactly when [Value.compare_total] calls the
   values equal. An Int and a Float compare as the numbers they are, so
   every integral float in int range takes the Int spelling, and every NaN
   one spelling; any other float is equal to itself alone. *)
let canon_encode v =
  match v with
  | Value.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
      Value.encode (Value.Int (Float.to_int f))
  | Value.Float f when Float.is_nan f -> "Fnan"
  | v -> Value.encode v

(* Grouping, DISTINCT and hash-join identity: injective, since every
   component self-delimits (the separator is cosmetic). *)
let key_string = function
  | [ v ] -> canon_encode v
  | vs -> String.concat "\x00" (List.map canon_encode vs)

type restriction = {
  r_column : int;
  r_op : [ `Eq | `Lt | `Le | `Gt | `Ge | `In ];
  r_keys : expr list;
      (* evaluable in the layout the scan starts from; singleton except
         for [`In] *)
}

let flip_op = function `Eq -> `Eq | `Lt -> `Gt | `Le -> `Ge | `Gt -> `Lt | `Ge -> `Le

(* An index restriction on [slot]'s table: a comparison (or IN list)
   between one of its columns and keys bound before it, every name
   resolved in [layout], the layout the conjunct compiles against. *)
let rec restriction_of_conjunct layout slot conjunct =
  let classify lhs rhs op =
    match column_of layout slot lhs with
    | Some i when bound_before layout slot rhs ->
        Some { r_column = i; r_op = op; r_keys = [ rhs ] }
    | _ -> None
  in
  match conjunct with
  | Binop (((Eq | Lt | Le | Gt | Ge) as op), a, b) -> (
      let op = match op with Eq -> `Eq | Lt -> `Lt | Le -> `Le | Gt -> `Gt | _ -> `Ge in
      match classify a b op with
      | Some r -> [ r ]
      | None -> Option.to_list (classify b a (flip_op op)))
  | Between (x, lo, hi) ->
      restriction_of_conjunct layout slot (Binop (Ge, x, lo))
      @ restriction_of_conjunct layout slot (Binop (Le, x, hi))
  | In_list (x, (_ :: _ as es)) -> (
      (* x IN (k1, ..., kn) probes the index once per distinct key. *)
      match column_of layout slot x with
      | Some i when List.for_all (bound_before layout slot) es ->
          [ { r_column = i; r_op = `In; r_keys = es } ]
      | _ -> [])
  | _ -> []

type path =
  | Seq_scan
  | Index_range of { column : int; restrictions : restriction list }

(* Pick the most selective indexed column: equality (or IN) beats range.
   Grouping is list-based so candidate order never depends on hashtable
   internals. The choice consults only the catalog and name resolution,
   never row values. *)
let choose_path table restrictions =
  let columns =
    List.sort_uniq compare (List.map (fun r -> r.r_column) restrictions)
  in
  let candidates =
    List.filter_map
      (fun col ->
        if Table.has_index table ~column:col then
          let rs = List.filter (fun r -> r.r_column = col) restrictions in
          let has_eq = List.exists (fun r -> r.r_op = `Eq || r.r_op = `In) rs in
          Some (col, rs, has_eq)
        else None)
      columns
    |> List.sort (fun (c1, _, eq1) (c2, _, eq2) ->
           (* eq-restricted columns first, then by column position *)
           match compare eq2 eq1 with 0 -> compare c1 c2 | c -> c)
  in
  match candidates with
  | (column, rs, _) :: _ -> Index_range { column; restrictions = rs }
  | [] -> Seq_scan

(* A path with its index resolved and its key expressions compiled
   against the layout the scan starts from. A lone equality is a point
   probe: its key is evaluated once per run and looked up directly. *)
type access =
  | Seq
  | Point of { index : Index.t; column : int; key : Eval.frame -> Value.t }
  | Range of {
      index : Index.t;
      column : int;
      ranges : ([ `Eq | `Lt | `Le | `Gt | `Ge | `In ] * (Eval.frame -> Value.t)) list;
      ins : (Eval.frame -> Value.t) list list;  (* one key list per [`In] *)
    }

let compile_path ctx layout table = function
  | Seq_scan -> Seq
  | Index_range { column; restrictions } -> (
      let index = Table.index table ~column in
      let key r =
        match r.r_keys with [ e ] -> Eval.compile ctx layout e | _ -> assert false
      in
      match restrictions with
      | [ ({ r_op = `Eq; _ } as r) ] -> Point { index; column; key = key r }
      | _ ->
          let ins, ranges = List.partition (fun r -> r.r_op = `In) restrictions in
          Range
            {
              index;
              column;
              ranges = List.map (fun r -> (r.r_op, key r)) ranges;
              ins = List.map (fun r -> List.map (Eval.compile ctx layout) r.r_keys) ins;
            })

(* Evaluate a path's range bounds on the (join-)bound frame. *)
let bounds_of_restrictions frame ranges =
  let lo = ref Index.Unbounded and hi = ref Index.Unbounded in
  let tighten_lo b =
    match (!lo, b) with
    | Index.Unbounded, _ -> lo := b
    | _, Index.Unbounded -> ()
    | (Index.Incl cur | Index.Excl cur), (Index.Incl v | Index.Excl v) ->
        let c = Value.compare_total v cur in
        if c > 0 then lo := b
        else if c = 0 then
          (* Excl is tighter than Incl at the same key. *)
          match (!lo, b) with
          | Index.Incl _, Index.Excl _ -> lo := b
          | _ -> ()
  in
  let tighten_hi b =
    match (!hi, b) with
    | Index.Unbounded, _ -> hi := b
    | _, Index.Unbounded -> ()
    | (Index.Incl cur | Index.Excl cur), (Index.Incl v | Index.Excl v) ->
        let c = Value.compare_total v cur in
        if c < 0 then hi := b
        else if c = 0 then
          match (!hi, b) with
          | Index.Incl _, Index.Excl _ -> hi := b
          | _ -> ()
  in
  List.iter
    (fun (op, key) ->
      let key = key frame in
      match op with
      | `Eq ->
          tighten_lo (Index.Incl key);
          tighten_hi (Index.Incl key)
      | `Lt -> tighten_hi (Index.Excl key)
      | `Le -> tighten_hi (Index.Incl key)
      | `Gt -> tighten_lo (Index.Excl key)
      | `Ge -> tighten_lo (Index.Incl key)
      | `In -> assert false)
    ranges;
  (!lo, !hi)

(* --- scans -------------------------------------------------------------- *)

(* A scan's per-run state. One cell per scan suffices: a scan never runs
   inside its own run, since its rows drive only the scans after it and
   subqueries, each compiled on its own. *)
type cursor = {
  mutable frame : Eval.frame;
  mutable emit : Version.t -> unit;
  mutable rows : int;  (* versions that passed visibility and the filters *)
  mutable visited : int;  (* versions examined *)
  mutable reads : Txn.reads option;
      (* the table's read set, found at the first run: a scan that never
         runs leaves the table without one *)
}

(* A compiled scan: what its runs share, resolved once per statement. *)
type scan = {
  sc_table : Table.t;
  sc_name : string;
  sc_access : access;
  sc_provenance : bool;
  sc_record : bool;
      (* registers reads and predicates: not a provenance read, and not a
         [sys.*] view (a statement-local materialization outside the
         SSI-visible database, so a sys.* read can never abort anything) *)
  sc_height : int;
      (* what an index walk may skip: versions retired at or below the
         snapshot height ([min_int] for a provenance read, which walks
         every committed version) *)
  sc_counter : counter;
  sc_cursor : cursor;
  sc_yield : Version.t -> unit;
      (* binds each visible version to the scan's frame slot and emits it
         if it passes the pushed filters: built once, not per run *)
  sc_reader : Table.reader;  (* [sc_yield] by vid, for index walks *)
}

let rec all_true preds frame =
  match preds with [] -> true | p :: rest -> p frame && all_true rest frame

let visible txn ~provenance (v : Version.t) =
  if provenance then Version.visible_provenance v
  else
    Version.visible_to v ~txid:txn.Txn.txid ~height:txn.Txn.snapshot_height

let within_bounds v ~lo ~hi =
  (match lo with
  | Index.Unbounded -> true
  | Index.Incl l -> Value.compare_total v l >= 0
  | Index.Excl l -> Value.compare_total v l > 0)
  &&
  match hi with
  | Index.Unbounded -> true
  | Index.Incl h -> Value.compare_total v h <= 0
  | Index.Excl h -> Value.compare_total v h < 0

(* [filters] are the single-table WHERE conjuncts pushed below
   materialization; they run after the read is recorded, so the SSI read
   set is unchanged by pushdown. *)
let compile_scan txn ctx layout table ~slot ~path ~provenance ~filters =
  let name = Table.name table in
  let record = (not provenance) && not (Catalog.is_sys_name name) in
  let cur = { frame = [||]; emit = ignore; rows = 0; visited = 0; reads = None } in
  let yield (v : Version.t) =
    cur.visited <- cur.visited + 1;
    if visible txn ~provenance v then begin
      (match cur.reads with Some r -> Txn.record_read r v.Version.vid | None -> ());
      let frame = cur.frame in
      frame.(slot) <- v;
      if all_true filters frame then begin
        cur.rows <- cur.rows + 1;
        cur.emit v
      end
    end
  in
  {
    sc_table = table;
    sc_name = name;
    sc_access = compile_path ctx layout table path;
    sc_provenance = provenance;
    sc_record = record;
    sc_height = (if provenance then min_int else txn.Txn.snapshot_height);
    sc_counter =
      counter ~op:(match path with Index_range _ -> "index_scan" | Seq_scan -> "seq_scan")
        ~table:name;
    sc_cursor = cur;
    sc_yield = yield;
    sc_reader = Table.reader table yield;
  }

(* A scan's access predicate over a column range (an index scan, a point
   probe, or one probed IN key). *)
let record_range txn sc column ~lo ~hi =
  if sc.sc_record then
    Txn.record_predicate txn (Predicate.Range { table = sc.sc_name; column; lo; hi })

(* Iterate visible versions of a scan; registers the predicate and the
   per-row reads unless the scan is a provenance read. Each version that
   passes visibility is bound to the scan's frame slot; [f] gets the ones
   that pass the pushed filters too. [op_visited] counts versions
   examined, [op_rows] rows surviving visibility + pushed filters. *)
let run_scan txn mode sc (frame : Eval.frame) f =
  let cur = sc.sc_cursor in
  (match cur.reads with
  | None when sc.sc_record -> cur.reads <- Some (Txn.reads_of txn ~table:sc.sc_name)
  | _ -> ());
  cur.frame <- frame;
  cur.emit <- f;
  cur.rows <- 0;
  cur.visited <- 0;
  (match sc.sc_access with
  | Point { index; column; key } ->
      let k = key frame in
      let b = Index.Incl k in
      record_range txn sc column ~lo:b ~hi:b;
      Table.probe sc.sc_reader index ~height:sc.sc_height k
  | Range { index; column; ranges; ins } -> (
      let lo, hi = bounds_of_restrictions frame ranges in
      match ins with
      | [] ->
          record_range txn sc column ~lo ~hi;
          Table.iter_in sc.sc_reader index ~height:sc.sc_height ~lo ~hi
      | _ ->
          (* Intersect the IN key sets, keep keys inside the range bounds,
             and probe each surviving key. NULL keys can never match and
             are dropped; the per-key point predicates are together at
             least as precise as the seed's full-scan predicate. *)
          let set_of keys =
            List.filter_map
              (fun key ->
                let v = key frame in
                if Value.is_null v then None else Some v)
              keys
            |> List.sort_uniq Value.compare_total
          in
          let keys =
            match List.map set_of ins with
            | [] -> assert false
            | s :: rest ->
                List.fold_left
                  (fun acc s' ->
                    List.filter
                      (fun v ->
                        List.exists (fun u -> Value.compare_total u v = 0) s')
                      acc)
                  s rest
          in
          let keys = List.filter (fun v -> within_bounds v ~lo ~hi) keys in
          List.iter
            (fun k ->
              let b = Index.Incl k in
              record_range txn sc column ~lo:b ~hi:b;
              Table.probe sc.sc_reader index ~height:sc.sc_height k)
            keys)
  | Seq ->
      if mode.require_index && sc.sc_record then
        raise (Exec_error (Missing_index sc.sc_name));
      if sc.sc_record then
        Txn.record_predicate txn (Predicate.Full_scan { table = sc.sc_name });
      if sc.sc_provenance then Table.iter_versions sc.sc_table sc.sc_yield
      else
        (* Visibility index: skip versions that are dead at the snapshot
           height instead of wading through the full history (ascending
           vid, same order as the heap). *)
        Table.iter_live sc.sc_table ~height:sc.sc_height sc.sc_yield);
  count mode sc.sc_counter ~rows:cur.rows ~visited:cur.visited

(* --- SELECT -------------------------------------------------------------- *)

let alias_of (tr : table_ref) = Option.value tr.alias ~default:tr.table

(* --- static select planning --------------------------------------------- *)

type join_strategy =
  | Nested  (* per-outer-row scan along [tp_path_hint] *)
  | Hashed of {
      h_key_cols : int list;  (* inner columns of the equi-key *)
      h_key_outer : expr list;  (* matching outer-side expressions *)
      h_build_filters : expr list;  (* inner-only conjuncts, applied at build *)
      h_probe_filters : expr list;  (* remaining assigned conjuncts, per match *)
    }

type table_plan = {
  tp_ref : table_ref;
  tp_table : Table.t;  (* resolved once at plan time *)
  tp_slot : Eval.slot;
  tp_filters : expr list;
      (* WHERE conjuncts assigned to this scan (empty for hashed joins,
         whose filters live in the strategy) *)
  tp_path_hint : path;
      (* the path [choose_path] picks from the ON conjuncts (plus WHERE for
         inner joins and the base table) with every earlier table in
         scope. A nested-loop scan runs it for every outer row: the choice
         depends only on name resolution, never on the outer row's values *)
  tp_join : (join_clause * join_strategy) option;  (* None for the base table *)
}

type select_plan = {
  sp_tables : table_plan list;
  sp_layouts : Eval.layout array;
      (* [sp_layouts.(i)]: the outer context plus the first [i] tables *)
  sp_residual : expr list;  (* WHERE conjuncts not pushed into any scan *)
}

(* The tables a select's FROM list brings into scope after [outer], as
   [(table_ref, table, join)] in order, with the layouts they build:
   [layouts.(i)] is [outer] plus the first [i] tables. A name used twice
   is rejected, as PostgreSQL does, so a qualifier picks one slot. *)
let from_scope table_of ~outer (sel : select) =
  match sel.from with
  | None -> None
  | Some base ->
      let tables =
        List.map
          (fun (tr, j) -> (tr, table_of tr.table, j))
          ((base, None) :: List.map (fun j -> (j.j_table, Some j)) sel.joins)
      in
      let rec distinct = function
        | [] -> ()
        | a :: rest ->
            if List.mem a rest then fail "table name \"%s\" specified more than once" a;
            distinct rest
      in
      distinct (List.map (fun (tr, _, _) -> alias_of tr) tables);
      let layouts = Array.make (List.length tables + 1) outer in
      List.iteri
        (fun i (tr, table, _) ->
          layouts.(i + 1) <-
            Eval.extend layouts.(i)
              (Eval.slot ~alias:(alias_of tr) ~schema:(Table.schema table)
                 ~provenance:sel.provenance))
        tables;
      Some (tables, layouts)

(* Decide, before any row is read, which WHERE conjunct filters at which
   scan and which joins can be hash joins. Decisions only consult the
   catalog and the slots [Eval.resolve] finds, so every node plans
   identically for the same statement. [outer] is the select's own,
   already entered, scope. *)
let plan_select table_of mode ~outer (sel : select) =
  match from_scope table_of ~outer sel with
  | None -> None
  | Some (tables, layouts) ->
      let n = List.length tables and n_outer = Array.length outer.Eval.slots in
      let full = layouts.(n) in
      (* Each WHERE conjunct is resolved once, against the whole FROM list.
         One whose names all resolve filters at the earliest scan at or
         past the last local slot it reads. LEFT-JOIN scan points are
         skipped: their matches are defined by ON alone, and WHERE must
         see the null-extended row. The rest run on the full row, as the
         residual: a subquery, an aggregate, or a name that does not
         resolve (ambiguous across the join, say), whose closure raises
         and which no scan takes as a path hint either. *)
      let where_conj =
        List.map
          (fun c -> (c, read_slots full c))
          (match sel.where with None -> [] | Some w -> conjuncts_of w)
      in
      let eligible =
        Array.of_list
          (List.map
             (fun (_, _, j) -> match j with None -> true | Some j -> j.j_kind = J_inner)
             tables)
      in
      let assigned = Array.make n [] in
      let residual = ref [] in
      List.iter
        (fun (c, slots) ->
          match slots with
          | Some slots when plain c ->
              let rec place i =
                if i = n then residual := c :: !residual
                else if eligible.(i) then assigned.(i) <- (c, slots) :: assigned.(i)
                else place (i + 1)
              in
              place (List.fold_left (fun m i -> max m (i - n_outer)) 0 slots)
          | _ -> residual := c :: !residual)
        where_conj;
      let hint_where =
        List.filter_map (fun (c, slots) -> Option.map (fun _ -> c) slots) where_conj
      in
      let plans =
        List.mapi
          (fun i (tr, table, j) ->
            let slot = n_outer + i in
            let assigned = List.rev assigned.(i) in
            let filters = List.map fst assigned in
            (* ON compiles against the tables joined so far, WHERE against
               them all: each is resolved where it runs. *)
            let on = match j with None -> [] | Some j -> conjuncts_of j.j_on in
            let restrictions layout = List.concat_map (restriction_of_conjunct layout slot) in
            let on_restrictions = restrictions layouts.(i + 1) on in
            let hint =
              choose_path table
                (on_restrictions @ if eligible.(i) then restrictions full hint_where else [])
            in
            let tp_slot = full.Eval.slots.(slot) in
            match j with
            | None ->
                { tp_ref = tr; tp_table = table; tp_slot;
                  tp_filters = filters; tp_path_hint = hint; tp_join = None }
            | Some j ->
                let strat =
                  if sel.provenance || mode.require_index || hint <> Seq_scan
                  then Nested
                  else begin
                    (* ON's equalities between an inner column and an
                       outer key are the hash key. *)
                    let equi = List.filter (fun r -> r.r_op = `Eq) on_restrictions in
                    if equi = [] then Nested
                    else begin
                      (* Filters that read only the inner table (plus
                         correlated outer context) can shrink the build
                         side; the rest run per match. *)
                      let build, probe =
                        List.partition
                          (fun (_, slots) -> List.for_all (fun k -> k < n_outer || k = slot) slots)
                          assigned
                      in
                      Hashed
                        {
                          h_key_cols = List.map (fun r -> r.r_column) equi;
                          h_key_outer = List.concat_map (fun r -> r.r_keys) equi;
                          h_build_filters = List.map fst build;
                          h_probe_filters = List.map fst probe;
                        }
                    end
                  end
                in
                let filters = match strat with Hashed _ -> [] | Nested -> filters in
                { tp_ref = tr; tp_table = table; tp_slot;
                  tp_filters = filters; tp_path_hint = hint;
                  tp_join = Some (j, strat) })
          tables
      in
      Some { sp_tables = plans; sp_layouts = layouts; sp_residual = List.rev !residual }

(* --- compiled select pipeline --------------------------------------------- *)

type join_step =
  | Nested_scan of scan
  | Hash_probe of {
      keys : (Eval.frame -> Value.t) list;  (* outer-side key expressions *)
      probe_filters : (Eval.frame -> bool) list;
      build : Eval.frame -> (string, Version.t list ref) Hashtbl.t;
          (* buckets of the inner table under an outer frame *)
      probe_counter : counter;
    }

type join_run = {
  jr_slot : int;
  jr_null_row : Version.t;
  jr_left : bool;
  jr_on : Eval.frame -> bool;
  jr_step : join_step;
}

(* Compile FROM ... JOIN ... WHERE once. The result streams the joined rows
   under an outer frame, WHERE applied; the frame handed to [f] is reused
   for the next row. *)
let compile_joins txn mode ctx ~provenance (plan : select_plan) =
  let layouts = plan.sp_layouts in
  let n_outer = Array.length layouts.(0).Eval.slots in
  let n = List.length plan.sp_tables in
  let preds layout = List.map (Eval.compile_pred ctx layout) in
  let scan i (tp : table_plan) =
    compile_scan txn ctx layouts.(i) tp.tp_table ~slot:(n_outer + i) ~path:tp.tp_path_hint
      ~provenance ~filters:(preds layouts.(i + 1) tp.tp_filters)
  in
  let residual = preds layouts.(n) plan.sp_residual in
  let base_tp, join_tps =
    match plan.sp_tables with base :: rest -> (base, rest) | [] -> assert false
  in
  let base_scan = scan 0 base_tp in
  let joins =
    List.mapi
      (fun k (tp : table_plan) ->
        let i = k + 1 in
        let j, strat =
          match tp.tp_join with Some js -> js | None -> assert false
        in
        let step =
          match strat with
          | Nested -> Nested_scan (scan i tp)
          | Hashed h ->
              let build_scan =
                compile_scan txn ctx layouts.(0) tp.tp_table ~slot:n_outer ~path:Seq_scan
                  ~provenance:false
                  ~filters:(preds (Eval.extend layouts.(0) tp.tp_slot) h.h_build_filters)
              in
              (* Buckets are assembled by prepend and reversed once,
                 keeping heap (vid) order without iterating the
                 hashtable. *)
              let build frame0 =
                let tbl : (string, Version.t list ref) Hashtbl.t = Hashtbl.create 64 in
                let frame = Array.make (n_outer + 1) tp.tp_slot.Eval.null_row in
                Array.blit frame0 0 frame 0 n_outer;
                run_scan txn mode build_scan frame (fun (v : Version.t) ->
                    let key =
                      List.map (fun col -> v.Version.values.(col)) h.h_key_cols
                    in
                    if not (List.exists Value.is_null key) then
                      let ks = key_string key in
                      match Hashtbl.find_opt tbl ks with
                      | Some r -> r := v :: !r
                      | None -> Hashtbl.add tbl ks (ref [ v ]));
                Hashtbl.filter_map_inplace
                  (fun _ r ->
                    r := List.rev !r;
                    Some r)
                  tbl;
                tbl
              in
              Hash_probe
                {
                  keys = List.map (Eval.compile ctx layouts.(i)) h.h_key_outer;
                  probe_filters = preds layouts.(i + 1) h.h_probe_filters;
                  build;
                  probe_counter = counter ~op:"hash_join" ~table:tp.tp_ref.table;
                }
        in
        {
          jr_slot = n_outer + i;
          jr_null_row = tp.tp_slot.Eval.null_row;
          jr_left = j.j_kind = J_left;
          jr_on = Eval.compile_pred ctx layouts.(i + 1) j.j_on;
          jr_step = step;
        })
      join_tps
  in
  fun (frame0 : Eval.frame) f ->
    let frame = Array.make (n_outer + n) base_tp.tp_slot.Eval.null_row in
    Array.blit frame0 0 frame 0 n_outer;
    (* One closure per join for this run, not per outer row: [emit j]
       runs the joins after [j] on the current row. No join re-enters
       itself (the rows of one join drive the later ones only), so each
       keeps its "matched" flag in one cell. *)
    let rec chain = function
      | [] -> fun () -> if all_true residual frame then f frame
      | j :: rest ->
          let next = chain rest in
          let matched = ref false in
          let emit () =
            matched := true;
            next ()
          in
          let probe =
            match j.jr_step with
            | Nested_scan sc ->
                let on_row _ = if j.jr_on frame then emit () in
                fun () -> run_scan txn mode sc frame on_row
            | Hash_probe h ->
                (* The build side is read on the first probe, so a join
                   with no outer rows records exactly the seed's (empty)
                   read/predicate footprint. *)
                let buckets = lazy (h.build frame0) in
                fun () ->
                  let buckets = Lazy.force buckets in
                  let keyv = List.map (fun key -> key frame) h.keys in
                  let bucket =
                    if List.exists Value.is_null keyv then []
                    else
                      match Hashtbl.find_opt buckets (key_string keyv) with
                      | Some r -> !r
                      | None -> []
                  in
                  let matches = ref 0 in
                  List.iter
                    (fun v ->
                      frame.(j.jr_slot) <- v;
                      if j.jr_on frame && all_true h.probe_filters frame then begin
                        incr matches;
                        emit ()
                      end)
                    bucket;
                  count mode h.probe_counter ~rows:!matches ~visited:(List.length bucket)
          in
          fun () ->
            matched := false;
            probe ();
            if j.jr_left && not !matched then begin
              frame.(j.jr_slot) <- j.jr_null_row;
              next ()
            end
    in
    let joined = chain joins in
    run_scan txn mode base_scan frame (fun _ -> joined ())

let item_columns ~provenance (sel : select) (layout : Eval.layout) ~has_rows =
  let star_columns () =
    if not has_rows then [ "*" ]
    else
      (* the select's own tables only: outer slots are correlated context *)
      let own =
        Array.to_list
          (Array.sub layout.Eval.slots layout.Eval.scope_start
             (Array.length layout.Eval.slots - layout.Eval.scope_start))
      in
      let many = List.length own > 1 in
      List.concat_map
        (fun (s : Eval.slot) ->
          let base =
            Array.to_list
              (Array.map (fun c -> c.Schema.name) s.Eval.schema.Schema.columns)
          in
          let base = if provenance then base @ Eval.pseudo_columns else base in
          if many then List.map (fun c -> s.Eval.alias ^ "." ^ c) base else base)
        own
  in
  List.concat_map
    (function
      | Star -> star_columns ()
      | Sel_expr (_, Some a) -> [ a ]
      | Sel_expr (e, None) -> [ expr_to_string e ])
    sel.items

(* [e] with each column reference outside aggregates and subqueries
   replaced by [f qualifier name]. *)
let rec map_cols f e =
  let m = map_cols f in
  match e with
  | Col (q, c) -> f q c
  | Lit _ | Param _ | Named_param _ | Agg _ | Subquery _ | Exists _ -> e
  | Binop (op, a, b) -> Binop (op, m a, m b)
  | Unop (op, a) -> Unop (op, m a)
  | Call (fn, args) -> Call (fn, List.map m args)
  | Between (a, b, c) -> Between (m a, m b, m c)
  | In_list (a, es) -> In_list (m a, List.map m es)
  | Is_null (a, w) -> Is_null (m a, w)
  | In_select (a, sel) -> In_select (m a, sel)

(* Substitute output aliases in ORDER BY / HAVING expressions (once, at
   compile time). *)
let substitute_aliases items =
  let alias_map =
    List.filter_map
      (function Sel_expr (e, Some a) -> Some (a, e) | _ -> None)
      items
  in
  map_cols (fun q c ->
      match (q, List.assoc_opt c alias_map) with
      | None, Some e -> e
      | _ -> Col (q, c))

let is_aggregated (sel : select) =
  sel.group_by <> []
  || sel.having <> None
  || List.exists
       (function Sel_expr (e, _) -> Eval.has_aggregate e | Star -> false)
       sel.items

(* The statement error an aggregated select raises once its rows are read,
   over any input, empty or not: [SELECT *] with aggregates, or an item,
   the HAVING condition or an ORDER BY key (after alias substitution) with
   a column reference outside every aggregate that is not part of a
   GROUP BY key, named in the error (stricter than PostgreSQL's
   functional-dependency rule, but deterministic and simple to reason
   about). An expression matches a key when the two have the same shape
   and their column references resolve, in [layout], to the same slots
   and offsets: [v] and [p.v] are one key. A subquery reads the group's
   representative row. *)
let grouping_error layout (sel : select) =
  if List.exists (function Star -> true | _ -> false) sel.items then
    Some "SELECT * cannot be combined with aggregates"
  else
    let key e =
      ( map_cols (fun _ _ -> Col (None, "")) e,
        List.map (fun (q, c) -> Eval.resolve layout q c) (column_refs e) )
    in
    let group_keys = List.map key sel.group_by in
    (* The first column reference in [e] outside aggregates and GROUP BY
       keys. An enclosing row's column is one value for the whole select,
       and an unknown name raises when it is evaluated. *)
    let rec ungrouped e =
      match e with
      | Lit _ | Param _ | Named_param _ | Agg _ | Subquery _ | Exists _ -> None
      | _ when List.mem (key e) group_keys -> None
      | Col (q, c) -> (
          match Eval.resolve layout q c with
          | Eval.Found (i, _) when i >= layout.Eval.scope_start -> Some e
          | _ -> None)
      | Unop (_, a) | Is_null (a, _) | In_select (a, _) -> ungrouped a
      | Binop (_, a, b) -> List.find_map ungrouped [ a; b ]
      | Between (a, b, c) -> List.find_map ungrouped [ a; b; c ]
      | Call (_, es) -> List.find_map ungrouped es
      | In_list (a, es) -> List.find_map ungrouped (a :: es)
    in
    let checked =
      List.filter_map (function Sel_expr (e, _) -> Some e | Star -> None) sel.items
      @ List.map (substitute_aliases sel.items)
          (Option.to_list sel.having @ List.map (fun k -> k.o_expr) sel.order_by)
    in
    List.find_map
      (fun e ->
        Option.map
          (fun c ->
            Printf.sprintf "column %s must appear in GROUP BY or an aggregate"
              (expr_to_string c))
          (ungrouped e))
      checked

(* How an aggregated select turns its joined rows into output rows:
   given the select's context, mode, layout and AST once (to compile),
   then per run the enclosing frame and the join (called with a row
   callback), the ORDER BY keys and items of each output row, in group
   order. *)
type aggregation =
  Eval.ctx ->
  mode ->
  Eval.layout ->
  select ->
  Eval.frame ->
  ((Eval.frame -> unit) -> unit) ->
  (Value.t list * Value.t list) list

(* The single group of an empty input reads NULL rows for this select's
   own tables, never an enclosing row's. *)
let empty_rep (layout : Eval.layout) (frame0 : Eval.frame) =
  Array.mapi
    (fun i (s : Eval.slot) -> if i < layout.Eval.scope_start then frame0.(i) else s.Eval.null_row)
    layout.Eval.slots

(* The group of [key] in [tbl], made by [make frame] at the key's first
   row; [order] gets each new group, newest first, with its key. *)
let bucket tbl order key ~make frame =
  let ks = key_string key in
  match Hashtbl.find tbl ks with
  | grp -> grp
  | exception Not_found ->
      let grp = make frame in
      Hashtbl.add tbl ks grp;
      order := (key, ks, grp) :: !order;
      grp

(* Groups in ascending key order ([Value.compare_total], then the
   canonical encoding), never in hashtable order. *)
let key_order order =
  List.sort
    (fun (k1, s1, _) (k2, s2, _) ->
      match List.compare Value.compare_total k1 k2 with 0 -> compare s1 s2 | c -> c)
    order
  |> List.map (fun (_, _, grp) -> grp)

(* Streaming aggregation (DESIGN.md §9): each joined row folds into its
   group's accumulators as the join emits it, and only a group's first
   row, its representative, is copied. The statement observes what
   materializing every row and then grouping it gave: the grouping error
   and the first GROUP BY key error are raised once the join is done, an
   aggregate's argument error when projection first needs the aggregate.
   When a GROUP BY key or an aggregate argument has a subquery, whose
   reads and errors belong after the join, the rows are copied and
   grouped once the join is done, and each aggregate folds its group's
   rows when first needed. *)
let stream_aggregate : aggregation =
 fun ctx mode layout sel ->
  let grouping_error = grouping_error layout sel in
  let grouped = sel.group_by <> [] in
  (* compiled at the first run that gets past the grouping error *)
  let compiled =
    lazy
      (let keys = List.map (Eval.compile ctx layout) sel.group_by in
       let aggs = Eval.aggregates ctx layout in
       let g = Eval.compile_grouped aggs in
       let having = Option.map (fun h -> g (substitute_aliases sel.items h)) sel.having in
       let order =
         List.map (fun k -> g (substitute_aliases sel.items k.o_expr)) sel.order_by
       in
       let items =
         List.map (function Star -> assert false | Sel_expr (e, _) -> g e) sel.items
       in
       let project group =
         let keep =
           match having with
           | None -> true
           | Some h -> ( match h group with Value.Bool true -> true | _ -> false)
         in
         if not keep then None
         else
           let keys = List.map (fun k -> k group) order in
           Some (keys, List.map (fun c -> c group) items)
       in
       let streaming =
         Eval.streamable aggs && not (List.exists Eval.has_subquery sel.group_by)
       in
       (keys, aggs, streaming, project))
  in
  fun frame0 joined ->
    match grouping_error with
    | Some msg ->
        joined ignore;
        fail "%s" msg
    | None ->
        let keys, aggs, streaming, project = Lazy.force compiled in
        let key_of frame = List.map (fun k -> k frame) keys in
        let rows = ref 0 in
        let make frame = Eval.group aggs ~rep:(Array.copy frame) in
        let groups =
          if streaming then begin
            (* the group a row folds into; a GROUP BY key may raise *)
            let single = ref None and tbl = Hashtbl.create 16 and order = ref [] in
            let group_of =
              match keys with
              | [] -> (
                  fun frame ->
                    match !single with
                    | Some grp -> grp
                    | None ->
                        let grp = make frame in
                        single := Some grp;
                        grp)
              | _ -> fun frame -> bucket tbl order (key_of frame) ~make frame
            in
            let failed = ref None in
            joined (fun frame ->
                incr rows;
                match !failed with
                | Some _ -> ()
                | None -> (
                    match group_of frame with
                    | exception (Eval.Error _ as e) -> failed := Some e
                    | grp -> Eval.fold aggs grp frame));
            Option.iter raise !failed;
            match !single with
            | Some grp -> [ grp ]
            | None when not grouped -> [ Eval.group aggs ~rep:(empty_rep layout frame0) ]
            | None -> key_order !order
          end
          else begin
            let tbl = Hashtbl.create 16 and order = ref [] and frames = ref [] in
            joined (fun frame -> frames := Array.copy frame :: !frames);
            List.iter
              (fun frame ->
                incr rows;
                let members = bucket tbl order (key_of frame) ~make:(fun _ -> ref []) frame in
                members := frame :: !members)
              (List.rev !frames);
            match key_order !order with
            | [] when not grouped ->
                [ Eval.buffered aggs ~rows:[] ~rep:(empty_rep layout frame0) ]
            | groups ->
                List.map
                  (fun members ->
                    let rows = List.rev !members in
                    Eval.buffered aggs ~rows ~rep:(List.hd rows))
                  groups
          end
        in
        if grouped then
          stats_scan mode ~op:"hash_agg" ~table:"-" ~rows:(List.length groups) ~visited:!rows;
        List.filter_map project groups

(* ORDER BY (a bounded heap under LIMIT), DISTINCT and LIMIT over the
   projected rows, each decorated with its ORDER BY keys. *)
let finish_rows mode (sel : select) columns decorated =
  let cmp (ka, _) (kb, _) =
    let rec loop ks ka kb =
      match (ks, ka, kb) with
      | [], _, _ -> 0
      | k :: ks, a :: ka, b :: kb ->
          let c = Value.compare_total a b in
          let c = if k.o_asc then c else -c in
          if c <> 0 then c else loop ks ka kb
      | _ -> 0
    in
    loop sel.order_by ka kb
  in
  let sorted =
    match sel.order_by with
    | [] -> decorated
    | _ -> (
        match sel.limit with
        | Some k when not sel.distinct ->
            (* ORDER BY ... LIMIT k: bounded heap, first k of the stable
               sort without sorting the full input. (DISTINCT dedups after
               the sort, so it still needs every row.) *)
            let out = Brdb_util.Topk.select ~k ~cmp decorated in
            stats_scan mode ~op:"top_k" ~table:"-" ~rows:(List.length out)
              ~visited:(List.length decorated);
            out
        | _ -> List.stable_sort cmp decorated)
  in
  let deduped =
    if not sel.distinct then sorted
    else begin
      (* keep the first occurrence of each projected row *)
      let seen = Hashtbl.create 16 in
      List.filter
        (fun (_, v) ->
          let key = key_string v in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        sorted
    end
  in
  let limited =
    match sel.limit with
    | None -> deduped
    | Some n -> List.filteri (fun i _ -> i < n) deduped
  in
  { columns; rows = List.map (fun (_, v) -> Array.of_list v) limited; affected = 0 }

(* Plan and compile a SELECT under the [outer] layout it runs in (the root
   layout for a statement, the enclosing expression's layout for a
   subquery). The result runs it under a frame of that layout. Tables are
   resolved and plans chosen here, once; every expression is compiled once
   too. An aggregated select hands its join to [aggregate]. *)
let compile_select ~(aggregate : aggregation) catalog txn mode ctx ~outer (sel : select) =
  (* everything this select binds is a new, innermost scope *)
  let outer = Eval.enter outer in
  let provenance = sel.provenance in
  let layout, joined =
    match plan_select (resolve_table catalog txn mode) mode ~outer sel with
    | None ->
        let where = Option.map (Eval.compile_pred ctx outer) sel.where in
        ( outer,
          fun frame0 f ->
            match where with Some w when not (w frame0) -> () | _ -> f frame0 )
    | Some plan ->
        ( plan.sp_layouts.(Array.length plan.sp_layouts - 1),
          compile_joins txn mode ctx ~provenance plan )
  in
  let columns_of_rows = item_columns ~provenance sel layout ~has_rows:true in
  if is_aggregated sel then begin
    (* Aggregates reject [SELECT *], so the columns never depend on
       whether rows arrived. *)
    let agg = aggregate ctx mode layout sel in
    fun frame0 -> finish_rows mode sel columns_of_rows (agg frame0 (joined frame0))
  end
  else begin
    let columns_of_none = item_columns ~provenance sel layout ~has_rows:false in
    (* ORDER BY keys and items on each row *)
    let project =
      lazy
        (let keys =
           List.map
             (fun k -> Eval.compile ctx layout (substitute_aliases sel.items k.o_expr))
             sel.order_by
         in
         let items =
           List.map
             (function
               | Star -> Eval.compile_star layout ~provenance
               | Sel_expr (e, _) ->
                   let c = Eval.compile ctx layout e in
                   fun frame -> [ c frame ])
             sel.items
         in
         fun frame ->
           let keys = List.map (fun k -> k frame) keys in
           (keys, List.concat_map (fun c -> c frame) items))
    in
    fun frame0 ->
      let frames = ref [] in
      joined frame0 (fun frame -> frames := Array.copy frame :: !frames);
      let frames = List.rev !frames in
      let columns = if frames = [] then columns_of_none else columns_of_rows in
      finish_rows mode sel columns (List.map (Lazy.force project) frames)
  end

(* --- DML ----------------------------------------------------------------- *)

let check_unique_at_insert txn table row ~exclude_vid =
  List.iter
    (fun col ->
      let key = row.(col) in
      if not (Value.is_null key) then begin
        let dup = ref false in
        Table.iter_index ~height:txn.Txn.snapshot_height table ~column:col
          ~lo:(Index.Incl key) ~hi:(Index.Incl key) (fun u ->
            if
              Some u.Version.vid <> exclude_vid
              && visible txn ~provenance:false u
            then dup := true);
        if !dup then
          let cname = (Table.schema table).Schema.columns.(col).Schema.name in
          fail "duplicate key %s.%s=%s" (Table.name table) cname (Value.to_string key)
      end)
    (Table.unique_columns table)

let exec_insert catalog txn ctx ~ins_table ~ins_cols ~ins_rows =
  if Catalog.is_sys_name ins_table then fail "sys.* tables are read-only";
  let table = table_or_fail catalog ins_table in
  let schema = Table.schema table in
  let arity = Schema.arity schema in
  let positions =
    match ins_cols with
    | None -> List.init arity Fun.id
    | Some cols ->
        List.map
          (fun c ->
            match Schema.column_index schema c with
            | Some i -> i
            | None -> fail "unknown column %s in INSERT" c)
          cols
  in
  let count = ref 0 in
  List.iter
    (fun exprs ->
      if List.length exprs <> List.length positions then
        fail "INSERT arity mismatch on %s" ins_table;
      let row = Array.make arity Value.Null in
      List.iter2 (fun pos e -> row.(pos) <- Eval.eval ctx e) positions exprs;
      (match Schema.check_row schema row with
      | Ok () -> ()
      | Error msg -> fail "%s" msg);
      check_unique_at_insert txn table row ~exclude_vid:None;
      let v = Table.insert_version table ~xmin:txn.Txn.txid row in
      Txn.record_write txn (Txn.W_insert { table = ins_table; vid = v.Version.vid });
      incr count)
    ins_rows;
  { columns = []; rows = []; affected = !count }

(* An UPDATE/DELETE target scan: the table alone in slot 0, the layout its
   expressions compile against, its path, and the WHERE conjuncts it
   filters by (pushed) or after (residual). *)
let target_plan table name where =
  let slot = Eval.slot ~alias:name ~schema:(Table.schema table) ~provenance:false in
  let layout = Eval.extend Eval.root slot in
  let conjuncts = match where with None -> [] | Some w -> conjuncts_of w in
  let path = choose_path table (List.concat_map (restriction_of_conjunct layout 0) conjuncts) in
  let pushed, residual = List.partition (bound_before layout 1) conjuncts in
  (slot, layout, path, pushed, residual)

(* The versions an UPDATE/DELETE targets, with the layout its expressions
   compile against. *)
let target_rows catalog txn mode ctx ~table_name ~where =
  if Catalog.is_sys_name table_name then fail "sys.* tables are read-only";
  let table = table_or_fail catalog table_name in
  let slot, layout, path, pushed, residual = target_plan table table_name where in
  let scan =
    compile_scan txn ctx Eval.root table ~slot:0 ~path ~provenance:false
      ~filters:(List.map (Eval.compile_pred ctx layout) pushed)
  in
  let residual = List.map (Eval.compile_pred ctx layout) residual in
  (* Finish the scan before the first write: a scan that sees the new
     versions this statement inserts would update a row again (a
     sequential scan reaches the appended versions, and IN-probes revisit
     rows moved onto a later key). *)
  let targets = ref [] in
  let frame = [| slot.Eval.null_row |] in
  run_scan txn mode scan frame (fun v ->
      if all_true residual frame then targets := v :: !targets);
  (table, layout, List.rev !targets)

let exec_update catalog txn mode ctx ~upd_table ~upd_sets ~upd_where =
  if mode.require_index && upd_where = None then
    raise (Exec_error (Blind_update upd_table));
  let table, layout, targets =
    target_rows catalog txn mode ctx ~table_name:upd_table ~where:upd_where
  in
  let schema = Table.schema table in
  (* An unknown target column fails at the first target row, in SET order. *)
  let sets =
    List.map
      (fun (c, e) ->
        match Schema.column_index schema c with
        | None -> fun _ _ -> fail "unknown column %s in UPDATE" c
        | Some i ->
            let value = Eval.compile ctx layout e in
            fun frame (row : Value.t array) -> row.(i) <- value frame)
      upd_sets
  in
  List.iter
    (fun (v : Version.t) ->
      let frame = [| v |] in
      let row = Array.copy v.Version.values in
      List.iter (fun set -> set frame row) sets;
      (match Schema.check_row schema row with
      | Ok () -> ()
      | Error msg -> fail "%s" msg);
      Version.claim v txn.Txn.txid;
      check_unique_at_insert txn table row ~exclude_vid:(Some v.Version.vid);
      let nv = Table.insert_version table ~xmin:txn.Txn.txid row in
      Txn.record_write txn
        (Txn.W_update { table = upd_table; old_vid = v.Version.vid; new_vid = nv.Version.vid }))
    targets;
  { columns = []; rows = []; affected = List.length targets }

let exec_delete catalog txn mode ctx ~del_table ~del_where =
  if mode.require_index && del_where = None then
    raise (Exec_error (Blind_update del_table));
  let _, _, targets =
    target_rows catalog txn mode ctx ~table_name:del_table ~where:del_where
  in
  List.iter
    (fun (v : Version.t) ->
      Version.claim v txn.Txn.txid;
      Txn.record_write txn (Txn.W_delete { table = del_table; old_vid = v.Version.vid }))
    targets;
  { columns = []; rows = []; affected = List.length targets }

(* --- DDL ----------------------------------------------------------------- *)

let exec_ddl catalog txn mode stmt =
  if not mode.allow_ddl then fail "DDL is not allowed in this context";
  match stmt with
  | Create_table { t_name; t_cols; if_not_exists } -> (
      if if_not_exists && Catalog.mem catalog t_name then
        { columns = []; rows = []; affected = 0 }
      else
        match Schema.of_ast t_name t_cols with
        | Error msg -> fail "%s" msg
        | Ok schema -> (
            match Catalog.create_table catalog schema with
            | Error msg -> fail "%s" msg
            | Ok _ ->
                Txn.record_ddl txn (Txn.D_created_table t_name);
                { columns = []; rows = []; affected = 0 }))
  | Create_index { i_table; i_column; i_unique; _ } -> (
      if Catalog.is_sys_name i_table then fail "sys.* tables are read-only";
      let table = table_or_fail catalog i_table in
      match Schema.column_index (Table.schema table) i_column with
      | None -> fail "unknown column %s on %s" i_column i_table
      | Some column ->
          Table.add_index table ~column ~unique:i_unique;
          Txn.record_ddl txn (Txn.D_created_index { table = i_table; column });
          { columns = []; rows = []; affected = 0 })
  | Drop_table { d_name; if_exists } -> (
      if Catalog.is_sys_name d_name then fail "sys.* tables are read-only";
      match Catalog.find catalog d_name with
      | None ->
          if if_exists then { columns = []; rows = []; affected = 0 }
          else fail "table %s does not exist" d_name
      | Some table -> (
          match Catalog.drop_table catalog d_name with
          | Error msg -> fail "%s" msg
          | Ok () ->
              Txn.record_ddl txn (Txn.D_dropped_table table);
              { columns = []; rows = []; affected = 0 }))
  | _ -> assert false

(* --- explain ---------------------------------------------------------------- *)

let describe_path table path =
  let schema = Table.schema table in
  match path with
  | Seq_scan -> Printf.sprintf "seq scan on %s" (Table.name table)
  | Index_range { column; restrictions } ->
      let cname = schema.Schema.columns.(column).Schema.name in
      let ops =
        List.map
          (fun r ->
            match r.r_op with
            | `In ->
                Printf.sprintf "%s in (%s)" cname
                  (String.concat ", " (List.map expr_to_string r.r_keys))
            | (`Eq | `Lt | `Le | `Gt | `Ge) as op ->
                let op =
                  match op with
                  | `Eq -> "="
                  | `Lt -> "<"
                  | `Le -> "<="
                  | `Gt -> ">"
                  | `Ge -> ">="
                in
                let key =
                  match r.r_keys with [ e ] -> expr_to_string e | _ -> "?"
                in
                Printf.sprintf "%s %s %s" cname op key)
          restrictions
      in
      Printf.sprintf "index scan on %s.%s (%s)" (Table.name table) cname
        (String.concat " and " ops)

let describe_filters = function
  | [] -> ""
  | fs -> "; filter: " ^ String.concat " AND " (List.map expr_to_string fs)

let explain_gen ?actual catalog stmt =
  (* Plans with [default_mode] against pseudo-bound NULL rows: the
     decisions shown are exactly the ones [plan_select] and [choose_path]
     make at execution time, parameters treated as opaque.
     With [actual = Some (stats, op_ms)] (EXPLAIN ANALYZE) each operator
     line carries the rows/visited counts recorded while executing the same
     statement plus its modelled time; stats are aggregated per
     (operator, table), so repeated scans of one table show totals. *)
  let buf = Buffer.create 128 in
  let mode = default_mode in
  let annotate ops table s =
    match actual with
    | None -> s
    | Some ((st : stats), op_ms) ->
        let rows = ref 0 and visited = ref 0 and ms = ref 0. in
        List.iter
          (fun o ->
            if List.mem o.op_kind ops && o.op_table = table then begin
              rows := !rows + o.op_rows;
              visited := !visited + o.op_visited;
              ms := !ms +. op_ms ~op:o.op_kind ~visited:o.op_visited
            end)
          st.scans;
        Printf.sprintf "%s (actual rows=%d visited=%d time=%.3f ms)" s !rows
          !visited !ms
  in
  let scan_ops = [ "seq_scan"; "index_scan" ] in
  let line s = Buffer.add_string buf ("  " ^ s ^ "\n") in
  let order_keys ks =
    String.concat ", "
      (List.map
         (fun o -> expr_to_string o.o_expr ^ if o.o_asc then "" else " DESC")
         ks)
  in
  let explain_select (sel : select) =
    match plan_select (schema_table catalog) mode ~outer:Eval.root sel with
    | None -> line "no table access"
    | Some plan ->
        List.iter
          (fun tp ->
            let table = tp.tp_table in
            match tp.tp_join with
            | None ->
                line
                  (annotate scan_ops (Table.name table)
                     (describe_path table tp.tp_path_hint
                     ^ describe_filters tp.tp_filters))
            | Some (j, Nested) ->
                let kind =
                  match j.j_kind with J_inner -> "inner" | J_left -> "left"
                in
                line
                  (annotate scan_ops (Table.name table)
                     (Printf.sprintf "nested loop (%s) via %s%s" kind
                        (describe_path table tp.tp_path_hint)
                        (describe_filters tp.tp_filters)))
            | Some (j, Hashed h) ->
                let kind =
                  match j.j_kind with J_inner -> "inner" | J_left -> "left"
                in
                let schema = Table.schema table in
                let keys =
                  List.map2
                    (fun col e ->
                      Printf.sprintf "%s.%s = %s" (alias_of tp.tp_ref)
                        schema.Schema.columns.(col).Schema.name
                        (expr_to_string e))
                    h.h_key_cols h.h_key_outer
                in
                line
                  (annotate [ "hash_join" ] tp.tp_ref.table
                     (Printf.sprintf
                        "hash join (%s) on %s [build: seq scan on %s%s]" kind
                        (String.concat ", " keys)
                        (Table.name table)
                        (describe_filters h.h_build_filters)));
                if h.h_probe_filters <> [] then
                  line ("  probe" ^ describe_filters h.h_probe_filters))
          plan.sp_tables;
        if plan.sp_residual <> [] then
          line ("residual" ^ describe_filters plan.sp_residual);
        if is_aggregated sel then (
          match sel.group_by with
          | [] -> line "aggregate (single group)"
          | ks ->
              line
                (annotate [ "hash_agg" ] "-"
                   (Printf.sprintf "hash aggregate by %s"
                      (String.concat ", " (List.map expr_to_string ks)))));
        (match (sel.order_by, sel.limit) with
        | [], _ -> ()
        | ks, Some k when not sel.distinct ->
            line
              (annotate [ "top_k" ] "-"
                 (Printf.sprintf "top-%d by %s" k (order_keys ks)))
        | ks, _ -> line (Printf.sprintf "sort by %s" (order_keys ks)));
        if sel.distinct then line "distinct";
        (match sel.limit with
        | Some n when sel.order_by = [] || sel.distinct ->
            line (Printf.sprintf "limit %d" n)
        | _ -> ())
  in
  let explain_dml what name where =
    Buffer.add_string buf (what ^ ":\n");
    let table = schema_table catalog name in
    let _, _, path, pushed, _ = target_plan table name where in
    line (annotate scan_ops name (describe_path table path ^ describe_filters pushed))
  in
  match
    match stmt with
    | Select sel ->
        Buffer.add_string buf "select:\n";
        explain_select sel
    | Update { upd_table; upd_where; _ } -> explain_dml "update" upd_table upd_where
    | Delete { del_table; del_where } -> explain_dml "delete" del_table del_where
    | Insert { ins_table; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "insert into %s: no scans\n" ins_table)
    | Create_table _ | Create_index _ | Drop_table _ ->
        Buffer.add_string buf "ddl: no scans\n"
  with
  | () -> Ok (Buffer.contents buf)
  | exception Exec_error e -> Error (error_to_string e)

let explain catalog stmt = explain_gen catalog stmt

let explain_analyzed catalog stats ~op_ms stmt =
  explain_gen ~actual:(stats, op_ms) catalog stmt

let explain_sql catalog sql =
  match Brdb_sql.Parser.parse sql with
  | Error msg -> Error msg
  | Ok stmt -> explain catalog stmt

(* --- uncorrelated-subquery analysis -------------------------------------- *)

(* Does [sel], compiled under [outer], read a slot before [start], a row of
   a query enclosing the subquery that opened the scope at [start]? Each
   reference resolves as [compile_select] resolves it: ON against the
   tables joined so far, the rest against the whole FROM list, a nested
   subquery under the layout of the clause it sits in. A name that
   resolves nowhere reads no row. *)
let rec reads_before catalog ~start outer (sel : select) =
  let outer = Eval.enter outer in
  match from_scope (schema_table catalog) ~outer sel with
  | exception Exec_error _ -> false (* [sel] fails to plan under any row *)
  | scope ->
      let layouts = match scope with None -> [| outer |] | Some (_, l) -> l in
      let full = layouts.(Array.length layouts - 1) in
      let reads layout e =
        let hit = ref false in
        iter_expr
          (function
            | Col (q, c) -> (
                match Eval.resolve layout q c with
                | Eval.Found (i, _) when i < start -> hit := true
                | _ -> ())
            | Subquery s | Exists s | In_select (_, s) ->
                if reads_before catalog ~start layout s then hit := true
            | _ -> ())
          e;
        !hit
      in
      List.exists Fun.id (List.mapi (fun k j -> reads layouts.(k + 2) j.j_on) sel.joins)
      || List.exists (reads full)
           (List.filter_map (function Sel_expr (e, _) -> Some e | Star -> None) sel.items
           @ Option.to_list sel.where @ sel.group_by
           @ List.map (substitute_aliases sel.items)
               (Option.to_list sel.having @ List.map (fun k -> k.o_expr) sel.order_by))

module VSet = Set.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

let value_class = function
  | Value.Null -> `Null
  | Value.Bool _ -> `Bool
  | Value.Int _ | Value.Float _ -> `Num
  | Value.Text _ -> `Text

(* Hash-set membership for [x IN (SELECT ...)]. Returns [None] (caller
   falls back to the linear walk) whenever the set answer could differ
   from walking the rows: wrong arity (the walk raises), or the probed
   value's class differs from / the set mixes value classes (the walk's
   comparison raises a type error the set lookup would hide). *)
let membership_probe rows =
  if List.exists (fun (r : Value.t array) -> Array.length r <> 1) rows then
    fun _ -> None
  else begin
    let vals = List.map (fun (r : Value.t array) -> r.(0)) rows in
    let has_null = List.exists Value.is_null vals in
    let vals = List.filter (fun v -> not (Value.is_null v)) vals in
    let classes = List.sort_uniq compare (List.map value_class vals) in
    let set = VSet.of_list vals in
    fun xv ->
      match classes with
      | [] -> Some (if has_null then Value.Null else Value.Bool false)
      | [ c ] when c = value_class xv ->
          if VSet.mem xv set then Some (Value.Bool true)
          else if has_null then Some Value.Null
          else Some (Value.Bool false)
      | _ -> None
  end

(* --- entry points --------------------------------------------------------- *)

let execute_with aggregate catalog txn ?(params = [||]) ?(named = []) ?(mode = default_mode)
    stmt =
  (* Subqueries re-enter the executor with the outer row's frame as
     their correlated context. Per-statement caches (keyed by physical
     identity of the AST node) memoize uncorrelated subqueries, those
     with no reference, nested subqueries' included, that resolves to an
     enclosing row ([reads_before]): their rows, and the membership probe
     backing IN (SELECT ...). Re-running such a
     subquery per outer row adds nothing to the read/predicate sets (they
     deduplicate), so caching leaves the SSI footprint byte-identical. *)
  let row_cache : (select * Value.t array list) list ref = ref [] in
  let probe_cache : (select * (Value.t -> Value.t option)) list ref = ref [] in
  let find_phys cache sel =
    let rec go = function
      | [] -> None
      | (s, v) :: _ when s == sel -> Some v
      | _ :: rest -> go rest
    in
    go !cache
  in
  (* A subquery is planned and compiled once per layout it runs under, on
     its first evaluation; an uncorrelated one is compiled only when its
     cached rows are missing. *)
  let rec subquery sel layout =
    let ctx = { Eval.params; named; subquery = Some subquery } in
    let compiled = lazy (compile_select ~aggregate catalog txn mode ctx ~outer:layout sel) in
    let run frame = (Lazy.force compiled frame).rows in
    if reads_before catalog ~start:(Array.length layout.Eval.slots) layout sel then
      { Eval.rows = run; probe = None }
    else
      let rows frame =
        match find_phys row_cache sel with
        | Some rows -> rows
        | None ->
            let rows = run frame in
            row_cache := (sel, rows) :: !row_cache;
            rows
      in
      let probe frame =
        match find_phys probe_cache sel with
        | Some probe -> probe
        | None ->
            let probe = membership_probe (rows frame) in
            probe_cache := (sel, probe) :: !probe_cache;
            probe
      in
      { Eval.rows; probe = Some probe }
  in
  let ctx = { Eval.params; named; subquery = Some subquery } in
  match
    match stmt with
    | Select sel -> compile_select ~aggregate catalog txn mode ctx ~outer:Eval.root sel [||]
    | Insert { ins_table; ins_cols; ins_rows } ->
        exec_insert catalog txn ctx ~ins_table ~ins_cols ~ins_rows
    | Update { upd_table; upd_sets; upd_where } ->
        exec_update catalog txn mode ctx ~upd_table ~upd_sets ~upd_where
    | Delete { del_table; del_where } ->
        exec_delete catalog txn mode ctx ~del_table ~del_where
    | Create_table _ | Create_index _ | Drop_table _ -> exec_ddl catalog txn mode stmt
  with
  | result ->
      (match mode.stats with
      | None -> ()
      | Some s ->
          s.stmts <- s.stmts + 1;
          s.rows_out <- s.rows_out + List.length result.rows;
          s.stats_affected <- s.stats_affected + result.affected);
      Ok result
  | exception Exec_error e -> Error e
  | exception Eval.Error msg -> Error (Sql_error msg)

let execute catalog txn ?params ?named ?mode stmt =
  execute_with stream_aggregate catalog txn ?params ?named ?mode stmt

let execute_sql catalog txn ?params ?named ?mode sql =
  match Brdb_sql.Parser.parse sql with
  | Error msg -> Error (Sql_error msg)
  | Ok stmt -> execute catalog txn ?params ?named ?mode stmt

module Testing = struct
  type nonrec aggregation = aggregation

  let execute_with = execute_with
  let grouping_error = grouping_error
  let substitute_aliases = substitute_aliases
  let key_string = key_string
end
