open Brdb_storage
module Txn = Brdb_txn.Txn
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec

(* Index-required mode without sys.* reads, as contract execution runs. *)
let strict_mode = { Exec.default_mode with Exec.require_index = true; allow_sys = false }

(* A tiny single-node fixture: transactions auto-commit at increasing block
   heights, so each statement sees everything committed before it. *)
type fixture = {
  mgr : Manager.t;
  catalog : Catalog.t;
  mutable height : int;
  mutable n : int;
}

let make_fixture () =
  let catalog = Catalog.create () in
  { mgr = Manager.create catalog; catalog; height = 0; n = 0 }

let fresh_txn fx =
  fx.n <- fx.n + 1;
  match
    Manager.begin_txn fx.mgr
      ~global_id:(Printf.sprintf "tx-%d" fx.n)
      ~client:"test" ~snapshot_height:fx.height ()
  with
  | Ok t -> t
  | Error `Duplicate_txid -> Alcotest.fail "duplicate txid in fixture"

(* Run one statement in its own transaction and commit it. *)
let run ?params ?mode fx sql =
  let txn = fresh_txn fx in
  match Exec.execute_sql fx.catalog txn ?params ?mode sql with
  | Ok rs ->
      fx.height <- fx.height + 1;
      Manager.commit fx.mgr txn ~height:fx.height;
      rs
  | Error e ->
      Manager.abort fx.mgr txn (Txn.Contract_error (Exec.error_to_string e));
      Alcotest.failf "%s failed: %s" sql (Exec.error_to_string e)

let run_err ?params ?mode fx sql =
  let txn = fresh_txn fx in
  match Exec.execute_sql fx.catalog txn ?params ?mode sql with
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" sql
  | Error e ->
      Manager.abort fx.mgr txn (Txn.Contract_error (Exec.error_to_string e));
      e

let rows_to_list (rs : Exec.result_set) = List.map Array.to_list rs.Exec.rows

let value : Value.t Alcotest.testable = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Value.to_string v))
    Value.equal

let check_rows msg expected rs =
  Alcotest.(check (list (list value))) msg expected (rows_to_list rs)

let vi i = Value.Int i
let vt s = Value.Text s
let vf f = Value.Float f
let vnull = Value.Null

let seed_items fx =
  ignore (run fx "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT, price FLOAT)");
  ignore (run fx "INSERT INTO items VALUES (1, 'apple', 10, 0.5), (2, 'pear', 5, 0.8), (3, 'fig', 20, 2.0)")

let test_create_insert_select () =
  let fx = make_fixture () in
  seed_items fx;
  check_rows "all rows"
    [ [ vi 1; vt "apple"; vi 10; vf 0.5 ];
      [ vi 2; vt "pear"; vi 5; vf 0.8 ];
      [ vi 3; vt "fig"; vi 20; vf 2.0 ] ]
    (run fx "SELECT * FROM items ORDER BY id")

let test_where_and_projection () =
  let fx = make_fixture () in
  seed_items fx;
  check_rows "filter" [ [ vt "fig"; vi 20 ] ]
    (run fx "SELECT name, qty FROM items WHERE qty > 10");
  check_rows "arith and alias" [ [ vi 1; vf 5.0 ]; [ vi 2; vf 4.0 ]; [ vi 3; vf 40.0 ] ]
    (run fx "SELECT id, qty * price AS total FROM items ORDER BY id");
  check_rows "between" [ [ vi 1 ]; [ vi 2 ] ]
    (run fx "SELECT id FROM items WHERE qty BETWEEN 5 AND 10 ORDER BY id");
  check_rows "in list" [ [ vt "apple" ]; [ vt "fig" ] ]
    (run fx "SELECT name FROM items WHERE id IN (1, 3) ORDER BY id")

let test_order_and_limit () =
  let fx = make_fixture () in
  seed_items fx;
  check_rows "desc" [ [ vi 3 ]; [ vi 1 ]; [ vi 2 ] ]
    (run fx "SELECT id FROM items ORDER BY qty DESC");
  check_rows "limit" [ [ vi 3 ] ] (run fx "SELECT id FROM items ORDER BY qty DESC LIMIT 1");
  check_rows "order by output alias" [ [ vi 2 ]; [ vi 1 ]; [ vi 3 ] ]
    (run fx "SELECT id, qty * price AS total FROM items ORDER BY total"
    |> fun rs -> { rs with Exec.rows = List.map (fun r -> [| r.(0) |]) rs.Exec.rows })

let test_aggregates () =
  let fx = make_fixture () in
  seed_items fx;
  check_rows "count" [ [ vi 3 ] ] (run fx "SELECT COUNT(*) FROM items");
  check_rows "sum int" [ [ vi 35 ] ] (run fx "SELECT SUM(qty) FROM items");
  check_rows "min/max" [ [ vi 5; vi 20 ] ] (run fx "SELECT MIN(qty), MAX(qty) FROM items");
  check_rows "avg" [ [ vf (35.0 /. 3.0) ] ] (run fx "SELECT AVG(qty) FROM items");
  check_rows "empty table aggregates" [ [ vi 0; vnull ] ]
    (run fx "SELECT COUNT(*), SUM(qty) FROM items WHERE qty > 1000")

let test_group_by_having () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, amount INT)");
  ignore
    (run fx
       "INSERT INTO sales VALUES (1, 'east', 10), (2, 'east', 20), (3, 'west', 5), (4, 'west', 7), (5, 'north', 100)");
  check_rows "group sums"
    [ [ vt "east"; vi 30 ]; [ vt "north"; vi 100 ]; [ vt "west"; vi 12 ] ]
    (run fx "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region");
  check_rows "having"
    [ [ vt "east"; vi 30 ]; [ vt "north"; vi 100 ] ]
    (run fx
       "SELECT region, SUM(amount) AS total FROM sales GROUP BY region HAVING SUM(amount) > 20 ORDER BY region");
  check_rows "count per group + order by agg desc + limit"
    [ [ vt "north"; vi 100 ] ]
    (run fx
       "SELECT region, MAX(amount) AS m FROM sales GROUP BY region ORDER BY m DESC LIMIT 1");
  (* An output alias in HAVING stands for its select item. *)
  check_rows "having on an alias"
    [ [ vt "east"; vi 30 ]; [ vt "north"; vi 100 ] ]
    (run fx
       "SELECT region, SUM(amount) AS total FROM sales GROUP BY region HAVING total > 20 ORDER BY region");
  (* The alias wins over a table column of the same name. *)
  check_rows "having alias shadows a column"
    [ [ vt "north"; vi 1 ] ]
    (run fx
       "SELECT region, COUNT(*) AS amount FROM sales GROUP BY region HAVING amount < 2 ORDER BY region")

let test_join () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE dept (did INT PRIMARY KEY, dname TEXT)");
  ignore (run fx "CREATE TABLE emp (eid INT PRIMARY KEY, did INT, sal INT)");
  ignore (run fx "INSERT INTO dept VALUES (1, 'eng'), (2, 'ops')");
  ignore (run fx "INSERT INTO emp VALUES (10, 1, 100), (11, 1, 120), (12, 2, 90)");
  check_rows "join"
    [ [ vt "eng"; vi 100 ]; [ vt "eng"; vi 120 ]; [ vt "ops"; vi 90 ] ]
    (run fx
       "SELECT d.dname, e.sal FROM emp AS e JOIN dept AS d ON e.did = d.did ORDER BY e.eid");
  check_rows "join + where + aggregate"
    [ [ vt "eng"; vi 220 ] ]
    (run fx
       "SELECT d.dname, SUM(e.sal) FROM emp e JOIN dept d ON e.did = d.did WHERE d.dname = 'eng' GROUP BY d.dname")

let test_update_delete () =
  let fx = make_fixture () in
  seed_items fx;
  let rs = run fx "UPDATE items SET qty = qty + 1 WHERE id = 1" in
  Alcotest.(check int) "one updated" 1 rs.Exec.affected;
  check_rows "updated" [ [ vi 11 ] ] (run fx "SELECT qty FROM items WHERE id = 1");
  let rs = run fx "DELETE FROM items WHERE qty < 10" in
  Alcotest.(check int) "one deleted" 1 rs.Exec.affected;
  check_rows "remaining" [ [ vi 1 ]; [ vi 3 ] ] (run fx "SELECT id FROM items ORDER BY id");
  let rs = run fx "UPDATE items SET qty = 0" in
  Alcotest.(check int) "blind update allowed in default mode" 2 rs.Exec.affected

let test_mvcc_snapshots () =
  let fx = make_fixture () in
  seed_items fx;
  (* A transaction pinned at the current height must not see later commits. *)
  let old_txn = fresh_txn fx in
  ignore (run fx "UPDATE items SET qty = 99 WHERE id = 1");
  (match Exec.execute_sql fx.catalog old_txn "SELECT qty FROM items WHERE id = 1" with
  | Ok rs -> check_rows "old snapshot" [ [ vi 10 ] ] rs
  | Error e -> Alcotest.fail (Exec.error_to_string e));
  Manager.abort fx.mgr old_txn (Txn.Contract_error "done");
  (* A fresh transaction sees the update. *)
  check_rows "new snapshot" [ [ vi 99 ] ] (run fx "SELECT qty FROM items WHERE id = 1")

let test_read_your_writes () =
  let fx = make_fixture () in
  seed_items fx;
  let txn = fresh_txn fx in
  let exec sql =
    match Exec.execute_sql fx.catalog txn sql with
    | Ok rs -> rs
    | Error e -> Alcotest.fail (Exec.error_to_string e)
  in
  ignore (exec "INSERT INTO items VALUES (4, 'plum', 7, 1.0)");
  check_rows "sees own insert" [ [ vi 4 ] ] (exec "SELECT id FROM items WHERE id = 4");
  ignore (exec "UPDATE items SET qty = 8 WHERE id = 4");
  check_rows "sees own update" [ [ vi 8 ] ] (exec "SELECT qty FROM items WHERE id = 4");
  ignore (exec "DELETE FROM items WHERE id = 4");
  check_rows "sees own delete" [] (exec "SELECT id FROM items WHERE id = 4");
  (* Other transactions see none of it before commit. *)
  let other = fresh_txn fx in
  (match Exec.execute_sql fx.catalog other "SELECT id FROM items WHERE id = 4" with
  | Ok rs -> check_rows "invisible to others" [] rs
  | Error e -> Alcotest.fail (Exec.error_to_string e));
  Manager.abort fx.mgr txn (Txn.Contract_error "done");
  Manager.abort fx.mgr other (Txn.Contract_error "done")

let test_duplicate_pk () =
  let fx = make_fixture () in
  seed_items fx;
  let e = run_err fx "INSERT INTO items VALUES (1, 'dup', 0, 0.0)" in
  (match e with
  | Exec.Sql_error msg ->
      Alcotest.(check bool) "mentions duplicate" true
        (String.length msg > 0 && String.sub msg 0 9 = "duplicate")
  | _ -> Alcotest.fail "wrong error kind");
  (* Updating into an existing key is also rejected. *)
  ignore (run_err fx "UPDATE items SET id = 2 WHERE id = 1")

let test_not_null_and_types () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t (id INT PRIMARY KEY, req TEXT NOT NULL)");
  ignore (run_err fx "INSERT INTO t VALUES (1, NULL)");
  ignore (run_err fx "INSERT INTO t VALUES ('x', 'ok')");
  ignore (run fx "INSERT INTO t VALUES (1, 'ok')")

let test_three_valued_logic () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t (id INT PRIMARY KEY, x INT)");
  ignore (run fx "INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30)");
  check_rows "null excluded by >" [ [ vi 3 ] ] (run fx "SELECT id FROM t WHERE x > 10");
  check_rows "null excluded by =" [ [ vi 1 ] ] (run fx "SELECT id FROM t WHERE x = 10");
  check_rows "is null" [ [ vi 2 ] ] (run fx "SELECT id FROM t WHERE x IS NULL");
  check_rows "is not null" [ [ vi 1 ]; [ vi 3 ] ]
    (run fx "SELECT id FROM t WHERE x IS NOT NULL ORDER BY id");
  check_rows "not (x > 10) excludes null" [ [ vi 1 ] ]
    (run fx "SELECT id FROM t WHERE NOT x > 10");
  check_rows "coalesce" [ [ vi 1; vi 10 ]; [ vi 2; vi 0 ]; [ vi 3; vi 30 ] ]
    (run fx "SELECT id, COALESCE(x, 0) FROM t ORDER BY id")

let test_params () =
  let fx = make_fixture () in
  seed_items fx;
  check_rows "param filter" [ [ vt "pear" ] ]
    (run fx ~params:[| vi 2 |] "SELECT name FROM items WHERE id = $1");
  ignore (run fx ~params:[| vi 9; vt "kiwi" |] "INSERT INTO items VALUES ($1, $2, 0, 0.0)");
  check_rows "param insert" [ [ vt "kiwi" ] ]
    (run fx "SELECT name FROM items WHERE id = 9");
  match run_err fx ~params:[| vi 1 |] "SELECT * FROM items WHERE id = $2" with
  | Exec.Sql_error _ -> ()
  | _ -> Alcotest.fail "expected sql error for missing param"

let test_strict_mode () =
  let fx = make_fixture () in
  seed_items fx;
  (* Indexed access (primary key) is fine. *)
  ignore (run fx ~mode:strict_mode "SELECT * FROM items WHERE id = 1");
  (* Unindexed predicate: rejected. *)
  (match run_err fx ~mode:strict_mode "SELECT * FROM items WHERE qty > 6" with
  | Exec.Missing_index t -> Alcotest.(check string) "table named" "items" t
  | _ -> Alcotest.fail "expected Missing_index");
  (* Whole-table scans: rejected. *)
  (match run_err fx ~mode:strict_mode "SELECT * FROM items" with
  | Exec.Missing_index _ -> ()
  | _ -> Alcotest.fail "expected Missing_index");
  (* Blind updates: rejected. *)
  (match run_err fx ~mode:strict_mode "UPDATE items SET qty = 0" with
  | Exec.Blind_update t -> Alcotest.(check string) "table named" "items" t
  | _ -> Alcotest.fail "expected Blind_update");
  (* After adding an index the same query passes. *)
  ignore (run fx "CREATE INDEX items_qty ON items (qty)");
  check_rows "indexed range now works" [ [ vi 1 ]; [ vi 3 ] ]
    (run fx ~mode:strict_mode "SELECT id FROM items WHERE qty > 6 ORDER BY id")

let test_tracking () =
  let fx = make_fixture () in
  seed_items fx;
  let txn = fresh_txn fx in
  (match Exec.execute_sql fx.catalog txn "SELECT * FROM items WHERE id = 2" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Exec.error_to_string e));
  Alcotest.(check int) "one read" 1 (List.length (Txn_ref.reads_of_txn txn));
  Alcotest.(check int) "one predicate" 1 (List.length txn.Txn.predicates);
  (match List.hd txn.Txn.predicates with
  | Predicate.Range { table; column; _ } ->
      Alcotest.(check string) "table" "items" table;
      Alcotest.(check int) "pk column" 0 column
  | Predicate.Full_scan _ -> Alcotest.fail "expected index predicate");
  (match Exec.execute_sql fx.catalog txn "UPDATE items SET qty = 0 WHERE id = 2" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Exec.error_to_string e));
  Alcotest.(check int) "one claim" 1 (List.length (Txn.claimed txn));
  Alcotest.(check int) "one new version" 1 (List.length (Txn.created txn));
  Manager.abort fx.mgr txn (Txn.Contract_error "done");
  (* Abort undoes the claim and hides the new version. *)
  check_rows "abort undone" [ [ vi 5 ] ] (run fx "SELECT qty FROM items WHERE id = 2")

let test_provenance () =
  let fx = make_fixture () in
  seed_items fx;
  ignore (run fx "UPDATE items SET qty = 11 WHERE id = 1");
  ignore (run fx "UPDATE items SET qty = 12 WHERE id = 1");
  ignore (run fx "DELETE FROM items WHERE id = 2");
  (* Normal query: one live version of item 1, item 2 gone. *)
  check_rows "live" [ [ vi 12 ] ] (run fx "SELECT qty FROM items WHERE id = 1");
  check_rows "deleted" [] (run fx "SELECT id FROM items WHERE id = 2");
  (* Provenance: full history. *)
  check_rows "history of item 1" [ [ vi 10 ]; [ vi 11 ]; [ vi 12 ] ]
    (run fx "PROVENANCE SELECT qty FROM items WHERE id = 1 ORDER BY qty");
  check_rows "deleted rows visible" [ [ vi 2 ] ]
    (run fx "PROVENANCE SELECT id FROM items WHERE id = 2");
  (* Pseudo-columns: the latest version of item 1 is alive. *)
  check_rows "alive version" [ [ vi 12 ] ]
    (run fx "PROVENANCE SELECT qty FROM items WHERE id = 1 AND deleter IS NULL");
  (* xmin of the first version differs from the last. *)
  let rs = run fx "PROVENANCE SELECT xmin, xmax FROM items WHERE id = 1 ORDER BY qty" in
  Alcotest.(check int) "three versions" 3 (List.length rs.Exec.rows);
  (* Reserved pseudo-columns unavailable outside provenance. *)
  ignore (run_err fx "SELECT xmin FROM items WHERE id = 1")

let test_errors () =
  let fx = make_fixture () in
  seed_items fx;
  ignore (run_err fx "SELECT * FROM missing");
  ignore (run_err fx "SELECT nope FROM items");
  ignore (run_err fx "SELECT i.id FROM items AS a");
  ignore (run_err fx "SELECT 1 / 0");
  ignore (run_err fx "SELECT 'a' + 1");
  ignore (run_err fx "INSERT INTO items VALUES (100, 'x', 1)");
  (* arity *)
  ignore (run_err fx "INSERT INTO items (id, nope) VALUES (100, 1)");
  ignore (run_err fx "UPDATE items SET nope = 1 WHERE id = 1");
  ignore (run_err fx "CREATE TABLE items (id INT PRIMARY KEY)");
  (* duplicate *)
  ignore (run_err fx "SELECT id, COUNT(*) FROM items");
  (* star with aggregates *)
  ()

(* --- name resolution ----------------------------------------------------- *)

let check_error msg expected e =
  Alcotest.(check string) msg expected (Exec.error_to_string e)

(* p and q share the column names id and v; r has w. *)
let seed_pqr fx =
  ignore (run fx "CREATE TABLE p (id INT PRIMARY KEY, v INT)");
  ignore (run fx "CREATE TABLE q (id INT PRIMARY KEY, v INT)");
  ignore (run fx "CREATE TABLE r (id INT PRIMARY KEY, w INT)");
  ignore (run fx "INSERT INTO p VALUES (1, 10), (2, 20), (3, 30)");
  ignore (run fx "INSERT INTO q VALUES (1, 100), (2, 200)");
  ignore (run fx "INSERT INTO r VALUES (1, 7)")

let test_ambiguous_column () =
  let fx = make_fixture () in
  seed_pqr fx;
  check_error "unqualified v across a join" "ambiguous column v"
    (run_err fx "SELECT v FROM p JOIN q ON p.id = q.id");
  check_error "ambiguous in ORDER BY" "ambiguous column v"
    (run_err fx "SELECT p.id FROM p JOIN q ON p.id = q.id ORDER BY v");
  (* WHERE resolves against the whole join, not the first table that has
     the name; nor does an ambiguous key pick the base table's index. *)
  check_error "ambiguous in WHERE" "ambiguous column v"
    (run_err fx "SELECT p.id FROM p JOIN q ON p.id = q.id WHERE v = 10");
  check_error "ambiguous indexed key in WHERE" "ambiguous column id"
    (run_err fx "SELECT p.v FROM p JOIN q ON p.id = q.id WHERE id = 1");
  (* Qualified names disambiguate; a name only one table has needs none. *)
  check_rows "qualified" [ [ vi 10; vi 100 ]; [ vi 20; vi 200 ] ]
    (run fx "SELECT p.v, q.v FROM p JOIN q ON p.id = q.id ORDER BY p.id");
  check_rows "unique name" [ [ vi 7 ] ]
    (run fx "SELECT w FROM p JOIN r ON p.id = r.id")

let test_alias_shadows_table () =
  let fx = make_fixture () in
  seed_pqr fx;
  (* [q AS p]: the alias p names q's rows, and the table name q is gone. *)
  check_rows "alias p reads q" [ [ vi 100 ]; [ vi 200 ] ]
    (run fx "SELECT p.v FROM q AS p ORDER BY p.id");
  check_error "table name hidden by its alias" "unknown table or alias q"
    (run_err fx "SELECT q.v FROM q AS p");
  check_error "unknown column under an alias" "unknown column p.w"
    (run_err fx "SELECT p.w FROM q AS p");
  (* A self-join tells its two sides apart by alias alone. *)
  check_rows "self join" [ [ vi 1; vi 2 ]; [ vi 2; vi 3 ] ]
    (run fx "SELECT x.id, y.id FROM p x JOIN p y ON y.id = x.id + 1 ORDER BY x.id")

let test_correlated_resolution () =
  let fx = make_fixture () in
  seed_pqr fx;
  (* Inner scope first: v is q.v inside the subquery, although p has v. *)
  check_rows "inner first" [ [ vi 1; vi 100 ]; [ vi 2; vi 200 ]; [ vi 3; vnull ] ]
    (run fx "SELECT p.id, (SELECT v FROM q WHERE q.id = p.id) FROM p ORDER BY p.id");
  (* Not found inside: the innermost outer binding wins (q over p), with
     no ambiguity check across scopes. *)
  check_rows "innermost outer" [ [ vi 1; vi 100 ]; [ vi 2; vnull ]; [ vi 3; vnull ] ]
    (run fx
       "SELECT p.id, (SELECT (SELECT v FROM r WHERE r.id = p.id) FROM q WHERE \
        q.id = p.id) FROM p ORDER BY p.id");
  (* A qualified outer reference reaches past the inner scope. *)
  check_rows "qualified outer" [ [ vi 1; vi 10 ] ]
    (run fx "SELECT r.id, (SELECT p.v FROM q WHERE q.id = r.id) FROM r JOIN p ON p.id = r.id");
  check_rows "correlated EXISTS" [ [ vi 1 ]; [ vi 2 ] ]
    (run fx "SELECT id FROM p WHERE EXISTS (SELECT id FROM q WHERE q.id = p.id) ORDER BY id")

let test_duplicate_alias () =
  let fx = make_fixture () in
  seed_pqr fx;
  (* PostgreSQL rejects a FROM name used twice, at plan time. *)
  let dup sql =
    check_error sql {|table name "p" specified more than once|} (run_err fx sql);
    match Exec.explain_sql fx.catalog sql with
    | Ok plan -> Alcotest.failf "explain accepted %s:\n%s" sql plan
    | Error msg ->
        Alcotest.(check string) ("explain " ^ sql) {|table name "p" specified more than once|} msg
  in
  dup "SELECT p.id FROM p JOIN q AS p ON p.id = p.id WHERE p.v = 10";
  dup "SELECT * FROM p JOIN p ON p.id = p.id";
  (* Distinct aliases over one table stay legal, pushdown included. *)
  check_rows "self join with pushed filters" [ [ vi 2; vi 1 ] ]
    (run fx "SELECT x.id, y.id FROM p x JOIN p AS y ON y.id = x.id - 1 WHERE x.v = 20 AND y.v = 10");
  match Exec.explain_sql fx.catalog "SELECT x.id FROM p x JOIN p y ON y.id = x.id" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "explain self join: %s" msg

let test_pushdown_binds_inner_scope () =
  let fx = make_fixture () in
  seed_pqr fx;
  ignore (run fx "INSERT INTO r VALUES (2, 8)");
  (* The inner q.v = 100 reads the subquery's own q, not the outer row's:
     it filters at the inner q scan. The outer-only w keeps the subquery
     correlated, so no cache hides a wrong placement. *)
  check_rows "inner q, every outer row" [ [ vi 1; vi 1 ]; [ vi 2; vi 1 ] ]
    (run fx
       "SELECT q.id, (SELECT COUNT(*) + w - w FROM p JOIN q ON p.id = q.id WHERE q.v = \
        100) FROM q JOIN r ON q.id = r.id ORDER BY q.id")

let test_sys_view_correlation () =
  let fx = make_fixture () in
  seed_pqr fx;
  Catalog.register_virtual fx.catalog ~name:"sys.nums"
    [ Catalog.int ~pk:true "k" fst; Catalog.int "sq" snd ]
    (fun ~height:_ -> List.map (fun k -> (k, k * k)) [ 1; 2; 3 ]);
  (* v is not a column of the view: it reads the outer p row, so the
     subquery is correlated and runs per row. *)
  check_rows "correlated over a view" [ [ vi 1; vi 0 ]; [ vi 2; vi 1 ]; [ vi 3; vi 2 ] ]
    (run fx "SELECT p.id, (SELECT COUNT(*) FROM sys.nums WHERE k < v / 10) FROM p ORDER BY p.id");
  check_rows "uncorrelated over a view" [ [ vi 1; vi 14 ]; [ vi 2; vi 14 ]; [ vi 3; vi 14 ] ]
    (run fx "SELECT p.id, (SELECT SUM(sq) FROM sys.nums) FROM p ORDER BY p.id")

let test_group_by_resolved () =
  let fx = make_fixture () in
  seed_pqr fx;
  (* A GROUP BY key and an item match by the column they resolve to, not
     by their printed text. *)
  let expected = [ [ vi 10; vi 1 ]; [ vi 20; vi 1 ]; [ vi 30; vi 1 ] ] in
  check_rows "qualified item, bare key" expected
    (run fx "SELECT p.v, COUNT(*) FROM p GROUP BY v ORDER BY p.v");
  check_rows "bare item, qualified key" expected
    (run fx "SELECT v, COUNT(*) FROM p GROUP BY p.v ORDER BY v");
  check_error "a different column still fails" "column q.v must appear in GROUP BY or an aggregate"
    (run_err fx "SELECT q.v, COUNT(*) FROM p JOIN q ON p.id = q.id GROUP BY p.v")

let test_unknown_column_timing () =
  let fx = make_fixture () in
  seed_pqr fx;
  ignore (run fx "CREATE TABLE e (id INT PRIMARY KEY)");
  (* Names resolve when a row is evaluated: no rows, no error. *)
  check_rows "empty table, bad item" [] (run fx "SELECT nope FROM e");
  check_rows "empty table, bad filter" [] (run fx "SELECT id FROM e WHERE nope = 1");
  check_rows "empty join side" [] (run fx "SELECT p.id FROM p JOIN e ON e.id = p.id WHERE e.nope = 1");
  check_error "non-empty table" "unknown column nope" (run_err fx "SELECT nope FROM p");
  check_error "non-empty filter" "unknown column nope"
    (run_err fx "SELECT id FROM p WHERE nope = 1");
  check_error "unknown alias" "unknown table or alias z" (run_err fx "SELECT z.id FROM p");
  (* A nested subquery that never runs is never planned: its unknown table
     is no error. *)
  check_rows "unknown table, nested and unevaluated" [ [ vi 1; vi 0 ] ]
    (run fx
       "SELECT r.id, (SELECT COUNT(*) FROM q WHERE q.id < 0 AND EXISTS (SELECT nope.id \
        FROM nope)) FROM r")

let test_between_null_bound () =
  let fx = make_fixture () in
  seed_pqr fx;
  check_rows "NULL low bound filters everything" []
    (run fx "SELECT id FROM p WHERE v BETWEEN NULL AND 100");
  check_rows "NULL high bound: FALSE below low, else NULL"
    [ [ vi 1; Value.Bool false ]; [ vi 2; vnull ]; [ vi 3; vnull ] ]
    (run fx "SELECT id, v BETWEEN 15 AND NULL FROM p ORDER BY id");
  check_rows "grouped BETWEEN" [ [ vnull ] ]
    (run fx "SELECT SUM(v) BETWEEN NULL AND 100 FROM p")

let test_provenance_left_join_nulls () =
  let fx = make_fixture () in
  seed_pqr fx;
  (* p.id = 3 has no q row: the null-extended side's pseudo-columns are
     NULL, the matched side's are set. *)
  let rs =
    run fx
      "PROVENANCE SELECT p.id, q.xmin, q.creator, q.deleter FROM p LEFT JOIN q \
       ON q.id = p.id ORDER BY p.id"
  in
  match rows_to_list rs with
  | [ [ _; x1; c1; d1 ]; [ _; x2; c2; _ ]; [ i3; x3; c3; d3 ] ] ->
      Alcotest.(check bool) "matched xmin set" true (not (Value.is_null x1 || Value.is_null x2));
      Alcotest.(check bool) "matched creator set" true (not (Value.is_null c1 || Value.is_null c2));
      Alcotest.check value "live row has no deleter" vnull d1;
      Alcotest.check value "unmatched id" (vi 3) i3;
      Alcotest.(check (list value)) "null row pseudo-columns" [ vnull; vnull; vnull ] [ x3; c3; d3 ]
  | _ -> Alcotest.fail "expected three rows"

(* An aggregated select's items may read columns only inside aggregates or
   as GROUP BY keys, whatever its input: the ungrouped [v] fails over an
   empty table as over a full one, and an empty input never reads the
   enclosing row's columns in place of its own. *)
let test_grouped_empty_input () =
  let fx = make_fixture () in
  seed_pqr fx;
  ignore (run fx "CREATE TABLE e (id INT PRIMARY KEY, v INT)");
  let ungrouped = "column v must appear in GROUP BY or an aggregate" in
  check_error "non-empty input" ungrouped (run_err fx "SELECT COUNT(*) + v FROM p");
  check_error "empty input" ungrouped (run_err fx "SELECT COUNT(*) + v FROM e");
  check_error "subquery over an empty table" ungrouped
    (run_err fx "SELECT p.id, (SELECT COUNT(*) + v FROM e) FROM p");
  check_rows "constants and aggregates over an empty input" [ [ vi 0; vi 1; vnull ] ]
    (run fx "SELECT COUNT(*), 1, SUM(v) FROM e");
  check_rows "an enclosing row's column is one value" [ [ vi 1; vi 10 ]; [ vi 2; vi 20 ]; [ vi 3; vi 30 ] ]
    (run fx "SELECT p.id, (SELECT COUNT(*) + p.v FROM e) FROM p ORDER BY p.id");
  check_rows "a grouped expression" [ [ vi 11; vi 1 ]; [ vi 21; vi 1 ]; [ vi 31; vi 1 ] ]
    (run fx "SELECT v + 1, COUNT(*) FROM p GROUP BY v ORDER BY v")

(* HAVING and ORDER BY are held to the same rule as the items once output
   aliases are substituted: neither may read a group's representative row
   through an ungrouped column. An aggregate alias, a GROUP BY key and an
   aggregate stay accepted. *)
let test_grouped_having_order_by () =
  let fx = make_fixture () in
  seed_pqr fx;
  let ungrouped = "column v must appear in GROUP BY or an aggregate" in
  check_error "ORDER BY an ungrouped column" ungrouped
    (run_err fx "SELECT COUNT(*) FROM p ORDER BY v");
  check_error "HAVING on an ungrouped column" ungrouped
    (run_err fx "SELECT COUNT(*) FROM p HAVING v > 15");
  check_error "ungrouped column beside a GROUP BY key" "column p.v must appear in GROUP BY or an aggregate"
    (run_err fx "SELECT id, COUNT(*) FROM p GROUP BY id HAVING p.v > 15");
  check_rows "ORDER BY an aggregate alias" [ [ vi 30; vi 30 ]; [ vi 20; vi 20 ]; [ vi 10; vi 10 ] ]
    (run fx "SELECT v, SUM(v) AS t FROM p GROUP BY v ORDER BY t DESC");
  check_rows "ORDER BY a GROUP BY key" [ [ vi 30; vi 1 ]; [ vi 20; vi 1 ]; [ vi 10; vi 1 ] ]
    (run fx "SELECT p.v, COUNT(*) FROM p GROUP BY v ORDER BY v DESC");
  check_rows "HAVING an aggregate" [ [ vi 60 ] ] (run fx "SELECT SUM(v) FROM p HAVING SUM(v) > 15");
  check_rows "HAVING an aggregate, filtered out" []
    (run fx "SELECT SUM(v) FROM p HAVING SUM(v) > 100")

(* SELECT * expands over the select's own FROM tables, not an enclosing
   row's. *)
let test_star_in_subquery () =
  let fx = make_fixture () in
  seed_pqr fx;
  ignore (run fx "CREATE TABLE one (x INT PRIMARY KEY)");
  ignore (run fx "INSERT INTO one VALUES (1), (3)");
  check_rows "IN (SELECT *)" [ [ vi 1 ]; [ vi 3 ] ]
    (run fx "SELECT p.id FROM p WHERE p.id IN (SELECT * FROM one) ORDER BY p.id");
  check_rows "correlated scalar SELECT *" [ [ vi 1; vi 1 ]; [ vi 2; vnull ]; [ vi 3; vi 3 ] ]
    (run fx "SELECT p.id, (SELECT * FROM one WHERE x = p.id) FROM p ORDER BY p.id");
  let rs = run fx "SELECT * FROM p JOIN one ON one.x = p.id ORDER BY p.id" in
  Alcotest.(check (list string)) "top-level star names every FROM table"
    [ "p.id"; "p.v"; "one.x" ] rs.Exec.columns

(* A point read visits only what its snapshot could see. After 1,000
   aborted and 200 committed updates of one key, the key's index entry
   holds the one live version and 200 retired ones, all deleted at or
   below the reader's height: the read visits one version, where walking
   every version ever written under the key visits 1,201. *)
let test_point_read_skips_history () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
  ignore (run fx "INSERT INTO kv VALUES (1, 0)");
  let update = "UPDATE kv SET v = v + 1 WHERE k = 1" in
  for i = 1 to 1200 do
    if i mod 6 = 0 then ignore (run fx update)
    else
      let txn = fresh_txn fx in
      (match Exec.execute_sql fx.catalog txn update with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Exec.error_to_string e));
      Manager.abort fx.mgr txn (Txn.Contract_error "aborted")
  done;
  let stats = Exec.new_stats () in
  check_rows "200 committed updates" [ [ vi 200 ] ]
    (run ~mode:{ Exec.default_mode with Exec.stats = Some stats } fx
       "SELECT v FROM kv WHERE k = 1");
  let visited = List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Exec.visited_counts stats) in
  if visited > 2 then
    Alcotest.failf "point SELECT visited %d versions (at most 2)" visited

(* --- allocation ---------------------------------------------------------- *)

(* The benchmark's group query (an index scan, a primary-key nested-loop
   join, GROUP BY, top-1 by an aggregate alias) over 20 joined rows. *)
let group_query_words_per_row () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE parts (part_id INT PRIMARY KEY, price INT, grp INT)");
  ignore
    (run fx
       "CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, part_id INT, qty INT)");
  ignore (run fx "CREATE INDEX orders_customer ON orders (customer_id)");
  ignore
    (run fx
       ("INSERT INTO parts VALUES "
       ^ String.concat ", "
           (List.init 50 (fun i -> Printf.sprintf "(%d, %d, %d)" i ((i mod 50) + 1) (i mod 10)))));
  ignore
    (run fx
       ("INSERT INTO orders VALUES "
       ^ String.concat ", "
           (List.init 400 (fun i ->
                Printf.sprintf "(%d, %d, %d, %d)" i (i mod 20) (i * 7919 mod 50) ((i mod 7) + 1)))));
  let stmt =
    match
      Brdb_sql.Parser.parse
        "SELECT SUM(o.qty * p.price) AS t FROM orders o JOIN parts p ON o.part_id = \
         p.part_id WHERE o.customer_id = $1 GROUP BY p.grp ORDER BY t DESC LIMIT 1"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let joined_rows = 20 in
  let words () =
    let txn = fresh_txn fx in
    let before = Gc.minor_words () in
    let rs = Exec.execute fx.catalog txn ~params:[| vi 3 |] ~mode:strict_mode stmt in
    let words = Gc.minor_words () -. before in
    Manager.abort fx.mgr txn (Txn.Contract_error "done");
    (match rs with
    | Ok { Exec.rows = [ [| Value.Int _ |] ]; _ } -> ()
    | _ -> Alcotest.fail "group query failed");
    words
  in
  ignore (words ());
  List.fold_left min infinity (List.init 5 (fun _ -> words ())) /. float_of_int joined_rows

(* The per-row interpreter (a name lookup per column reference, the access
   path re-chosen per outer row, aggregates recomputed for ORDER BY)
   allocated 1,033 minor words per joined row here; compiled expressions
   must stay at no more than half of that. *)
let test_group_query_allocation () =
  let per_row = group_query_words_per_row () in
  if per_row > 516. then
    Alcotest.failf "group query allocated %.0f minor words per joined row (at most 516)"
      per_row

let test_multi_version_update_chain_and_join_on_unindexed () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE a (id INT PRIMARY KEY, k INT)");
  ignore (run fx "CREATE TABLE b (id INT PRIMARY KEY, k INT, v TEXT)");
  ignore (run fx "INSERT INTO a VALUES (1, 7), (2, 8)");
  ignore (run fx "INSERT INTO b VALUES (10, 7, 'x'), (11, 8, 'y'), (12, 7, 'z')");
  (* join on unindexed column k still works via nested loop. *)
  check_rows "unindexed join"
    [ [ vi 1; vt "x" ]; [ vi 1; vt "z" ]; [ vi 2; vt "y" ] ]
    (run fx "SELECT a.id, b.v FROM a JOIN b ON a.k = b.k ORDER BY a.id, b.id")

let suites =
  [
    ( "engine.select",
      [
        Alcotest.test_case "create/insert/select" `Quick test_create_insert_select;
        Alcotest.test_case "where + projection" `Quick test_where_and_projection;
        Alcotest.test_case "order/limit" `Quick test_order_and_limit;
        Alcotest.test_case "aggregates" `Quick test_aggregates;
        Alcotest.test_case "group by / having" `Quick test_group_by_having;
        Alcotest.test_case "joins" `Quick test_join;
        Alcotest.test_case "unindexed join" `Quick test_multi_version_update_chain_and_join_on_unindexed;
      ] );
    ( "engine.dml",
      [
        Alcotest.test_case "update/delete" `Quick test_update_delete;
        Alcotest.test_case "duplicate pk" `Quick test_duplicate_pk;
        Alcotest.test_case "not null / types" `Quick test_not_null_and_types;
        Alcotest.test_case "params" `Quick test_params;
      ] );
    ( "engine.mvcc",
      [
        Alcotest.test_case "snapshots" `Quick test_mvcc_snapshots;
        Alcotest.test_case "read your writes" `Quick test_read_your_writes;
        Alcotest.test_case "3VL" `Quick test_three_valued_logic;
        Alcotest.test_case "tracking + abort undo" `Quick test_tracking;
        Alcotest.test_case "provenance" `Quick test_provenance;
        Alcotest.test_case "point read skips retired and aborted versions" `Quick
          test_point_read_skips_history;
      ] );
    ( "engine.modes",
      [
        Alcotest.test_case "strict mode" `Quick test_strict_mode;
        Alcotest.test_case "errors" `Quick test_errors;
      ] );
    ( "engine.names",
      [
        Alcotest.test_case "ambiguous column" `Quick test_ambiguous_column;
        Alcotest.test_case "alias shadows table" `Quick test_alias_shadows_table;
        Alcotest.test_case "correlated resolution" `Quick test_correlated_resolution;
        Alcotest.test_case "duplicate FROM alias" `Quick test_duplicate_alias;
        Alcotest.test_case "pushdown binds the inner scope" `Quick test_pushdown_binds_inner_scope;
        Alcotest.test_case "sys.* view correlation" `Quick test_sys_view_correlation;
        Alcotest.test_case "GROUP BY by resolved column" `Quick test_group_by_resolved;
        Alcotest.test_case "unknown column timing" `Quick test_unknown_column_timing;
        Alcotest.test_case "BETWEEN with NULL bound" `Quick test_between_null_bound;
        Alcotest.test_case "provenance LEFT JOIN nulls" `Quick test_provenance_left_join_nulls;
        Alcotest.test_case "aggregates over an empty input" `Quick test_grouped_empty_input;
        Alcotest.test_case "HAVING and ORDER BY read grouped columns" `Quick
          test_grouped_having_order_by;
        Alcotest.test_case "SELECT * in a subquery" `Quick test_star_in_subquery;
      ] );
    ( "engine.alloc",
      [ Alcotest.test_case "group query allocation" `Quick test_group_query_allocation ] );
  ]
