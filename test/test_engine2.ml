(** Second engine suite: expression semantics, multi-table plans, and
    constraint edge cases beyond the basics in {!Test_engine}. *)

open Brdb_storage
module Txn = Brdb_txn.Txn
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec

(* Index-required mode without sys.* reads, as contract execution runs. *)
let strict_mode = { Exec.default_mode with Exec.require_index = true; allow_sys = false }

type fixture = { mgr : Manager.t; catalog : Catalog.t; mutable height : int; mutable n : int }

let make_fixture () =
  let catalog = Catalog.create () in
  { mgr = Manager.create catalog; catalog; height = 0; n = 0 }

let fresh_txn fx =
  fx.n <- fx.n + 1;
  match
    Manager.begin_txn fx.mgr ~global_id:(Printf.sprintf "e2-%d" fx.n) ~client:"test"
      ~snapshot_height:fx.height ()
  with
  | Ok t -> t
  | Error `Duplicate_txid -> Alcotest.fail "dup txid"

let run ?params fx sql =
  let txn = fresh_txn fx in
  match Exec.execute_sql fx.catalog txn ?params sql with
  | Ok rs ->
      fx.height <- fx.height + 1;
      Manager.commit fx.mgr txn ~height:fx.height;
      rs
  | Error e ->
      Manager.abort fx.mgr txn (Txn.Contract_error (Exec.error_to_string e));
      Alcotest.failf "%s failed: %s" sql (Exec.error_to_string e)

let run_err ?params fx sql =
  let txn = fresh_txn fx in
  match Exec.execute_sql fx.catalog txn ?params sql with
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" sql
  | Error e ->
      Manager.abort fx.mgr txn (Txn.Contract_error (Exec.error_to_string e));
      e

let value : Value.t Alcotest.testable = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Value.to_string v))
    Value.equal

let rows rs = List.map Array.to_list rs.Exec.rows

let check_rows msg expected rs = Alcotest.(check (list (list value))) msg expected (rows rs)

let vi i = Value.Int i
let vf f = Value.Float f
let vt s = Value.Text s
let vb b = Value.Bool b
let vnull = Value.Null

(* --- scalar semantics ------------------------------------------------------ *)

let scalar fx expr = run fx ("SELECT " ^ expr)

let test_numeric_semantics () =
  let fx = make_fixture () in
  check_rows "int division truncates" [ [ vi 2 ] ] (scalar fx "7 / 3");
  check_rows "mixed promotes to float" [ [ vf 3.5 ] ] (scalar fx "7 / 2.0");
  check_rows "float arith" [ [ vf 0.75 ] ] (scalar fx "0.5 + 0.25");
  check_rows "mod" [ [ vi 1 ] ] (scalar fx "7 % 3");
  check_rows "unary minus" [ [ vi (-5) ] ] (scalar fx "-5");
  check_rows "negative float" [ [ vf (-2.5) ] ] (scalar fx "-(2.5)");
  check_rows "null propagates" [ [ vnull ] ] (scalar fx "1 + NULL");
  (match run_err fx "SELECT 1 % 2.0" with
  | Exec.Sql_error _ -> ()
  | _ -> Alcotest.fail "float mod should fail");
  (match run_err fx "SELECT 1 / 0.0" with
  | Exec.Sql_error _ -> ()
  | _ -> Alcotest.fail "float div by zero should fail")

let test_text_functions () =
  let fx = make_fixture () in
  check_rows "concat" [ [ vt "ab" ] ] (scalar fx "'a' || 'b'");
  check_rows "concat coerces" [ [ vt "x1" ] ] (scalar fx "'x' || 1");
  check_rows "concat null" [ [ vnull ] ] (scalar fx "'x' || NULL");
  check_rows "upper/lower" [ [ vt "ABC"; vt "abc" ] ] (scalar fx "UPPER('aBc'), LOWER('aBc')");
  check_rows "length" [ [ vi 5 ] ] (scalar fx "LENGTH('hello')");
  check_rows "nullif equal" [ [ vnull ] ] (scalar fx "NULLIF(3, 3)");
  check_rows "nullif different" [ [ vi 3 ] ] (scalar fx "NULLIF(3, 4)");
  check_rows "greatest/least" [ [ vi 9; vi 1 ] ] (scalar fx "GREATEST(3, 9, 1), LEAST(3, 9, 1)");
  check_rows "greatest with null" [ [ vnull ] ] (scalar fx "GREATEST(3, NULL)");
  check_rows "abs" [ [ vi 4; vf 2.5 ] ] (scalar fx "ABS(-4), ABS(-2.5)")

let test_boolean_and_in_semantics () =
  let fx = make_fixture () in
  check_rows "true and null" [ [ vnull ] ] (scalar fx "TRUE AND NULL");
  check_rows "false and null" [ [ vb false ] ] (scalar fx "FALSE AND NULL");
  check_rows "true or null" [ [ vb true ] ] (scalar fx "TRUE OR NULL");
  check_rows "false or null" [ [ vnull ] ] (scalar fx "FALSE OR NULL");
  check_rows "not null" [ [ vnull ] ] (scalar fx "NOT NULL");
  check_rows "in hit" [ [ vb true ] ] (scalar fx "2 IN (1, 2, 3)");
  check_rows "in miss" [ [ vb false ] ] (scalar fx "9 IN (1, 2, 3)");
  check_rows "in miss with null is unknown" [ [ vnull ] ] (scalar fx "9 IN (1, NULL)");
  check_rows "in hit beats null" [ [ vb true ] ] (scalar fx "1 IN (NULL, 1)");
  check_rows "null in anything" [ [ vnull ] ] (scalar fx "NULL IN (1, 2)");
  check_rows "text between" [ [ vb true ] ] (scalar fx "'bb' BETWEEN 'a' AND 'c'")

(* --- multi-table plans ------------------------------------------------------- *)

let seed_three_tables fx =
  ignore (run fx "CREATE TABLE customers (cid INT PRIMARY KEY, cname TEXT)");
  ignore (run fx "CREATE TABLE orders (oid INT PRIMARY KEY, cid INT, pid INT, qty INT)");
  ignore (run fx "CREATE TABLE products (pid INT PRIMARY KEY, pname TEXT, price INT)");
  ignore (run fx "INSERT INTO customers VALUES (1, 'ann'), (2, 'ben')");
  ignore (run fx "INSERT INTO products VALUES (10, 'bolt', 2), (11, 'nut', 1)");
  ignore
    (run fx
       "INSERT INTO orders VALUES (100, 1, 10, 3), (101, 1, 11, 5), (102, 2, 10, 1)")

let test_three_way_join () =
  let fx = make_fixture () in
  seed_three_tables fx;
  check_rows "3-way join"
    [ [ vt "ann"; vt "bolt"; vi 6 ]; [ vt "ann"; vt "nut"; vi 5 ]; [ vt "ben"; vt "bolt"; vi 2 ] ]
    (run fx
       "SELECT c.cname, p.pname, o.qty * p.price FROM orders o JOIN customers c ON \
        o.cid = c.cid JOIN products p ON o.pid = p.pid ORDER BY c.cname, p.pname")

let test_self_join () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE emp (id INT PRIMARY KEY, boss INT, name TEXT)");
  ignore (run fx "INSERT INTO emp VALUES (1, 1, 'root'), (2, 1, 'ada'), (3, 2, 'bob')");
  check_rows "self join"
    [ [ vt "ada"; vt "root" ]; [ vt "bob"; vt "ada" ]; [ vt "root"; vt "root" ] ]
    (run fx
       "SELECT e.name, b.name FROM emp e JOIN emp b ON e.boss = b.id ORDER BY e.name")

let test_left_join () =
  let fx = make_fixture () in
  seed_three_tables fx;
  (* customer 3 has no orders *)
  ignore (run fx "INSERT INTO customers VALUES (3, 'cat')");
  check_rows "left join keeps unmatched left rows"
    [ [ vt "ann"; vi 100 ]; [ vt "ann"; vi 101 ]; [ vt "ben"; vi 102 ]; [ vt "cat"; vnull ] ]
    (run fx
       "SELECT c.cname, o.oid FROM customers c LEFT JOIN orders o ON c.cid = o.cid         ORDER BY c.cname, o.oid");
  (* anti-join: customers without orders *)
  check_rows "anti join" [ [ vt "cat" ] ]
    (run fx
       "SELECT c.cname FROM customers c LEFT OUTER JOIN orders o ON c.cid = o.cid         WHERE o.oid IS NULL ORDER BY c.cname");
  (* aggregates over a left join: COUNT(col) skips the null extension *)
  check_rows "count orders per customer"
    [ [ vt "ann"; vi 2 ]; [ vt "ben"; vi 1 ]; [ vt "cat"; vi 0 ] ]
    (run fx
       "SELECT c.cname, COUNT(o.oid) FROM customers c LEFT JOIN orders o ON         c.cid = o.cid GROUP BY c.cname ORDER BY c.cname")

let test_group_by_multiple_keys_and_count_distinct () =
  let fx = make_fixture () in
  seed_three_tables fx;
  check_rows "count distinct customers" [ [ vi 2 ] ]
    (run fx "SELECT COUNT(DISTINCT cid) FROM orders");
  check_rows "plain count for contrast" [ [ vi 3 ] ]
    (run fx "SELECT COUNT(cid) FROM orders");
  check_rows "group by two keys"
    [ [ vi 1; vi 10; vi 3 ]; [ vi 1; vi 11; vi 5 ]; [ vi 2; vi 10; vi 1 ] ]
    (run fx
       "SELECT cid, pid, SUM(qty) FROM orders GROUP BY cid, pid ORDER BY cid, pid")

let test_order_by_mixed_directions_and_limit_zero () =
  let fx = make_fixture () in
  seed_three_tables fx;
  check_rows "cid asc, qty desc"
    [ [ vi 101 ]; [ vi 100 ]; [ vi 102 ] ]
    (run fx "SELECT oid FROM orders ORDER BY cid ASC, qty DESC");
  check_rows "limit zero" [] (run fx "SELECT oid FROM orders ORDER BY oid LIMIT 0")

let test_select_distinct () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  ignore (run fx "INSERT INTO t VALUES (1, 5), (2, 5), (3, 7), (4, 5)");
  check_rows "distinct values" [ [ vi 5 ]; [ vi 7 ] ]
    (run fx "SELECT DISTINCT v FROM t ORDER BY v");
  check_rows "distinct with limit" [ [ vi 5 ] ]
    (run fx "SELECT DISTINCT v FROM t ORDER BY v LIMIT 1");
  check_rows "plain select keeps dups" [ [ vi 5 ]; [ vi 5 ]; [ vi 5 ]; [ vi 7 ] ]
    (run fx "SELECT v FROM t ORDER BY v");
  check_rows "distinct over pairs" [ [ vi 5; vi 10 ]; [ vi 7; vi 14 ] ]
    (run fx "SELECT DISTINCT v, v * 2 FROM t ORDER BY v")

let test_negative_range_scan () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t (id INT PRIMARY KEY)");
  ignore (run fx "INSERT INTO t VALUES (-5), (-1), (0), (3)");
  check_rows "negative bounds" [ [ vi (-5) ]; [ vi (-1) ] ]
    (run fx "SELECT id FROM t WHERE id < 0 ORDER BY id");
  check_rows "straddling zero" [ [ vi (-1) ]; [ vi 0 ] ]
    (run fx "SELECT id FROM t WHERE id BETWEEN -1 AND 2 ORDER BY id")

(* --- constraints -------------------------------------------------------------- *)

let test_unique_secondary_index () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE users (id INT PRIMARY KEY, email TEXT)");
  ignore (run fx "CREATE UNIQUE INDEX users_email ON users (email)");
  ignore (run fx "INSERT INTO users VALUES (1, 'a@x'), (2, 'b@x')");
  ignore (run_err fx "INSERT INTO users VALUES (3, 'a@x')");
  (* NULLs do not collide *)
  ignore (run fx "INSERT INTO users VALUES (4, NULL), (5, NULL)");
  (* updating into a taken email fails, into a fresh one succeeds *)
  ignore (run_err fx "UPDATE users SET email = 'b@x' WHERE id = 1");
  ignore (run fx "UPDATE users SET email = 'c@x' WHERE id = 1")

let test_delete_then_reinsert_same_pk () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  ignore (run fx "INSERT INTO t VALUES (1, 10)");
  (* within a single transaction: delete then reinsert the same key *)
  let txn = fresh_txn fx in
  let exec sql =
    match Exec.execute_sql fx.catalog txn sql with
    | Ok rs -> rs
    | Error e -> Alcotest.fail (Exec.error_to_string e)
  in
  ignore (exec "DELETE FROM t WHERE id = 1");
  ignore (exec "INSERT INTO t VALUES (1, 20)");
  fx.height <- fx.height + 1;
  Manager.commit fx.mgr txn ~height:fx.height;
  check_rows "reinserted" [ [ vi 20 ] ] (run fx "SELECT v FROM t WHERE id = 1");
  check_rows "history has both" [ [ vi 10 ]; [ vi 20 ] ]
    (run fx "PROVENANCE SELECT v FROM t WHERE id = 1 ORDER BY v")

let test_update_expression_uses_other_columns () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)");
  ignore (run fx "INSERT INTO t VALUES (1, 3, 4)");
  ignore (run fx "UPDATE t SET a = a + b, b = a WHERE id = 1");
  (* both SET expressions see the OLD row *)
  check_rows "old-row semantics" [ [ vi 7; vi 3 ] ] (run fx "SELECT a, b FROM t WHERE id = 1")

let test_params_in_ranges_and_sets () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  ignore (run fx "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)");
  check_rows "param range" [ [ vi 2 ]; [ vi 3 ] ]
    (run fx ~params:[| vi 2; vi 3 |] "SELECT id FROM t WHERE id BETWEEN $1 AND $2 ORDER BY id");
  ignore (run fx ~params:[| vi 10; vi 2 |] "UPDATE t SET v = $1 WHERE id = $2");
  check_rows "param set" [ [ vi 10 ] ] (run fx "SELECT v FROM t WHERE id = 2")

let test_aggregates_over_floats () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE m (id INT PRIMARY KEY, x FLOAT)");
  ignore (run fx "INSERT INTO m VALUES (1, 1.5), (2, 2.5), (3, NULL)");
  check_rows "sum floats skips null" [ [ vf 4.0 ] ] (run fx "SELECT SUM(x) FROM m");
  check_rows "avg over non-nulls" [ [ vf 2.0 ] ] (run fx "SELECT AVG(x) FROM m");
  check_rows "count skips null" [ [ vi 2 ] ] (run fx "SELECT COUNT(x) FROM m");
  check_rows "min/max" [ [ vf 1.5; vf 2.5 ] ] (run fx "SELECT MIN(x), MAX(x) FROM m")

let test_having_without_group_by () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  ignore (run fx "INSERT INTO t VALUES (1, 5), (2, 10)");
  check_rows "having passes" [ [ vi 15 ] ] (run fx "SELECT SUM(v) FROM t HAVING SUM(v) > 10");
  check_rows "having filters all" [] (run fx "SELECT SUM(v) FROM t HAVING SUM(v) > 100")

let test_conversions () =
  let fx = make_fixture () in
  check_rows "to_int of text" [ [ vi 42 ] ] (scalar fx "TO_INT(' 42 ')");
  check_rows "to_int of float truncates" [ [ vi 3 ] ] (scalar fx "TO_INT(3.9)");
  check_rows "to_int of bool" [ [ vi 1; vi 0 ] ] (scalar fx "TO_INT(TRUE), TO_INT(FALSE)");
  check_rows "to_float" [ [ vf 2.5; vf 4.0 ] ] (scalar fx "TO_FLOAT('2.5'), TO_FLOAT(4)");
  check_rows "to_text" [ [ vt "7" ] ] (scalar fx "TO_TEXT(7)");
  check_rows "null passthrough" [ [ vnull; vnull ] ] (scalar fx "TO_INT(NULL), TO_FLOAT(NULL)");
  match run_err fx "SELECT TO_INT('nope')" with
  | Exec.Sql_error _ -> ()
  | _ -> Alcotest.fail "bad conversion should fail"

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i = i + nl <= hl && (String.sub hay i nl = needle || loop (i + 1)) in
  loop 0

let test_explain () =
  let fx = make_fixture () in
  seed_three_tables fx;
  let explain sql =
    match Exec.explain_sql fx.catalog sql with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let plan = explain "SELECT * FROM orders WHERE oid = 5" in
  Alcotest.(check bool) "pk index" true (contains plan "index scan on orders.oid");
  let plan = explain "SELECT * FROM orders WHERE qty > 3" in
  Alcotest.(check bool) "no index -> seq" true (contains plan "seq scan on orders");
  let plan =
    explain
      "SELECT c.cname FROM orders o JOIN customers c ON o.cid = c.cid WHERE o.oid = 1"
  in
  Alcotest.(check bool) "outer via pk" true (contains plan "index scan on orders.oid");
  Alcotest.(check bool) "inner via join key" true (contains plan "index scan on customers.cid");
  let plan = explain "UPDATE orders SET qty = 0 WHERE oid BETWEEN 1 AND 3" in
  Alcotest.(check bool) "update range" true (contains plan "index scan on orders.oid");
  let plan = explain "DELETE FROM orders" in
  Alcotest.(check bool) "blind delete is a seq scan" true (contains plan "seq scan on orders");
  match Exec.explain_sql fx.catalog "SELECT * FROM nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown table should fail"

let test_scalar_subqueries () =
  let fx = make_fixture () in
  seed_three_tables fx;
  (* uncorrelated scalar subquery in WHERE *)
  check_rows "orders above the average qty" [ [ vi 101 ] ]
    (run fx
       "SELECT oid FROM orders WHERE qty > (SELECT AVG(qty) FROM orders) ORDER BY oid");
  (* scalar subquery as a projected value *)
  check_rows "total alongside each row"
    [ [ vi 100; vi 9 ]; [ vi 101; vi 9 ]; [ vi 102; vi 9 ] ]
    (run fx "SELECT oid, (SELECT SUM(qty) FROM orders) FROM orders ORDER BY oid");
  (* empty subquery is NULL *)
  check_rows "empty -> null" [ [ vnull ] ]
    (run fx "SELECT (SELECT qty FROM orders WHERE oid = 999)");
  (* subquery in INSERT VALUES *)
  ignore (run fx "CREATE TABLE snap (id INT PRIMARY KEY, total INT)");
  ignore (run fx "INSERT INTO snap VALUES (1, (SELECT SUM(qty) FROM orders))");
  check_rows "insert-select" [ [ vi 9 ] ] (run fx "SELECT total FROM snap WHERE id = 1")

let test_correlated_subqueries () =
  let fx = make_fixture () in
  seed_three_tables fx;
  (* per-customer order count, correlated on the outer row *)
  check_rows "correlated count"
    [ [ vt "ann"; vi 2 ]; [ vt "ben"; vi 1 ] ]
    (run fx
       "SELECT c.cname, (SELECT COUNT(*) FROM orders o WHERE o.cid = c.cid)         FROM customers c ORDER BY c.cname");
  (* correlated in WHERE: customers with more than one order *)
  check_rows "correlated filter" [ [ vt "ann" ] ]
    (run fx
       "SELECT c.cname FROM customers c WHERE         (SELECT COUNT(*) FROM orders o WHERE o.cid = c.cid) > 1");
  (* nested: customers whose max order qty beats every other customer's *)
  check_rows "nested subqueries" [ [ vt "ann" ] ]
    (run fx
       "SELECT c.cname FROM customers c WHERE         (SELECT MAX(qty) FROM orders o WHERE o.cid = c.cid) = (SELECT MAX(qty) FROM orders)")

let test_subquery_errors () =
  let fx = make_fixture () in
  seed_three_tables fx;
  (match run_err fx "SELECT (SELECT oid FROM orders)" with
  | Exec.Sql_error msg ->
      Alcotest.(check bool) "multi-row rejected" true (contains msg "more than one row")
  | _ -> Alcotest.fail "wrong error");
  match run_err fx "SELECT (SELECT oid, qty FROM orders WHERE oid = 100)" with
  | Exec.Sql_error msg ->
      Alcotest.(check bool) "multi-column rejected" true (contains msg "one column")
  | _ -> Alcotest.fail "wrong error"

let test_exists_and_in_subquery () =
  let fx = make_fixture () in
  seed_three_tables fx;
  (* customers with at least one order (EXISTS, correlated) *)
  check_rows "exists" [ [ vt "ann" ]; [ vt "ben" ] ]
    (run fx
       "SELECT c.cname FROM customers c WHERE EXISTS         (SELECT 1 FROM orders o WHERE o.cid = c.cid) ORDER BY c.cname");
  (* NOT EXISTS *)
  ignore (run fx "INSERT INTO customers VALUES (3, 'cat')");
  check_rows "not exists" [ [ vt "cat" ] ]
    (run fx
       "SELECT c.cname FROM customers c WHERE NOT EXISTS         (SELECT 1 FROM orders o WHERE o.cid = c.cid)");
  (* IN over a subquery column *)
  check_rows "in select" [ [ vt "bolt" ] ]
    (run fx
       "SELECT pname FROM products WHERE pid IN         (SELECT pid FROM orders WHERE qty <= 1)");
  (* NOT IN with the 3VL surprise avoided (no NULLs in the column) *)
  check_rows "not in select" [ [ vt "nut" ] ]
    (run fx
       "SELECT pname FROM products WHERE pid NOT IN         (SELECT pid FROM orders WHERE qty <= 1)")

let test_subqueries_in_dml () =
  let fx = make_fixture () in
  seed_three_tables fx;
  (* UPDATE with a correlated subquery in SET and an uncorrelated one in WHERE *)
  ignore (run fx "CREATE TABLE totals (cid INT PRIMARY KEY, total INT)");
  ignore (run fx "INSERT INTO totals VALUES (1, 0), (2, 0)");
  ignore
    (run fx
       "UPDATE totals SET total = (SELECT SUM(qty) FROM orders o WHERE o.cid = totals.cid)");
  check_rows "correlated SET" [ [ vi 1; vi 8 ]; [ vi 2; vi 1 ] ]
    (run fx "SELECT cid, total FROM totals ORDER BY cid");
  (* DELETE rows selected by a subquery *)
  ignore (run fx "DELETE FROM totals WHERE total < (SELECT MAX(total) FROM totals)");
  check_rows "subquery-driven DELETE" [ [ vi 1 ] ]
    (run fx "SELECT cid FROM totals ORDER BY cid")

let test_subquery_strict_mode () =
  let fx = make_fixture () in
  seed_three_tables fx;
  (* subquery scans obey the EO index-only restriction too *)
  let txn = fresh_txn fx in
  (match
     Exec.execute_sql fx.catalog txn ~mode:strict_mode
       "SELECT (SELECT COUNT(*) FROM orders WHERE qty > 2)"
   with
  | Error (Exec.Missing_index "orders") -> ()
  | Ok _ -> Alcotest.fail "unindexed subquery scan passed strict mode"
  | Error e -> Alcotest.failf "wrong error: %s" (Exec.error_to_string e));
  Manager.abort fx.mgr txn (Txn.Contract_error "done");
  (* indexed subquery access is fine *)
  let txn2 = fresh_txn fx in
  (match
     Exec.execute_sql fx.catalog txn2 ~mode:strict_mode
       "SELECT (SELECT qty FROM orders WHERE oid = 100)"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Exec.error_to_string e));
  Manager.abort fx.mgr txn2 (Txn.Contract_error "done")

let test_left_join_null_ordering () =
  let fx = make_fixture () in
  seed_three_tables fx;
  ignore (run fx "INSERT INTO customers VALUES (3, 'cat')");
  (* the null-extended row sorts first in the total order *)
  check_rows "nulls first ascending"
    [ [ vnull ]; [ vi 100 ]; [ vi 101 ]; [ vi 102 ] ]
    (run fx
       "SELECT o.oid FROM customers c LEFT JOIN orders o ON c.cid = o.cid ORDER BY o.oid")

let test_subquery_determinism_guard () =
  let rejected sql =
    match Brdb_contracts.Determinism.parse_program sql with
    | Error (`Nondeterministic _) -> true
    | Error (`Syntax e) -> Alcotest.failf "%S does not parse: %s" sql e
    | Ok _ -> false
  in
  Alcotest.(check bool) "random() in subquery rejected" true
    (rejected "SELECT (SELECT random()) FROM t");
  Alcotest.(check bool) "unordered LIMIT in subquery rejected" true
    (rejected "SELECT (SELECT a FROM t LIMIT 1) FROM u")

let suites =
  [
    ( "engine2.scalars",
      [
        Alcotest.test_case "numeric semantics" `Quick test_numeric_semantics;
        Alcotest.test_case "text functions" `Quick test_text_functions;
        Alcotest.test_case "boolean / IN semantics" `Quick test_boolean_and_in_semantics;
      ] );
    ( "engine2.plans",
      [
        Alcotest.test_case "three-way join" `Quick test_three_way_join;
        Alcotest.test_case "self join" `Quick test_self_join;
        Alcotest.test_case "left join" `Quick test_left_join;
        Alcotest.test_case "left join null ordering" `Quick test_left_join_null_ordering;
        Alcotest.test_case "group by keys + count distinct" `Quick
          test_group_by_multiple_keys_and_count_distinct;
        Alcotest.test_case "order directions + limit 0" `Quick
          test_order_by_mixed_directions_and_limit_zero;
        Alcotest.test_case "negative range scans" `Quick test_negative_range_scan;
        Alcotest.test_case "select distinct" `Quick test_select_distinct;
        Alcotest.test_case "having without group by" `Quick test_having_without_group_by;
        Alcotest.test_case "float aggregates" `Quick test_aggregates_over_floats;
        Alcotest.test_case "type conversions" `Quick test_conversions;
        Alcotest.test_case "explain" `Quick test_explain;
        Alcotest.test_case "scalar subqueries" `Quick test_scalar_subqueries;
        Alcotest.test_case "correlated subqueries" `Quick test_correlated_subqueries;
        Alcotest.test_case "subquery errors" `Quick test_subquery_errors;
        Alcotest.test_case "EXISTS / IN subquery" `Quick test_exists_and_in_subquery;
        Alcotest.test_case "subqueries in DML" `Quick test_subqueries_in_dml;
        Alcotest.test_case "subqueries in strict mode" `Quick test_subquery_strict_mode;
        Alcotest.test_case "subquery determinism" `Quick test_subquery_determinism_guard;
      ] );
    ( "engine2.constraints",
      [
        Alcotest.test_case "unique secondary index" `Quick test_unique_secondary_index;
        Alcotest.test_case "delete + reinsert same pk" `Quick test_delete_then_reinsert_same_pk;
        Alcotest.test_case "UPDATE sees old row" `Quick test_update_expression_uses_other_columns;
        Alcotest.test_case "params in ranges/sets" `Quick test_params_in_ranges_and_sets;
      ] );
  ]
