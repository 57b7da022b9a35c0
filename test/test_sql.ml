open Brdb_sql

let parse_ok s =
  match Parser.parse s with
  | Ok stmt -> stmt
  | Error msg -> Alcotest.failf "parse of %S failed: %s" s msg

let parse_err s =
  match Parser.parse s with
  | Ok stmt -> Alcotest.failf "parse of %S unexpectedly succeeded: %s" s (Ast.stmt_to_string stmt)
  | Error msg -> msg

let check_roundtrip s expected =
  Alcotest.(check string) s expected (Ast.stmt_to_string (parse_ok s))

let test_select_basic () =
  check_roundtrip "SELECT * FROM t" "SELECT * FROM t";
  check_roundtrip "select a, b from t where a = 1"
    "SELECT a, b FROM t WHERE (a = 1)";
  check_roundtrip "SELECT a AS x FROM t" "SELECT a AS x FROM t";
  check_roundtrip "SELECT DISTINCT a FROM t" "SELECT DISTINCT a FROM t";
  check_roundtrip "SELECT t.a FROM t" "SELECT t.a FROM t";
  check_roundtrip "SELECT (SELECT MAX(a) FROM u) FROM t"
    "SELECT (SELECT MAX(a) FROM u) FROM t";
  check_roundtrip "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)"
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)";
  check_roundtrip "SELECT a FROM t WHERE a IN (SELECT b FROM u)"
    "SELECT a FROM t WHERE (a IN (SELECT b FROM u))"

let test_select_join () =
  check_roundtrip
    "SELECT a.x, b.y FROM ta AS a JOIN tb AS b ON a.id = b.id WHERE a.x > 3"
    "SELECT a.x, b.y FROM ta AS a JOIN tb AS b ON (a.id = b.id) WHERE (a.x > 3)";
  (* bare alias without AS, INNER JOIN synonym *)
  check_roundtrip "SELECT a.x FROM ta a INNER JOIN tb b ON a.id = b.id"
    "SELECT a.x FROM ta AS a JOIN tb AS b ON (a.id = b.id)";
  check_roundtrip "SELECT a.x FROM ta a LEFT JOIN tb b ON a.id = b.id"
    "SELECT a.x FROM ta AS a LEFT JOIN tb AS b ON (a.id = b.id)";
  check_roundtrip "SELECT a.x FROM ta a LEFT OUTER JOIN tb b ON a.id = b.id"
    "SELECT a.x FROM ta AS a LEFT JOIN tb AS b ON (a.id = b.id)"

let test_select_group_order_limit () =
  check_roundtrip
    "SELECT dept, SUM(sal) FROM emp GROUP BY dept HAVING SUM(sal) > 100 ORDER BY dept DESC LIMIT 5"
    "SELECT dept, SUM(sal) FROM emp GROUP BY dept HAVING (SUM(sal) > 100) ORDER BY dept DESC LIMIT 5";
  check_roundtrip "SELECT COUNT(*) FROM t" "SELECT COUNT(*) FROM t";
  check_roundtrip "SELECT AVG(x), MIN(x), MAX(x), COUNT(x) FROM t"
    "SELECT AVG(x), MIN(x), MAX(x), COUNT(x) FROM t"

let test_select_no_from () =
  check_roundtrip "SELECT 1 + 2 * 3" "SELECT (1 + (2 * 3))"

let test_provenance_select () =
  match parse_ok "PROVENANCE SELECT * FROM invoices WHERE id = 7" with
  | Ast.Select s -> Alcotest.(check bool) "provenance flag" true s.Ast.provenance
  | _ -> Alcotest.fail "expected select"

let test_insert () =
  check_roundtrip "INSERT INTO t (a, b) VALUES (1, 'x')"
    "INSERT INTO t (a, b) VALUES (1, 'x')";
  check_roundtrip "INSERT INTO t VALUES (1, 2), (3, 4)"
    "INSERT INTO t VALUES (1, 2), (3, 4)";
  check_roundtrip "INSERT INTO t VALUES ($1, $2)" "INSERT INTO t VALUES ($1, $2)"

let test_update_delete () =
  check_roundtrip "UPDATE t SET a = a + 1, b = 'z' WHERE id = $1"
    "UPDATE t SET a = (a + 1), b = 'z' WHERE (id = $1)";
  check_roundtrip "UPDATE t SET a = 0" "UPDATE t SET a = 0";
  check_roundtrip "DELETE FROM t WHERE a < 10" "DELETE FROM t WHERE (a < 10)";
  check_roundtrip "DELETE FROM t" "DELETE FROM t"

let test_create_table () =
  check_roundtrip
    "CREATE TABLE inv (id INT PRIMARY KEY, qty INTEGER NOT NULL, name TEXT, price FLOAT, ok BOOL)"
    "CREATE TABLE inv (id INT PRIMARY KEY, qty INT NOT NULL, name TEXT, price FLOAT, ok BOOL)";
  check_roundtrip "CREATE TABLE IF NOT EXISTS t (a INT)"
    "CREATE TABLE IF NOT EXISTS t (a INT)";
  (* VARCHAR(n) length is accepted and ignored *)
  check_roundtrip "CREATE TABLE t (s VARCHAR(32))" "CREATE TABLE t (s TEXT)"

let test_create_index_drop () =
  check_roundtrip "CREATE INDEX idx ON t (a)" "CREATE INDEX idx ON t (a)";
  check_roundtrip "CREATE UNIQUE INDEX idx ON t (a)" "CREATE UNIQUE INDEX idx ON t (a)";
  check_roundtrip "DROP TABLE t" "DROP TABLE t";
  check_roundtrip "DROP TABLE IF EXISTS t" "DROP TABLE IF EXISTS t"

let test_expr_precedence () =
  let e s = match Parser.parse_expr s with Ok e -> Ast.expr_to_string e | Error m -> Alcotest.fail m in
  Alcotest.(check string) "mul over add" "(1 + (2 * 3))" (e "1 + 2 * 3");
  Alcotest.(check string) "and over or" "(a OR (b AND c))" (e "a OR b AND c");
  Alcotest.(check string) "cmp over and" "((a = 1) AND (b = 2))" (e "a = 1 AND b = 2");
  Alcotest.(check string) "unary minus" "((-1) + 2)" (e "-1 + 2");
  Alcotest.(check string) "not" "(NOT (a = 1))" (e "NOT a = 1");
  Alcotest.(check string) "parens" "((1 + 2) * 3)" (e "(1 + 2) * 3");
  Alcotest.(check string) "mod" "(a % 2)" (e "a % 2");
  Alcotest.(check string) "concat" "(a || b)" (e "a || b")

let test_expr_predicates () =
  let e s = match Parser.parse_expr s with Ok e -> Ast.expr_to_string e | Error m -> Alcotest.fail m in
  Alcotest.(check string) "between" "(x BETWEEN 1 AND 10)" (e "x BETWEEN 1 AND 10");
  Alcotest.(check string) "not between" "(NOT (x BETWEEN 1 AND 10))" (e "x NOT BETWEEN 1 AND 10");
  Alcotest.(check string) "in" "(x IN (1, 2, 3))" (e "x IN (1, 2, 3)");
  Alcotest.(check string) "not in" "(NOT (x IN (1, 2)))" (e "x NOT IN (1, 2)");
  Alcotest.(check string) "is null" "(x IS NULL)" (e "x IS NULL");
  Alcotest.(check string) "is not null" "(x IS NOT NULL)" (e "x IS NOT NULL")

let test_string_literals () =
  let e s = match Parser.parse_expr s with Ok e -> e | Error m -> Alcotest.fail m in
  (match e "'it''s'" with
  | Ast.Lit (Ast.L_text s) -> Alcotest.(check string) "escaped quote" "it's" s
  | _ -> Alcotest.fail "expected text literal");
  match e "''" with
  | Ast.Lit (Ast.L_text s) -> Alcotest.(check string) "empty" "" s
  | _ -> Alcotest.fail "expected text literal"

let test_comments_and_whitespace () =
  check_roundtrip "SELECT a -- trailing comment\nFROM t" "SELECT a FROM t";
  check_roundtrip "  SELECT\n\t a\nFROM\tt  ;" "SELECT a FROM t"

let test_parse_errors () =
  let has_msg s = String.length (parse_err s) > 0 in
  List.iter
    (fun s -> Alcotest.(check bool) ("error for " ^ s) true (has_msg s))
    [
      "SELECT";
      "SELECT FROM t";
      "INSERT t VALUES (1)";
      "CREATE TABLE t";
      "CREATE TABLE t (a BLOB)";
      "SELECT * FROM t WHERE";
      "SELECT * FROM t LIMIT x";
      "UPDATE t";
      "SELECT * FROM t extra garbage +";
      "SELECT 'unterminated";
      "SELECT $";
      "SELECT #";
      "CREATE UNIQUE TABLE t (a INT)";
    ]

(* Integer literals and parameter numbers past [max_int] are lex errors,
   not an escaping [Failure]. *)
let test_int_out_of_range () =
  ignore (parse_ok (Printf.sprintf "SELECT %d" max_int));
  List.iter
    (fun s ->
      Alcotest.(check string) s "lex error: integer literal out of range at 7"
        (parse_err s))
    [ "SELECT 4611686018427387904"; "SELECT $99999999999999999999" ]

let test_reparse_printed () =
  (* Printing then reparsing is a fixpoint. *)
  List.iter
    (fun s ->
      let printed = Ast.stmt_to_string (parse_ok s) in
      let reprinted = Ast.stmt_to_string (parse_ok printed) in
      Alcotest.(check string) ("fixpoint: " ^ s) printed reprinted)
    [
      "SELECT a, SUM(b * 2) AS total FROM t JOIN u ON t.id = u.id WHERE t.x BETWEEN 1 AND 9 GROUP BY a HAVING COUNT(*) > 1 ORDER BY a LIMIT 3";
      "INSERT INTO t (a) VALUES ('it''s'), (NULL)";
      "UPDATE t SET a = -b WHERE c IN (1, 2) OR d IS NULL";
    ]

let gen_ident = QCheck.Gen.(oneofl [ "a"; "b"; "c"; "tbl"; "col_1" ])

let gen_expr =
  (* Small random expressions; checks printer/parser agreement. *)
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              map (fun i -> Ast.Lit (Ast.L_int i)) small_int;
              map (fun s -> Ast.Lit (Ast.L_text s)) (oneofl [ "x"; "it's"; "" ]);
              map (fun c -> Ast.Col (None, c)) gen_ident;
              return (Ast.Lit Ast.L_null);
            ]
        else
          oneof
            [
              map2
                (fun op (a, b) -> Ast.Binop (op, a, b))
                (oneofl Ast.[ Add; Sub; Mul; Eq; Lt; And; Or ])
                (pair (self (n / 2)) (self (n / 2)));
              map (fun a -> Ast.Unop (Ast.Not, a)) (self (n - 1));
              map (fun a -> Ast.Is_null (a, true)) (self (n - 1));
            ]))

let prop_expr_print_parse =
  QCheck.Test.make ~name:"expr print/parse roundtrip" ~count:300
    (QCheck.make ~print:Ast.expr_to_string gen_expr)
    (fun e ->
      match Parser.parse_expr (Ast.expr_to_string e) with
      | Ok e' -> Ast.expr_to_string e' = Ast.expr_to_string e
      | Error _ -> false)

let suites =
  [
    ( "sql.parser",
      [
        Alcotest.test_case "select basic" `Quick test_select_basic;
        Alcotest.test_case "select join" `Quick test_select_join;
        Alcotest.test_case "group/order/limit" `Quick test_select_group_order_limit;
        Alcotest.test_case "select without FROM" `Quick test_select_no_from;
        Alcotest.test_case "provenance select" `Quick test_provenance_select;
        Alcotest.test_case "insert" `Quick test_insert;
        Alcotest.test_case "update/delete" `Quick test_update_delete;
        Alcotest.test_case "create table" `Quick test_create_table;
        Alcotest.test_case "create index / drop" `Quick test_create_index_drop;
        Alcotest.test_case "precedence" `Quick test_expr_precedence;
        Alcotest.test_case "predicates" `Quick test_expr_predicates;
        Alcotest.test_case "string literals" `Quick test_string_literals;
        Alcotest.test_case "comments/whitespace" `Quick test_comments_and_whitespace;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "integer out of range" `Quick test_int_out_of_range;
        Alcotest.test_case "print fixpoint" `Quick test_reparse_printed;
        QCheck_alcotest.to_alcotest prop_expr_print_parse;
      ] );
  ]
