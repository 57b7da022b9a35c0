open Brdb_contracts
module Ast = Brdb_sql.Ast
module Value = Brdb_storage.Value
module Catalog = Brdb_storage.Catalog
module Manager = Brdb_txn.Manager
module Txn = Brdb_txn.Txn

(* ------------------------------------------------------------- procedural *)

let parse_ok src =
  match Procedural.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_procedural_parse () =
  let p =
    parse_ok
      "LET total = SELECT SUM(v) FROM kv WHERE k = $1;\n\
       REQUIRE :total > 0;\n\
       INSERT INTO out VALUES ($2, :total)"
  in
  (match p.Procedural.steps with
  | [ Procedural.Let ("total", Ast.Select _); Procedural.Require _; Procedural.Run (Ast.Insert _) ]
    -> ()
  | _ -> Alcotest.fail "wrong steps");
  (* trailing semicolons and whitespace are fine *)
  let p2 = parse_ok "SELECT 1;\n ;" in
  Alcotest.(check int) "one step" 1 (List.length p2.Procedural.steps)

let test_procedural_parse_errors () =
  let err src =
    match Procedural.parse src with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" src
    | Error _ -> ()
  in
  err "";
  err "LET = SELECT 1";
  err "LET x INSERT INTO t VALUES (1)";
  err "LET x = INSERT INTO t VALUES (1)";
  err "REQUIRE ";
  err "NOT SQL AT ALL ###"

let test_procedural_semicolon_in_string () =
  let p = parse_ok "INSERT INTO t VALUES ('a;b')" in
  Alcotest.(check int) "one step" 1 (List.length p.Procedural.steps)

(* run a procedural contract against a tiny database *)
let run_fixture src args =
  let catalog = Catalog.create () in
  let mgr = Manager.create catalog in
  let boot =
    match Manager.begin_txn mgr ~global_id:"boot" ~client:"sys" ~snapshot_height:(-1) () with
    | Ok t -> t
    | Error _ -> assert false
  in
  List.iter
    (fun sql ->
      match Brdb_engine.Exec.execute_sql catalog boot sql with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Brdb_engine.Exec.error_to_string e))
    [
      "CREATE TABLE kv (k INT PRIMARY KEY, v INT)";
      "INSERT INTO kv VALUES (1, 10), (2, 20)";
      "CREATE TABLE out (id INT PRIMARY KEY, total INT)";
    ];
  Manager.commit mgr boot ~height:0;
  let txn =
    match Manager.begin_txn mgr ~global_id:"t1" ~client:"org1/alice" ~snapshot_height:0 () with
    | Ok t -> t
    | Error _ -> assert false
  in
  let ctx = Api.make ~catalog ~txn ~args () in
  let result =
    match Procedural.run (parse_ok src) ctx with
    | () -> Ok ()
    | exception Api.Failed e -> Error (Brdb_engine.Exec.error_to_string e)
  in
  (result, catalog, mgr, txn)

let test_procedural_run_let_and_insert () =
  let result, catalog, mgr, txn =
    run_fixture
      "LET total = SELECT SUM(v) FROM kv WHERE k BETWEEN 1 AND 2;\n\
       REQUIRE :total = 30;\n\
       INSERT INTO out VALUES ($1, :total)"
      [| Value.Int 7 |]
  in
  (match result with Ok () -> () | Error e -> Alcotest.fail e);
  Manager.commit mgr txn ~height:1;
  let check =
    match Manager.begin_txn mgr ~global_id:"q" ~client:"r" ~snapshot_height:1 () with
    | Ok t -> t
    | Error _ -> assert false
  in
  match Brdb_engine.Exec.execute_sql catalog check "SELECT total FROM out WHERE id = 7" with
  | Ok rs -> (
      match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Int 30 |] ] -> ()
      | _ -> Alcotest.fail "wrong result")
  | Error e -> Alcotest.fail (Brdb_engine.Exec.error_to_string e)

let test_procedural_require_fails () =
  let result, _, _, _ =
    run_fixture "LET total = SELECT SUM(v) FROM kv WHERE k = 1;\nREQUIRE :total > 100" [||]
  in
  match result with
  | Error msg -> Alcotest.(check bool) "mentions requirement" true
      (String.length msg >= 11 && String.sub msg 0 11 = "requirement")
  | Ok () -> Alcotest.fail "expected failure"

let test_procedural_let_empty_result_is_null () =
  let result, _, _, _ =
    run_fixture
      "LET x = SELECT v FROM kv WHERE k = 999;\nREQUIRE :x IS NULL;\nINSERT INTO out VALUES (1, 0)"
      [||]
  in
  match result with Ok () -> () | Error e -> Alcotest.fail e

let test_procedural_if_then_else () =
  (* upsert-style: update if present, insert otherwise *)
  let src =
    "LET existing = SELECT v FROM kv WHERE k = $1;\n\
     IF :existing IS NULL THEN INSERT INTO kv VALUES ($1, $2) \
     ELSE UPDATE kv SET v = v + $2 WHERE k = $1"
  in
  (* k=1 exists with v=10: the ELSE branch adds *)
  let result, catalog, mgr, txn = run_fixture src [| Value.Int 1; Value.Int 5 |] in
  (match result with Ok () -> () | Error e -> Alcotest.fail e);
  Manager.commit mgr txn ~height:1;
  let probe =
    match Manager.begin_txn mgr ~global_id:"probe" ~client:"r" ~snapshot_height:1 () with
    | Ok t -> t
    | Error _ -> assert false
  in
  (match Brdb_engine.Exec.execute_sql catalog probe "SELECT v FROM kv WHERE k = 1" with
  | Ok rs -> (
      match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Int 15 |] ] -> ()
      | _ -> Alcotest.fail "ELSE branch did not run")
  | Error e -> Alcotest.fail (Brdb_engine.Exec.error_to_string e));
  (* k=77 missing: the THEN branch inserts *)
  let result2, catalog2, mgr2, txn2 = run_fixture src [| Value.Int 77; Value.Int 9 |] in
  (match result2 with Ok () -> () | Error e -> Alcotest.fail e);
  Manager.commit mgr2 txn2 ~height:1;
  let probe2 =
    match Manager.begin_txn mgr2 ~global_id:"probe2" ~client:"r" ~snapshot_height:1 () with
    | Ok t -> t
    | Error _ -> assert false
  in
  match Brdb_engine.Exec.execute_sql catalog2 probe2 "SELECT v FROM kv WHERE k = 77" with
  | Ok rs -> (
      match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Int 9 |] ] -> ()
      | _ -> Alcotest.fail "THEN branch did not run")
  | Error e -> Alcotest.fail (Brdb_engine.Exec.error_to_string e)

let test_procedural_if_nested_and_errors () =
  (* nested IF in the ELSE branch *)
  (match
     Procedural.parse
       "IF $1 > 0 THEN REQUIRE $1 < 10 ELSE IF $1 < -5 THEN REQUIRE FALSE ELSE REQUIRE TRUE"
   with
  | Ok p -> Alcotest.(check int) "one step" 1 (List.length p.Procedural.steps)
  | Error e -> Alcotest.fail e);
  (match Procedural.parse "IF $1 > 0 INSERT INTO t VALUES (1)" with
  | Ok _ -> Alcotest.fail "missing THEN accepted"
  | Error _ -> ());
  (* determinism guard reaches inside branches *)
  match Procedural.parse "IF $1 > 0 THEN INSERT INTO t VALUES (random())" with
  | Error e -> Alcotest.fail e
  | Ok p -> (
      match Determinism.check_program p with
      | Ok () -> Alcotest.fail "nondeterministic THEN branch passed"
      | Error _ -> ())

(* ------------------------------------------------------------ determinism *)

(* The guard over a one-statement contract; a parse failure is a test
   bug, not a rejection. *)
let check_stmt sql =
  match Determinism.parse_program sql with
  | Ok _ -> Ok ()
  | Error (`Nondeterministic e) -> Error e
  | Error (`Syntax e) -> Alcotest.failf "%S does not parse: %s" sql e

let test_determinism_rejects_functions () =
  let bad sql =
    match check_stmt sql with
    | Ok () -> Alcotest.failf "%S passed the guard" sql
    | Error _ -> ()
  in
  bad "INSERT INTO t VALUES (random())";
  bad "SELECT now() FROM t";
  bad "UPDATE t SET a = nextval('s')";
  bad "DELETE FROM t WHERE ts < current_timestamp()"

let test_determinism_rejects_unordered_limit () =
  (match check_stmt "SELECT a FROM t LIMIT 5" with
  | Ok () -> Alcotest.fail "LIMIT without ORDER BY passed"
  | Error _ -> ());
  match check_stmt "SELECT a FROM t ORDER BY a LIMIT 5" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_determinism_rejects_row_headers () =
  (match check_stmt "SELECT a FROM t WHERE xmin = 3" with
  | Ok () -> Alcotest.fail "xmin in WHERE passed"
  | Error _ -> ());
  (* allowed in provenance queries *)
  match check_stmt "PROVENANCE SELECT a FROM t WHERE deleter IS NULL" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_determinism_checks_program () =
  match Procedural.parse "LET x = SELECT random();\nINSERT INTO t VALUES (:x)" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p -> (
      match Determinism.check_program p with
      | Ok () -> Alcotest.fail "nondeterministic program passed"
      | Error _ -> ())

(* --------------------------------------------------------------- registry *)

let test_registry_versions () =
  let r = Registry.create () in
  let v1 = Registry.deploy r ~name:"c" (Registry.Native (fun _ -> ())) in
  let v2 = Registry.deploy r ~name:"c" (Registry.Native (fun _ -> ())) in
  Alcotest.(check bool) "version bumped" true (v2 > v1);
  (match Registry.find r "c" with
  | Some c -> Alcotest.(check int) "latest" v2 c.Registry.version
  | None -> Alcotest.fail "missing");
  (match Registry.drop r ~name:"c" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "gone" true (Registry.find r "c" = None);
  match Registry.drop r ~name:"c" with
  | Ok () -> Alcotest.fail "double drop"
  | Error _ -> ()

let test_registry_deploy_source_guards () =
  let r = Registry.create () in
  let deploy_source ~name source =
    Result.map
      (fun p -> Registry.deploy r ~name (Registry.Procedural p))
      (Determinism.parse_program source)
  in
  (match deploy_source ~name:"good" "INSERT INTO t VALUES ($1)" with
  | Ok _ -> ()
  | Error (`Syntax e | `Nondeterministic e) -> Alcotest.fail e);
  (match deploy_source ~name:"bad" "INSERT INTO t VALUES (random())" with
  | Ok _ -> Alcotest.fail "nondeterministic contract deployed"
  | Error _ -> ());
  Alcotest.(check bool) "only the checked contract installed" true
    (Registry.find r "good" <> None && Registry.find r "bad" = None)

let test_admin_org () =
  Alcotest.(check (option string)) "admin" (Some "org1") (System.admin_org "org1/admin");
  Alcotest.(check (option string)) "user" None (System.admin_org "org1/alice");
  Alcotest.(check (option string)) "plain" None (System.admin_org "admin")

let suites =
  [
    ( "contracts.procedural",
      [
        Alcotest.test_case "parse" `Quick test_procedural_parse;
        Alcotest.test_case "parse errors" `Quick test_procedural_parse_errors;
        Alcotest.test_case "semicolon in string" `Quick test_procedural_semicolon_in_string;
        Alcotest.test_case "LET + INSERT" `Quick test_procedural_run_let_and_insert;
        Alcotest.test_case "REQUIRE fails" `Quick test_procedural_require_fails;
        Alcotest.test_case "empty LET is NULL" `Quick test_procedural_let_empty_result_is_null;
        Alcotest.test_case "IF/THEN/ELSE" `Quick test_procedural_if_then_else;
        Alcotest.test_case "IF nesting + errors" `Quick test_procedural_if_nested_and_errors;
      ] );
    ( "contracts.determinism",
      [
        Alcotest.test_case "forbidden functions" `Quick test_determinism_rejects_functions;
        Alcotest.test_case "LIMIT needs ORDER BY" `Quick test_determinism_rejects_unordered_limit;
        Alcotest.test_case "row headers" `Quick test_determinism_rejects_row_headers;
        Alcotest.test_case "program check" `Quick test_determinism_checks_program;
      ] );
    ( "contracts.registry",
      [
        Alcotest.test_case "versions" `Quick test_registry_versions;
        Alcotest.test_case "deploy_source guards" `Quick test_registry_deploy_source_guards;
        Alcotest.test_case "admin_org" `Quick test_admin_org;
      ] );
  ]
