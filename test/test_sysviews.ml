(* The SQL-queryable introspection layer (DESIGN.md §10): sys.* virtual
   tables, EXPLAIN ANALYZE, and the online divergence monitor. *)

module B = Brdb_core.Blockchain_db
module Chaos = Brdb_core.Chaos
module Value = Brdb_storage.Value
module Catalog = Brdb_storage.Catalog
module Node_core = Brdb_node.Node_core
module Peer = Brdb_node.Peer
module Exec = Brdb_engine.Exec
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api
module Reg = Brdb_obs.Registry

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let init_net ?(seed = 42) ?(tracing = false) ?(block_size = 10) () =
  let config =
    {
      (B.default_config ()) with
      B.seed;
      tracing;
      block_size;
      block_timeout = 0.25;
    }
  in
  let net = B.create config in
  B.install_contract net ~name:"init"
    (Registry.Native
       (fun ctx ->
         ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")));
  (match
     B.install_contract_source net ~name:"put" "INSERT INTO kv VALUES ($1, $2)"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let admin = B.admin net "org1" in
  let id = B.submit net ~user:admin ~contract:"init" ~args:[] in
  B.settle net;
  (match B.status net id with
  | Some B.Committed -> ()
  | _ -> Alcotest.fail "init did not commit");
  net

let query_ok net ?node sql =
  match B.query net ?node sql with
  | Ok rs -> rs
  | Error e -> Alcotest.failf "%s failed: %s" sql e

let render (rs : Exec.result_set) =
  String.concat ","  rs.Exec.columns
  ^ "\n"
  ^ String.concat "\n"
      (List.map
         (fun row ->
           String.concat "|" (Array.to_list (Array.map Value.encode row)))
         rs.Exec.rows)

(* A workload with guaranteed conflicts: keys collide, so some
   transactions abort with a Table-2 class. *)
let conflicting_workload ?(n = 12) net =
  let u = B.register_user net "sys/alice" in
  for i = 1 to n do
    ignore
      (B.submit net ~user:u ~contract:"put"
         ~args:[ Value.Int (1 + (i mod 4)); Value.Int i ])
  done;
  B.settle net

(* --- view contents ------------------------------------------------------- *)

let test_views_populated () =
  let net = init_net () in
  conflicting_workload net;
  let blocks = query_ok net "SELECT height, txs, committime FROM sys.blocks" in
  Alcotest.(check bool) "at least two blocks" true (List.length blocks.Exec.rows >= 2);
  List.iter
    (fun row ->
      match row with
      | [| Value.Int h; Value.Int txs; Value.Int ct |] ->
          Alcotest.(check bool) "positive height" true (h >= 1);
          Alcotest.(check bool) "has txs" true (txs >= 1);
          Alcotest.(check int) "committime = height (pgledger convention)" h ct
      | _ -> Alcotest.fail "bad sys.blocks row")
    blocks.Exec.rows;
  let txs =
    query_ok net "SELECT gid, decision FROM sys.transactions WHERE decision = 'aborted'"
  in
  Alcotest.(check bool) "conflicting workload aborted something" true
    (txs.Exec.rows <> []);
  (* sys.aborts totals must equal the per-transaction abort rows. *)
  let aborts =
    match (query_ok net "SELECT SUM(n) FROM sys.aborts").Exec.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "bad sys.aborts sum"
  in
  Alcotest.(check int) "sys.aborts matches sys.transactions"
    (List.length txs.Exec.rows) aborts;
  (* The views join with ordinary tables like any other relation. *)
  let joined =
    query_ok net
      "SELECT t.gid FROM sys.transactions t JOIN sys.blocks b ON t.block = \
       b.height WHERE t.decision = 'committed'"
  in
  Alcotest.(check bool) "sys views join" true (joined.Exec.rows <> []);
  let tables = query_ok net "SELECT name, live FROM sys.tables WHERE name = 'kv'" in
  (match tables.Exec.rows with
  | [ [| Value.Text _; Value.Int live |] ] ->
      Alcotest.(check int) "kv live rows" 4 live
  | _ -> Alcotest.fail "kv missing from sys.tables");
  match (query_ok net "SELECT node, height FROM sys.nodes").Exec.rows with
  | rows when List.length rows = 3 -> ()
  | _ -> Alcotest.fail "sys.nodes should list all three peers"

let test_views_read_only () =
  let net = init_net () in
  conflicting_workload net;
  let expect_reject sql =
    match B.query net sql with
    | Ok _ -> Alcotest.failf "%s should have been rejected" sql
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s rejected as read-only (got: %s)" sql e)
          true
          (e = "sys.* tables are read-only"
          || e = "read-only queries cannot modify state")
  in
  expect_reject "INSERT INTO sys.blocks VALUES (99, 1, 'x', 'y', 99, 'z')";
  expect_reject "UPDATE sys.aborts SET n = 0 WHERE class = 'uniqueness'";
  expect_reject "DELETE FROM sys.transactions WHERE block = 1";
  expect_reject "INSERT INTO sys.spans VALUES ('x', 0, 1, 0.0, 0.0)";
  expect_reject "UPDATE sys.critical_path SET headroom = 99.0 WHERE height = 1";
  expect_reject "DELETE FROM sys.critical_path WHERE height = 1";
  expect_reject "DROP TABLE sys.blocks";
  expect_reject "CREATE TABLE sys.mine (a INT PRIMARY KEY)";
  expect_reject "CREATE UNIQUE INDEX sys_idx ON sys.blocks (height)";
  (* Catalog-level guard, independent of the executor. *)
  let catalog = Catalog.create () in
  (match
     Brdb_storage.Schema.create ~name:"sys.rogue"
       ~columns:
         [
           {
             Brdb_storage.Schema.name = "a";
             ty = Brdb_sql.Ast.T_int;
             not_null = false;
             primary_key = true;
           };
         ]
   with
  | Error e -> Alcotest.fail e
  | Ok schema -> (
      match Catalog.create_table catalog schema with
      | Ok _ -> Alcotest.fail "catalog accepted a sys.* base table"
      | Error e ->
          Alcotest.(check string) "catalog guard" "sys.* tables are read-only" e));
  (* PROVENANCE over a virtual table is a plain read, not a crash:
     materialized rows carry a synthetic creator block. *)
  let rs = query_ok net "PROVENANCE SELECT height FROM sys.blocks WHERE height = 1" in
  Alcotest.(check int) "provenance no-op on sys views" 1 (List.length rs.Exec.rows);
  let rs =
    query_ok net "PROVENANCE SELECT height FROM sys.critical_path WHERE height = 1"
  in
  Alcotest.(check int) "provenance no-op on sys.critical_path" 1
    (List.length rs.Exec.rows)

let test_contracts_cannot_read_sys () =
  let net = init_net () in
  (match
     B.install_contract_source net ~name:"spy" "SELECT n FROM sys.aborts"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* the profiling views obey the same visibility rule: a contract that
     could read sys.critical_path would make commit decisions depend on
     node-local instrumentation *)
  (match
     B.install_contract_source net ~name:"spy_profile"
       "SELECT headroom FROM sys.critical_path"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let u = B.register_user net "sys/mallory" in
  let check_spy contract =
    let id = B.submit net ~user:u ~contract ~args:[] in
    B.settle net;
    match B.status net id with
    | Some (B.Aborted reason) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s abort mentions contract restriction (got: %s)"
             contract reason)
          true
          (contains reason "not readable from contracts")
    | s ->
        Alcotest.failf "contract %s reading sys.* should abort, got %s" contract
          (match s with
          | Some B.Committed -> "committed"
          | Some (B.Rejected r) -> "rejected: " ^ r
          | None -> "undecided"
          | Some (B.Aborted _) -> assert false)
  in
  check_spy "spy";
  check_spy "spy_profile"

(* --- determinism: byte-identical across nodes ----------------------------- *)

let test_views_byte_identical_across_nodes () =
  let net = init_net ~seed:7 () in
  conflicting_workload net;
  List.iter
    (fun sql ->
      let reference = render (query_ok net ~node:0 sql) in
      List.iter
        (fun node ->
          Alcotest.(check string)
            (Printf.sprintf "%s identical on node %d" sql node)
            reference
            (render (query_ok net ~node sql)))
        [ 1; 2 ])
    [
      "SELECT * FROM sys.blocks";
      "SELECT * FROM sys.transactions";
      "SELECT * FROM sys.aborts";
      "SELECT * FROM sys.tables";
      "SELECT * FROM sys.indexes";
      (* the dependency graph is replicated SSI metadata, so the per-block
         critical path is consensus-deterministic too *)
      "SELECT * FROM sys.critical_path";
    ]

(* --- profiling views (ISSUE 7) -------------------------------------------- *)

let test_profiling_views () =
  let net = init_net ~tracing:true () in
  conflicting_workload net;
  (* inserts neither read nor claim versions, so they carry no dependency
     edges; colliding UPDATEs do (rw antidependencies + first-updater-wins
     claims on the overwritten version) *)
  (match
     B.install_contract_source net ~name:"bump"
       "UPDATE kv SET v = $2 WHERE k = $1"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let u = B.register_user net "sys/update" in
  for i = 1 to 8 do
    ignore
      (B.submit net ~user:u ~contract:"bump"
         ~args:[ Value.Int 1; Value.Int (100 + i) ])
  done;
  B.settle net;
  (* sys.critical_path: one row per block, headroom = serial / critical,
     critical never exceeds serial, wave count at least 1 *)
  let cp =
    query_ok net
      "SELECT height, txs, edges, serial_ms, critical_ms, headroom, waves \
       FROM sys.critical_path"
  in
  Alcotest.(check bool) "critical path rows" true (cp.Exec.rows <> []);
  List.iter
    (fun row ->
      match row with
      | [| Value.Int h; Value.Int txs; Value.Int edges; Value.Float serial;
           Value.Float critical; Value.Float headroom; Value.Int waves |] ->
          Alcotest.(check bool) "height >= 1" true (h >= 1);
          Alcotest.(check bool) "txs >= 1" true (txs >= 1);
          Alcotest.(check bool) "edges >= 0" true (edges >= 0);
          Alcotest.(check bool) "critical <= serial" true
            (critical <= serial +. 1e-9);
          Alcotest.(check bool) "headroom >= 1" true (headroom >= 1.0 -. 1e-9);
          Alcotest.(check bool) "waves in [1, txs]" true
            (waves >= 1 && waves <= txs)
      | _ -> Alcotest.fail "bad sys.critical_path row")
    cp.Exec.rows;
  (* the conflicting workload serializes colliding keys: at least one block
     must carry dependency edges and more than one execution wave *)
  Alcotest.(check bool) "some block has dependency edges" true
    (List.exists
       (fun row ->
         match row with [| _; _; Value.Int e; _; _; _; _ |] -> e > 0 | _ -> false)
       cp.Exec.rows);
  (* sys.spans: flame-style aggregate of the node's span tree *)
  let spans =
    query_ok net "SELECT path, depth, events, total_ms, self_ms FROM sys.spans"
  in
  Alcotest.(check bool) "span rows" true (spans.Exec.rows <> []);
  List.iter
    (fun row ->
      match row with
      | [| Value.Text path; Value.Int depth; Value.Int events;
           Value.Float total; Value.Float self |] ->
          Alcotest.(check bool) "path non-empty" true (path <> "");
          Alcotest.(check bool) "events >= 1" true (events >= 1);
          Alcotest.(check bool) "self within total" true
            (self >= 0. && self <= total +. 1e-9);
          (* depth = number of ';'-separated path segments - 1 *)
          let segs =
            List.length (String.split_on_char ';' path)
          in
          Alcotest.(check int) (path ^ " depth matches path") (segs - 1) depth
      | _ -> Alcotest.fail "bad sys.spans row")
    spans.Exec.rows;
  let paths =
    List.filter_map
      (fun row ->
        match row with [| Value.Text p; _; _; _; _ |] -> Some p | _ -> None)
      spans.Exec.rows
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("sys.spans has " ^ expected) true
        (List.mem expected paths))
    [ "order"; "order;block"; "order;block;exec"; "order;block;commit" ];
  (* with tracing disabled the view stays queryable and empty — no stale
     instrumentation leaks into a quiet deployment *)
  let quiet = init_net ~tracing:false () in
  conflicting_workload quiet;
  Alcotest.(check int) "sys.spans empty when tracing off" 0
    (List.length (query_ok quiet "SELECT * FROM sys.spans").Exec.rows);
  Alcotest.(check bool) "sys.critical_path populated even when tracing off"
    true
    ((query_ok quiet "SELECT * FROM sys.critical_path").Exec.rows <> [])

(* --- EXPLAIN ANALYZE ------------------------------------------------------ *)

let test_explain_analyze_annotates_and_is_neutral () =
  let net = init_net ~tracing:true () in
  conflicting_workload net;
  let core = Peer.core (B.peer net 0) in
  let snapshot () =
    let reg_entries = Reg.snapshot (Brdb_obs.Obs.metrics (B.obs net)) in
    let totals = Exec.scan_counts (Node_core.exec_totals core) in
    let pending = Brdb_txn.Manager.pending_count (Node_core.manager core) in
    let next_txid = Brdb_txn.Manager.next_txid (Node_core.manager core) in
    let versions =
      List.filter_map
        (fun name ->
          Option.map
            (fun t -> (name, Brdb_storage.Table.version_count t))
            (Catalog.find (Node_core.catalog core) name))
        (Catalog.table_names (Node_core.catalog core))
    in
    let digest = Node_core.state_digest core ~height:(Node_core.height core) in
    let traces = List.length (Brdb_obs.Trace.events (Brdb_obs.Obs.trace (B.obs net))) in
    (reg_entries, totals, pending, next_txid, versions, digest, traces)
  in
  let neutral what f =
    let before = snapshot () in
    let r = f () in
    Alcotest.(check bool) (what ^ " leaves no residue") true (before = snapshot ());
    r
  in
  let baseline_rows =
    neutral "query" (fun () ->
        List.length (query_ok net "SELECT * FROM kv WHERE k > 1").Exec.rows)
  in
  (* DML through the read path is refused before it touches the heap. *)
  neutral "rejected INSERT" (fun () ->
      match B.query net "INSERT INTO kv VALUES (100, 1)" with
      | Ok _ -> Alcotest.fail "query accepted DML"
      | Error e ->
          Alcotest.(check string) "query rejects DML"
            "read-only queries cannot modify state" e);
  neutral "EXPLAIN ANALYZE" (fun () ->
      match B.explain_analyze net "SELECT * FROM kv WHERE k > 1" with
      | Error e -> Alcotest.fail e
      | Ok (plan, stats) ->
          (* The annotation carries the actual executor counters. *)
          let rows =
            List.fold_left
              (fun acc (_, _, n) -> acc + n)
              0
              (Exec.scan_counts stats)
          in
          Alcotest.(check int) "stats row count matches a real execution"
            baseline_rows rows;
          Alcotest.(check bool) "plan shows actual counters" true
            (contains plan (Printf.sprintf "actual rows=%d" baseline_rows));
          Alcotest.(check bool) "plan shows modelled time" true
            (contains plan "time="));
  (* Writes and DDL are refused up front. *)
  (match B.explain_analyze net "INSERT INTO kv VALUES (99, 99)" with
  | Ok _ -> Alcotest.fail "EXPLAIN ANALYZE accepted DML"
  | Error e ->
      Alcotest.(check string) "EA rejects non-SELECT"
        "EXPLAIN ANALYZE supports SELECT statements only" e);
  (match B.explain_analyze net "SELECT * FROM sys.aborts" with
  | Ok (plan, _) ->
      Alcotest.(check bool) "EA works on sys views" true
        (contains plan "actual rows=")
  | Error e -> Alcotest.fail e);
  (* Reads served by node 0 alone leave no trace in what later commits
     write: txids, ledger rows and version counts stay identical. *)
  let u = B.register_user net "sys/carol" in
  List.iter
    (fun k ->
      ignore (query_ok net "SELECT COUNT(*) FROM kv");
      let id = B.submit net ~user:u ~contract:"put" ~args:[ Value.Int k; Value.Int k ] in
      B.settle net;
      Alcotest.(check bool) "put committed" true (B.status net id = Some B.Committed))
    [ 200; 201; 202 ];
  List.iter
    (fun sql ->
      Alcotest.(check string) (sql ^ " identical on node 1")
        (render (query_ok net ~node:0 sql))
        (render (query_ok net ~node:1 sql)))
    [
      "SELECT txid, gid FROM pgledger ORDER BY txid";
      "SELECT name, versions, live FROM sys.tables";
    ]

(* --- schema pin ------------------------------------------------------------- *)

(* The full sys.* surface as (column, type, primary key), in column order.
   Any change to a view's name, columns, types or PK flags must show up
   here. *)
let pinned_schemas =
  let i = "INT" and t = "TEXT" and f = "FLOAT" and b = "BOOL" in
  [
    ("sys.aborts", [ ("class", t, true); ("n", i, false) ]);
    ( "sys.alerts",
      [
        ("seq", i, true); ("ts", f, false); ("height", i, false);
        ("transition", t, false); ("detector", t, false);
        ("severity", t, false); ("subject", t, false); ("evidence", t, false);
      ] );
    ( "sys.blocks",
      [
        ("height", i, true); ("txs", i, false); ("hash", t, false);
        ("prev_hash", t, false); ("committime", i, false);
        ("state_digest", t, false);
      ] );
    ( "sys.clients",
      [
        ("session", t, true); ("user", t, false); ("peer", t, false);
        ("status", t, false); ("pinned_height", i, false);
        ("reads_pinned", i, false); ("submitted", i, false);
        ("early_aborts", i, false); ("receipts_verified", i, false);
      ] );
    ( "sys.critical_path",
      [
        ("height", i, true); ("txs", i, false); ("edges", i, false);
        ("serial_ms", f, false); ("critical_ms", f, false);
        ("headroom", f, false); ("waves", i, false);
      ] );
    ( "sys.detectors",
      [
        ("detector", t, true); ("severity", t, false); ("rule", t, false);
        ("firing", i, false); ("fires", i, false); ("clears", i, false);
        ("last_ts", f, false); ("last_height", i, false);
      ] );
    ( "sys.indexes",
      [ ("table_name", t, false); ("column_name", t, false); ("is_unique", b, false) ]
    );
    ( "sys.metrics",
      [
        ("node", t, false); ("name", t, false); ("kind", t, false);
        ("n", i, false); ("value", f, false); ("vmin", f, false);
        ("vmax", f, false); ("p50", f, false); ("p95", f, false);
      ] );
    ( "sys.nodes",
      [
        ("node", t, true); ("height", i, false); ("inbox", i, false);
        ("crashed", b, false); ("fetch_requests", i, false);
        ("fetched_blocks", i, false); ("blocks_rejected", i, false);
        ("crashes", i, false); ("restarts", i, false);
      ] );
    ( "sys.snapshots",
      [
        ("height", i, true); ("chunks", i, false); ("bytes", i, false);
        ("merkle_root", t, false); ("source", t, false);
        ("install_s", f, false);
      ] );
    ( "sys.spans",
      [
        ("path", t, true); ("depth", i, false); ("events", i, false);
        ("total_ms", f, false); ("self_ms", f, false);
      ] );
    ( "sys.tables",
      [
        ("name", t, true); ("columns", i, false); ("versions", i, false);
        ("live", i, false); ("pruned", i, false); ("indexes", i, false);
      ] );
    ( "sys.transactions",
      [
        ("gid", t, false); ("block", i, false); ("pos", i, false);
        ("txuser", t, false); ("contract", t, false); ("decision", t, false);
        ("abort_class", t, false); ("detail", t, false); ("tet_ms", f, false);
      ] );
    ( "sys.validation",
      [
        ("height", i, true); ("txs", i, false); ("waves", i, false);
        ("serial_bet_ms", f, false); ("parallel_bet_ms", f, false);
        ("occupancy", f, false); ("speedup", f, false);
      ] );
  ]

let test_schema_pinned () =
  let module Schema = Brdb_storage.Schema in
  let module Session = Brdb_client.Session in
  let config =
    {
      (B.default_config ()) with
      B.flow = Node_core.Execute_order;
      tracing = true;
      parallel_validation = true;
      block_size = 2;
      block_timeout = 0.05;
    }
  in
  let net = B.create config in
  B.install_contract net ~name:"init"
    (Registry.Native
       (fun ctx ->
         ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")));
  (match
     B.install_contract_source net ~name:"put" "INSERT INTO kv VALUES ($1, $2)"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (B.submit net ~user:(B.admin net "org1") ~contract:"init" ~args:[]);
  B.settle net;
  let hub = Session.create_hub net in
  let s = Session.begin_ hub ~user:(B.register_user net "sys/pin") in
  (match Session.submit s ~contract:"put" ~args:[ Value.Int 1; Value.Int 1 ] with
  | Session.Submitted _ -> ()
  | Session.Early_abort _ -> Alcotest.fail "pin workload aborted early");
  B.settle net;
  let catalog = Node_core.catalog (Peer.core (B.peer net 0)) in
  Alcotest.(check (list string)) "virtual_names" (List.map fst pinned_schemas)
    (Catalog.virtual_names catalog);
  List.iter
    (fun (name, expected) ->
      let schema =
        match Catalog.virtual_schema catalog name with
        | Some s -> s
        | None -> Alcotest.failf "%s not registered" name
      in
      let got =
        Array.to_list
          (Array.map
             (fun (c : Schema.column) ->
               ( c.Schema.name,
                 Brdb_sql.Ast.data_type_to_string c.Schema.ty,
                 c.Schema.primary_key ))
             schema.Schema.columns)
      in
      Alcotest.(check (list (triple string string bool))) name expected got;
      let rs = query_ok net ("SELECT * FROM " ^ name) in
      List.iter
        (fun row ->
          Alcotest.(check int) (name ^ " row arity") (List.length expected)
            (Array.length row))
        rs.Exec.rows)
    pinned_schemas

(* --- divergence monitor --------------------------------------------------- *)

let test_bisection_finds_tampered_height () =
  let net = init_net ~seed:11 () in
  let u = B.register_user net "sys/bob" in
  for i = 1 to 10 do
    ignore
      (B.submit net ~user:u ~contract:"put"
         ~args:[ Value.Int (100 + i); Value.Int i ]);
    B.settle net
  done;
  Alcotest.(check (option int)) "healthy cluster has no divergence" None
    (Chaos.Testing.find_divergence net);
  let victim = Peer.core (B.peer net 1) in
  let target = Node_core.height victim - 3 in
  Node_core.Testing.tamper_digest victim ~height:target;
  Alcotest.(check (option int)) "bisection pinpoints the first bad block"
    (Some target) (Chaos.Testing.find_divergence net);
  (* The digest accessor agrees with what the view publishes. *)
  match
    B.query net ~node:1
      ~params:[| Value.Int target |]
      "SELECT state_digest FROM sys.blocks WHERE height = $1"
  with
  | Ok { Exec.rows = [ [| Value.Text d |] ]; _ } ->
      Alcotest.(check (option string)) "state_digest accessor matches view"
        (Some d)
        (Node_core.state_digest victim ~height:target)
  | Ok _ -> Alcotest.fail "bad digest row"
  | Error e -> Alcotest.fail e

(* --- cross-node agreement under chaos (qcheck) ---------------------------- *)

let prop_sys_views_agree_under_chaos =
  (* Under a seeded fault schedule (a crash/restart cycle plus catch-up),
     every node must publish the same sys.transactions decisions and the
     same sys.blocks chained digests — the abort *reason* columns are
     node-local, but gid/decision and the digests are consensus-critical. *)
  QCheck.Test.make
    ~name:"sys views: decisions and digests agree across nodes under chaos"
    ~count:6
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 9999))
    (fun seed ->
      let net = init_net ~seed ~block_size:6 () in
      let u = B.register_user net "sys/chaos" in
      let put i =
        ignore
          (B.submit net ~user:u ~contract:"put"
             ~args:[ Value.Int (1 + (i mod 7)); Value.Int i ])
      in
      for i = 1 to 15 do put i done;
      B.run net ~seconds:0.4;
      let victim = B.peer net (seed mod 3) in
      Peer.crash victim;
      for i = 16 to 30 do put i done;
      B.run net ~seconds:0.8;
      Peer.restart victim;
      B.settle net;
      (* drive until every node holds the same height *)
      let height n = Node_core.height (Peer.core (B.peer net n)) in
      let rounds = ref 0 in
      while
        (not (height 0 = height 1 && height 1 = height 2)) && !rounds < 40
      do
        incr rounds;
        B.run net ~seconds:0.5
      done;
      if not (height 0 = height 1 && height 1 = height 2) then
        QCheck.Test.fail_reportf "seed %d: heights never converged" seed;
      List.iter
        (fun sql ->
          let reference = render (query_ok net ~node:0 sql) in
          List.iter
            (fun node ->
              let got = render (query_ok net ~node sql) in
              if got <> reference then
                QCheck.Test.fail_reportf
                  "seed %d: %s differs between node 0 and node %d:\n%s\n--\n%s"
                  seed sql node reference got)
            [ 1; 2 ])
        [
          "SELECT gid, block, decision FROM sys.transactions";
          "SELECT height, txs, hash, state_digest FROM sys.blocks";
        ];
      true)

let suites =
  [
    ( "sysviews",
      [
        Alcotest.test_case "views populated and joinable" `Quick
          test_views_populated;
        Alcotest.test_case "sys.* rejects writes and DDL" `Quick
          test_views_read_only;
        Alcotest.test_case "contracts cannot read sys.*" `Quick
          test_contracts_cannot_read_sys;
        Alcotest.test_case "byte-identical across nodes" `Quick
          test_views_byte_identical_across_nodes;
        Alcotest.test_case "profiling views (sys.spans, sys.critical_path)"
          `Quick test_profiling_views;
        Alcotest.test_case "EXPLAIN ANALYZE annotates, leaves no residue"
          `Quick test_explain_analyze_annotates_and_is_neutral;
        Alcotest.test_case "SQL bisection finds tampered digest" `Quick
          test_bisection_finds_tampered_height;
        Alcotest.test_case "schema pinned (names, columns, row arity)" `Quick
          test_schema_pinned;
        QCheck_alcotest.to_alcotest prop_sys_views_agree_under_chaos;
      ] );
  ]
