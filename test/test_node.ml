open Brdb_node
module Block = Brdb_ledger.Block
module Assembler = Brdb_consensus.Assembler
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value
module Txn = Brdb_txn.Txn
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api

(* Failure-message rendering of a decision. *)
let status_to_string = function
  | Node_core.S_committed -> "committed"
  | Node_core.S_aborted r -> "aborted: " ^ Brdb_txn.Txn.abort_reason_to_string r
  | Node_core.S_rejected r -> "rejected: " ^ r

(* ---------------------------------------------------------------- harness *)

type harness = {
  registry : Identity.Registry.t;
  nodes : Node_core.t list;
  chain : Assembler.t;  (** the orderer's linear chain of signed blocks *)
  mutable tx_seq : int;
}

let orgs = [ "org1"; "org2"; "org3" ]

let user_names =
  [ "org1/admin"; "org2/admin"; "org3/admin"; "org1/alice"; "org2/bob" ]

let users = List.map (fun n -> (n, Identity.create n)) user_names

let identity_of name = List.assoc name users

let setup ?(flow = Node_core.Order_execute) ?(atomic_commit = false)
    ?(n_nodes = 2) () =
  let registry = Identity.Registry.create () in
  let orderer = Identity.create "orderer/1" in
  (match Identity.Registry.register registry orderer with Ok () -> () | Error _ -> assert false);
  List.iter
    (fun (_, id) ->
      match Identity.Registry.register registry id with
      | Ok () -> ()
      | Error _ -> assert false)
    users;
  let nodes =
    List.init n_nodes (fun i ->
        let config =
          Node_core.make_config
            ~name:(Printf.sprintf "db-%d" (i + 1))
            ~org:(List.nth orgs (i mod 3))
            ~flow ~atomic_commit ~orgs ()
        in
        let node = Node_core.create config ~registry in
        Node_core.bootstrap node;
        node)
  in
  {
    registry;
    nodes;
    chain = Chain.create ~identity:orderer ~metadata:"test";
    tx_seq = 0;
  }

let node h i = List.nth h.nodes i

(* The crash hook takes a block as the peer's admission leaves it. *)
let checked h block =
  match Block.check h.registry block with Ok c -> c | Error e -> Alcotest.fail e

(* Build, sign and deliver the next block to all nodes; returns one result
   per node. *)
let deliver h txs =
  let block = Assembler.make h.chain txs in
  List.mapi
    (fun i n ->
      match Node_core.process_block n block with
      | Ok r -> r
      | Error e -> Alcotest.failf "process_block failed on node %d: %s" i e)
    h.nodes

let tx h ~user ~contract args =
  h.tx_seq <- h.tx_seq + 1;
  Block.make_tx
    ~id:(Printf.sprintf "tx-%d" h.tx_seq)
    ~identity:(identity_of user) ~contract ~args

let eo_tx ~user ~contract ~snapshot args =
  Block.make_eo_tx ~identity:(identity_of user) ~contract ~args ~snapshot

let install_everywhere h ~name body =
  List.iter (fun n -> Node_core.install_contract n ~name body) h.nodes

(* Standard test contracts. *)
let setup_contract =
  Registry.Native
    (fun ctx ->
      ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
      ignore (Api.execute ctx "CREATE TABLE accounts (id INT PRIMARY KEY, bal INT)");
      ignore (Api.execute ctx "INSERT INTO accounts VALUES (1, 60), (2, 60)"))

let put_contract =
  Registry.Native
    (fun ctx ->
      ignore (Api.execute ctx "INSERT INTO kv VALUES ($1, $2)"))

let bump_contract =
  Registry.Native
    (fun ctx ->
      let n = Api.execute ctx "UPDATE kv SET v = v + 1 WHERE k = $1" in
      if n = 0 then Api.fail "no such key")

let withdraw_src =
  (* The classic write-skew contract: allowed if the combined balance
     stays non-negative after withdrawing 70 from the caller's account. *)
  "LET a = SELECT bal FROM accounts WHERE id = $1;\n\
   LET b = SELECT bal FROM accounts WHERE id = $2;\n\
   REQUIRE :a + :b - 70 >= 0;\n\
   UPDATE accounts SET bal = bal - 70 WHERE id = $1"

let withdraw_contract =
  match Brdb_contracts.Procedural.parse withdraw_src with
  | Ok p -> Registry.Procedural p
  | Error e -> failwith e

let install_standard h =
  install_everywhere h ~name:"setup" setup_contract;
  install_everywhere h ~name:"put" put_contract;
  install_everywhere h ~name:"bump" bump_contract;
  install_everywhere h ~name:"withdraw" withdraw_contract

let init_chain h =
  install_standard h;
  let results = deliver h [ tx h ~user:"org1/admin" ~contract:"setup" [] ] in
  List.iter
    (fun (r : Node_core.block_result) ->
      match r.Node_core.br_statuses with
      | [ (_, Node_core.S_committed) ] -> ()
      | [ (_, s) ] -> Alcotest.failf "setup failed: %s" (status_to_string s)
      | _ -> Alcotest.fail "setup: wrong status count")
    results

let statuses (r : Node_core.block_result) = List.map snd r.Node_core.br_statuses

let committed = Node_core.S_committed

(* Nodes must agree on the *decision* for every transaction and on the
   resulting state. The abort reason may differ per node: a conflict a
   node saw as an in-flight rw-dependency is a stale/phantom read on a
   node that executed the transaction later — the paper's §3.4.3
   argument. The write-set hash is the authoritative equality check. *)
let outcome_kind = function
  | Node_core.S_committed -> "committed"
  | Node_core.S_aborted _ -> "aborted"
  | Node_core.S_rejected _ -> "rejected"

let check_identical h (results : Node_core.block_result list) =
  ignore h;
  match results with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun (r : Node_core.block_result) ->
          Alcotest.(check (list string))
            "decisions identical across nodes"
            (List.map outcome_kind (statuses first))
            (List.map outcome_kind (statuses r));
          Alcotest.(check string) "write-set hashes identical"
            (Brdb_util.Hex.encode first.Node_core.br_write_set_hash)
            (Brdb_util.Hex.encode r.Node_core.br_write_set_hash))
        rest

let query_int n sql =
  match Node_core.query n sql with
  | Ok rs -> (
      match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Int i |] ] -> i
      | rows -> Alcotest.failf "expected one int, got %d rows" (List.length rows))
  | Error e -> Alcotest.fail e

let rendered n sql =
  match Node_core.query n sql with
  | Ok rs ->
      List.map
        (fun row -> String.concat "|" (Array.to_list (Array.map Value.to_string row)))
        rs.Brdb_engine.Exec.rows
  | Error e -> Alcotest.fail e

let is_committed = function Node_core.S_committed -> true | _ -> false

let is_aborted = function Node_core.S_aborted _ -> true | _ -> false

(* -------------------------------------------------------------- OE tests *)

let test_oe_basic_commit () =
  let h = setup () in
  init_chain h;
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 10 ];
        tx h ~user:"org2/bob" ~contract:"put" [ Value.Int 2; Value.Int 20 ];
      ]
  in
  check_identical h results;
  Alcotest.(check bool) "all committed" true
    (List.for_all is_committed (statuses (List.hd results)));
  List.iter
    (fun n ->
      Alcotest.(check int) "kv rows" 2 (query_int n "SELECT COUNT(*) FROM kv");
      Alcotest.(check int) "height" 2 (Node_core.height n))
    h.nodes

let test_empty_block () =
  (* A block with no transactions (e.g. all duplicates filtered upstream)
     still advances the chain on every node. *)
  let h = setup () in
  init_chain h;
  let results = deliver h [] in
  check_identical h results;
  List.iter (fun n -> Alcotest.(check int) "height" 2 (Node_core.height n)) h.nodes;
  (* and the chain continues normally afterwards *)
  let r = deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ] ] in
  Alcotest.(check bool) "next block commits" true
    (is_committed (List.hd (statuses (List.hd r))))

let test_oe_ledger_records () =
  let h = setup () in
  init_chain h;
  ignore (deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ] ]);
  let n = node h 0 in
  Alcotest.(check int) "ledger rows for block 2" 1
    (query_int n "SELECT COUNT(*) FROM pgledger WHERE blocknumber = 2 AND status = 'committed'");
  (* the invocation text is recorded *)
  match Node_core.query n "SELECT txquery FROM pgledger WHERE blocknumber = 2" with
  | Ok rs -> (
      match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Text q |] ] ->
          Alcotest.(check string) "query text" "put(1, 1)" q
      | _ -> Alcotest.fail "expected one row")
  | Error e -> Alcotest.fail e

(* Client reads draw no transaction id, so no committed client id can
   collide with them — whatever the client named its transaction. *)
let test_reads_ignore_client_ids () =
  let h = setup () in
  init_chain h;
  let named id k =
    Block.make_tx ~id ~identity:(identity_of "org1/alice") ~contract:"put"
      ~args:[ Value.Int k; Value.Int k ]
  in
  let commit tx =
    List.iter
      (fun r -> Alcotest.(check bool) "committed" true (List.for_all is_committed (statuses r)))
      (deliver h [ tx ])
  in
  commit (named "__query-1__" 1);
  commit (named "__explain-1__" 2);
  let n = node h 0 in
  Alcotest.(check int) "query runs" 2 (query_int n "SELECT COUNT(*) FROM kv");
  match Node_core.explain_analyze n ~row_cost:0.001 "SELECT * FROM kv WHERE k > 0" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_oe_bad_signature_rejected () =
  let h = setup () in
  init_chain h;
  let good = tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ] in
  (* Tamper with the arguments after signing. *)
  let bad = { good with Block.tx_args = [ Value.Int 1; Value.Int 999 ] } in
  let results = deliver h [ bad ] in
  check_identical h results;
  (match statuses (List.hd results) with
  | [ Node_core.S_rejected _ ] -> ()
  | _ -> Alcotest.fail "expected rejection");
  Alcotest.(check int) "nothing written" 0 (query_int (node h 0) "SELECT COUNT(*) FROM kv")

let test_oe_unknown_user_rejected () =
  let h = setup () in
  init_chain h;
  let mallory = Identity.create "org9/mallory" in
  let bad =
    Block.make_tx ~id:"evil-1" ~identity:mallory ~contract:"put"
      ~args:[ Value.Int 1; Value.Int 1 ]
  in
  let results = deliver h [ bad ] in
  match statuses (List.hd results) with
  | [ Node_core.S_rejected _ ] -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_oe_noncanonical_signature_rejected () =
  (* s = -1 used to raise out of the exponentiation inside acquire. *)
  let h = setup () in
  init_chain h;
  let good = tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ] in
  let t2 = tx h ~user:"org2/bob" ~contract:"put" [ Value.Int 2; Value.Int 2 ] in
  let bad =
    { t2 with Block.tx_signature = { t2.Block.tx_signature with Brdb_crypto.Schnorr.s = -1L } }
  in
  let results = deliver h [ good; bad ] in
  check_identical h results;
  match statuses (List.hd results) with
  | [ Node_core.S_committed; Node_core.S_rejected "invalid client signature" ] -> ()
  | st ->
      Alcotest.failf "expected commit then signature rejection, got %s"
        (String.concat "; " (List.map status_to_string st))

let test_oe_duplicate_txid () =
  let h = setup () in
  init_chain h;
  let t1 = tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ] in
  (* Same transaction submitted twice (resubmission scenario, §3.5). *)
  let results = deliver h [ t1; t1 ] in
  check_identical h results;
  (match statuses (List.hd results) with
  | [ Node_core.S_committed; Node_core.S_rejected _ ] -> ()
  | _ -> Alcotest.fail "expected commit then rejection");
  (* and across blocks *)
  let results2 = deliver h [ t1 ] in
  (match statuses (List.hd results2) with
  | [ Node_core.S_rejected _ ] -> ()
  | _ -> Alcotest.fail "expected rejection in later block");
  Alcotest.(check int) "one row" 1 (query_int (node h 0) "SELECT COUNT(*) FROM kv")

let test_oe_contract_failure_aborts () =
  let h = setup () in
  init_chain h;
  let results = deliver h [ tx h ~user:"org1/alice" ~contract:"bump" [ Value.Int 404 ] ] in
  check_identical h results;
  match statuses (List.hd results) with
  | [ Node_core.S_aborted (Txn.Contract_error _) ] -> ()
  | [ s ] -> Alcotest.failf "wrong status: %s" (status_to_string s)
  | _ -> Alcotest.fail "wrong count"

let test_oe_unknown_contract_aborts () =
  let h = setup () in
  init_chain h;
  let results = deliver h [ tx h ~user:"org1/alice" ~contract:"nope" [] ] in
  match statuses (List.hd results) with
  | [ Node_core.S_aborted (Txn.Contract_error _) ] -> ()
  | _ -> Alcotest.fail "expected contract error"

let test_oe_write_skew_detected () =
  (* Two withdrawals in the same block, each reading both accounts and
     debiting a different one. Under plain SI both would commit, violating
     the invariant; SSI must abort exactly one, identically on all nodes. *)
  let h = setup () in
  init_chain h;
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"withdraw" [ Value.Int 1; Value.Int 2 ];
        tx h ~user:"org2/bob" ~contract:"withdraw" [ Value.Int 2; Value.Int 1 ];
      ]
  in
  check_identical h results;
  let sts = statuses (List.hd results) in
  Alcotest.(check int) "one committed" 1 (List.length (List.filter is_committed sts));
  Alcotest.(check int) "one aborted" 1 (List.length (List.filter is_aborted sts));
  (* invariant holds *)
  let total = query_int (node h 0) "SELECT SUM(bal) FROM accounts" in
  Alcotest.(check int) "invariant" 50 total

let test_oe_write_skew_sequential_blocks_ok () =
  (* The same two withdrawals in different blocks: the second one sees the
     first's debit and fails its REQUIRE — no SSI abort needed. *)
  let h = setup () in
  init_chain h;
  let r1 = deliver h [ tx h ~user:"org1/alice" ~contract:"withdraw" [ Value.Int 1; Value.Int 2 ] ] in
  Alcotest.(check bool) "first commits" true (is_committed (List.hd (statuses (List.hd r1))));
  let r2 = deliver h [ tx h ~user:"org2/bob" ~contract:"withdraw" [ Value.Int 2; Value.Int 1 ] ] in
  (match statuses (List.hd r2) with
  | [ Node_core.S_aborted (Txn.Contract_error _) ] -> ()
  | [ s ] -> Alcotest.failf "expected REQUIRE failure, got %s" (status_to_string s)
  | _ -> Alcotest.fail "wrong count");
  Alcotest.(check int) "invariant" 50 (query_int (node h 0) "SELECT SUM(bal) FROM accounts")

let test_oe_ww_first_in_block_wins () =
  let h = setup () in
  init_chain h;
  ignore (deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 7; Value.Int 0 ] ]);
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"bump" [ Value.Int 7 ];
        tx h ~user:"org2/bob" ~contract:"bump" [ Value.Int 7 ];
      ]
  in
  check_identical h results;
  (match statuses (List.hd results) with
  | [ Node_core.S_committed;
      Node_core.S_aborted (Txn.Ww_conflict _ | Txn.Ssi_conflict _) ] -> ()
  | sts ->
      Alcotest.failf "unexpected: %s"
        (String.concat "," (List.map status_to_string sts)));
  Alcotest.(check int) "bumped once" 1
    (query_int (node h 0) "SELECT v FROM kv WHERE k = 7")

let test_oe_duplicate_pk_in_block () =
  let h = setup () in
  init_chain h;
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 5; Value.Int 1 ];
        tx h ~user:"org2/bob" ~contract:"put" [ Value.Int 5; Value.Int 2 ];
      ]
  in
  check_identical h results;
  match statuses (List.hd results) with
  | [ Node_core.S_committed; Node_core.S_aborted (Txn.Duplicate_key _) ] -> ()
  | sts ->
      Alcotest.failf "unexpected: %s"
        (String.concat "," (List.map status_to_string sts))

(* -------------------------------------------------------------- EO tests *)

let test_eo_pre_execute_and_commit () =
  let h = setup ~flow:Node_core.Execute_order () in
  init_chain h;
  let t1 = eo_tx ~user:"org1/alice" ~contract:"put" ~snapshot:1 [ Value.Int 1; Value.Int 10 ] in
  (* node 0 pre-executes (the node a client submitted to); node 1 never
     hears about it until the block arrives -> missing there. *)
  (match Node_core.pre_execute (node h 0) t1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let results = deliver h [ t1 ] in
  check_identical h results;
  Alcotest.(check int) "no missing on node0" 0 (List.hd results).Node_core.br_missing;
  Alcotest.(check int) "missing on node1" 1 (List.nth results 1).Node_core.br_missing;
  Alcotest.(check bool) "committed" true (is_committed (List.hd (statuses (List.hd results))))

let test_eo_stale_read_aborts () =
  let h = setup ~flow:Node_core.Execute_order () in
  init_chain h;
  (* T reads account 1 at snapshot 1 (bal 60) and withdraws; before T's
     block arrives, another block empties account 2. T's REQUIRE passed at
     execution, but its read of account 2 is now stale. *)
  let t = eo_tx ~user:"org1/alice" ~contract:"withdraw" ~snapshot:1 [ Value.Int 1; Value.Int 2 ] in
  (match Node_core.pre_execute (node h 0) t with Ok () -> () | Error e -> Alcotest.fail e);
  let spoiler = eo_tx ~user:"org2/bob" ~contract:"withdraw" ~snapshot:1 [ Value.Int 2; Value.Int 1 ] in
  let r_spoil = deliver h [ spoiler ] in
  Alcotest.(check bool) "spoiler commits" true
    (is_committed (List.hd (statuses (List.hd r_spoil))));
  let results = deliver h [ t ] in
  check_identical h results;
  (match statuses (List.hd results) with
  | [ Node_core.S_aborted (Txn.Stale_read | Txn.Phantom_read | Txn.Ssi_conflict _) ] -> ()
  | [ s ] -> Alcotest.failf "expected stale abort, got %s" (status_to_string s)
  | _ -> Alcotest.fail "wrong count");
  Alcotest.(check int) "invariant" 50 (query_int (node h 0) "SELECT SUM(bal) FROM accounts")

let test_eo_phantom_aborts () =
  let h = setup ~flow:Node_core.Execute_order () in
  init_chain h;
  install_everywhere h ~name:"count_range"
    (Registry.Native
       (fun ctx ->
         (match Api.query1 ctx "SELECT COUNT(*) FROM kv WHERE k BETWEEN 1 AND 100" with
         | Some (Value.Int c) -> Api.set_local ctx "c" (Value.Int c)
         | _ -> Api.fail "bad count");
         ignore (Api.execute ctx "INSERT INTO kv VALUES ($1, :c)")));
  (* T counts kv rows in [1,100] at snapshot 1 (zero rows); a subsequent
     block inserts k=50, a phantom for T's predicate. *)
  let t = eo_tx ~user:"org1/alice" ~contract:"count_range" ~snapshot:1 [ Value.Int 200 ] in
  (match Node_core.pre_execute (node h 0) t with Ok () -> () | Error e -> Alcotest.fail e);
  ignore (deliver h [ eo_tx ~user:"org2/bob" ~contract:"put" ~snapshot:1 [ Value.Int 50; Value.Int 0 ] ]);
  let results = deliver h [ t ] in
  check_identical h results;
  match statuses (List.hd results) with
  | [ Node_core.S_aborted (Txn.Phantom_read | Txn.Ssi_conflict _) ] -> ()
  | [ s ] -> Alcotest.failf "expected phantom abort, got %s" (status_to_string s)
  | _ -> Alcotest.fail "wrong count"

let test_eo_concurrent_cross_block () =
  (* Write skew where the two transactions land in *different* blocks and
     both pre-execute at the same snapshot: Table 2's cross-block rows. *)
  let h = setup ~flow:Node_core.Execute_order () in
  init_chain h;
  let t1 = eo_tx ~user:"org1/alice" ~contract:"withdraw" ~snapshot:1 [ Value.Int 1; Value.Int 2 ] in
  let t2 = eo_tx ~user:"org2/bob" ~contract:"withdraw" ~snapshot:1 [ Value.Int 2; Value.Int 1 ] in
  List.iter
    (fun t ->
      match Node_core.pre_execute (node h 0) t with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ t1; t2 ];
  let r1 = deliver h [ t1 ] in
  let r2 = deliver h [ t2 ] in
  check_identical h r1;
  check_identical h r2;
  let s1 = List.hd (statuses (List.hd r1)) and s2 = List.hd (statuses (List.hd r2)) in
  Alcotest.(check bool) "exactly one commits" true
    ((is_committed s1 && is_aborted s2) || (is_aborted s1 && is_committed s2));
  Alcotest.(check int) "invariant" 50 (query_int (node h 0) "SELECT SUM(bal) FROM accounts")

let test_eo_requires_index () =
  let h = setup ~flow:Node_core.Execute_order ~n_nodes:1 () in
  init_chain h;
  install_everywhere h ~name:"scan_all"
    (Registry.Native
       (fun ctx -> ignore (Api.query ctx "SELECT COUNT(*) FROM kv WHERE v = 1")));
  let t = eo_tx ~user:"org1/alice" ~contract:"scan_all" ~snapshot:1 [] in
  let results = deliver h [ t ] in
  match statuses (List.hd results) with
  | [ Node_core.S_aborted (Txn.Missing_index _) ] -> ()
  | [ s ] -> Alcotest.failf "expected missing-index abort, got %s" (status_to_string s)
  | _ -> Alcotest.fail "wrong count"

let test_eo_blind_update_rejected () =
  let h = setup ~flow:Node_core.Execute_order ~n_nodes:1 () in
  init_chain h;
  install_everywhere h ~name:"blind"
    (Registry.Native (fun ctx -> ignore (Api.execute ctx "UPDATE accounts SET bal = 0")));
  let results = deliver h [ eo_tx ~user:"org1/alice" ~contract:"blind" ~snapshot:1 [] ] in
  match statuses (List.hd results) with
  | [ Node_core.S_aborted (Txn.Blind_update _) ] -> ()
  | [ s ] -> Alcotest.failf "expected blind-update abort, got %s" (status_to_string s)
  | _ -> Alcotest.fail "wrong count"

(* --------------------------------------------------------- serial baseline *)

let test_serial_baseline_sees_predecessors () =
  let h = setup ~flow:Node_core.Serial_baseline ~n_nodes:1 () in
  init_chain h;
  (* put(9, 0) then bump(9) in the same block: serial execution sees the
     insert; OE-style same-snapshot execution would abort the bump. *)
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 9; Value.Int 0 ];
        tx h ~user:"org2/bob" ~contract:"bump" [ Value.Int 9 ];
      ]
  in
  Alcotest.(check bool) "both committed" true
    (List.for_all is_committed (statuses (List.hd results)));
  Alcotest.(check int) "v = 1" 1 (query_int (node h 0) "SELECT v FROM kv WHERE k = 9")

let test_oe_same_block_insert_then_bump_aborts () =
  (* Contrast with the serial baseline: in OE both execute on the previous
     block's snapshot, so the bump sees no row and fails. *)
  let h = setup ~flow:Node_core.Order_execute ~n_nodes:1 () in
  init_chain h;
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 9; Value.Int 0 ];
        tx h ~user:"org2/bob" ~contract:"bump" [ Value.Int 9 ];
      ]
  in
  match statuses (List.hd results) with
  | [ Node_core.S_committed; Node_core.S_aborted _ ] -> ()
  | sts ->
      Alcotest.failf "unexpected: %s"
        (String.concat "," (List.map status_to_string sts))

(* ------------------------------------------------------------- governance *)

let deploy_body =
  "INSERT INTO kv VALUES ($1, $2 * 2)"

let test_deployment_workflow () =
  let h = setup () in
  init_chain h;
  (* propose *)
  let propose =
    tx h ~user:"org1/admin" ~contract:"create_deploytx"
      [ Value.Int 1; Value.Text "create"; Value.Text "put_double"; Value.Text deploy_body ]
  in
  let r = deliver h [ propose ] in
  check_identical h r;
  Alcotest.(check bool) "proposed" true (is_committed (List.hd (statuses (List.hd r))));
  (* premature submit fails: not all orgs approved *)
  let r = deliver h [ tx h ~user:"org1/admin" ~contract:"submit_deploytx" [ Value.Int 1 ] ] in
  Alcotest.(check bool) "premature submit aborts" true
    (is_aborted (List.hd (statuses (List.hd r))));
  (* approvals from every org *)
  let approvals =
    List.map
      (fun org -> tx h ~user:(org ^ "/admin") ~contract:"approve_deploytx" [ Value.Int 1 ])
      orgs
  in
  let r = deliver h approvals in
  Alcotest.(check bool) "all approvals commit" true
    (List.for_all is_committed (statuses (List.hd r)));
  (* submit installs the contract *)
  let r = deliver h [ tx h ~user:"org2/admin" ~contract:"submit_deploytx" [ Value.Int 1 ] ] in
  check_identical h r;
  Alcotest.(check bool) "submit commits" true (is_committed (List.hd (statuses (List.hd r))));
  (* invoke it: the contract is installed on every node *)
  let r = deliver h [ tx h ~user:"org1/alice" ~contract:"put_double" [ Value.Int 3; Value.Int 21 ] ] in
  check_identical h r;
  List.iter
    (fun r ->
      Alcotest.(check bool) "invocation commits" true (is_committed (List.hd (statuses r))))
    r;
  Alcotest.(check int) "doubled" 42 (query_int (node h 0) "SELECT v FROM kv WHERE k = 3")

let test_deployment_rejection () =
  let h = setup ~n_nodes:1 () in
  init_chain h;
  ignore
    (deliver h
       [
         tx h ~user:"org1/admin" ~contract:"create_deploytx"
           [ Value.Int 2; Value.Text "create"; Value.Text "c2"; Value.Text deploy_body ];
       ]);
  let r = deliver h [ tx h ~user:"org2/admin" ~contract:"reject_deploytx" [ Value.Int 2; Value.Text "no" ] ] in
  Alcotest.(check bool) "reject commits" true (is_committed (List.hd (statuses (List.hd r))));
  (* approve after rejection fails *)
  let r = deliver h [ tx h ~user:"org3/admin" ~contract:"approve_deploytx" [ Value.Int 2 ] ] in
  Alcotest.(check bool) "approve after reject aborts" true
    (is_aborted (List.hd (statuses (List.hd r))))

let test_deployment_requires_admin () =
  let h = setup ~n_nodes:1 () in
  init_chain h;
  let r =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"create_deploytx"
          [ Value.Int 3; Value.Text "create"; Value.Text "c3"; Value.Text deploy_body ];
      ]
  in
  Alcotest.(check bool) "non-admin aborts" true (is_aborted (List.hd (statuses (List.hd r))))

let test_deployment_determinism_guard () =
  let h = setup ~n_nodes:1 () in
  init_chain h;
  let r =
    deliver h
      [
        tx h ~user:"org1/admin" ~contract:"create_deploytx"
          [
            Value.Int 4; Value.Text "create"; Value.Text "bad";
            Value.Text "INSERT INTO kv VALUES ($1, random())";
          ];
      ]
  in
  match statuses (List.hd r) with
  | [ Node_core.S_aborted (Txn.Contract_error msg) ] ->
      Alcotest.(check bool) "mentions determinism" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected determinism rejection"

let test_user_management () =
  let h = setup () in
  init_chain h;
  let carol = Identity.create "org3/carol" in
  let pk_hex = Printf.sprintf "%Lx" (snd (Brdb_crypto.Schnorr.keygen ~seed:"org3/carol")) in
  let r =
    deliver h
      [
        tx h ~user:"org3/admin" ~contract:"create_user"
          [ Value.Text "org3/carol"; Value.Text pk_hex ];
      ]
  in
  check_identical h r;
  Alcotest.(check bool) "create_user commits" true (is_committed (List.hd (statuses (List.hd r))));
  (* Carol can now submit transactions. *)
  h.tx_seq <- h.tx_seq + 1;
  let carol_tx =
    Block.make_tx ~id:(Printf.sprintf "tx-%d" h.tx_seq) ~identity:carol ~contract:"put"
      ~args:[ Value.Int 77; Value.Int 1 ]
  in
  let r = deliver h [ carol_tx ] in
  Alcotest.(check bool) "carol's tx commits" true (is_committed (List.hd (statuses (List.hd r))));
  (* Delete carol; her next transaction is rejected. *)
  let r = deliver h [ tx h ~user:"org3/admin" ~contract:"delete_user" [ Value.Text "org3/carol" ] ] in
  Alcotest.(check bool) "delete commits" true (is_committed (List.hd (statuses (List.hd r))));
  h.tx_seq <- h.tx_seq + 1;
  let carol_tx2 =
    Block.make_tx ~id:(Printf.sprintf "tx-%d" h.tx_seq) ~identity:carol ~contract:"put"
      ~args:[ Value.Int 78; Value.Int 1 ]
  in
  let r = deliver h [ carol_tx2 ] in
  match statuses (List.hd r) with
  | [ Node_core.S_rejected _ ] -> ()
  | _ -> Alcotest.fail "expected rejection after delete"

let test_update_conflict_on_deploy () =
  (* EO: a transaction pre-executes against contract v1; a replacement
     deploys before its block arrives -> Update_conflict_on_deploy. *)
  let h = setup ~flow:Node_core.Execute_order ~n_nodes:1 () in
  init_chain h;
  let t = eo_tx ~user:"org1/alice" ~contract:"put" ~snapshot:1 [ Value.Int 1; Value.Int 1 ] in
  (match Node_core.pre_execute (node h 0) t with Ok () -> () | Error e -> Alcotest.fail e);
  (* Replace 'put' through governance in the meantime. *)
  ignore
    (deliver h
       [
         eo_tx ~user:"org1/admin" ~contract:"create_deploytx" ~snapshot:1
           [ Value.Int 9; Value.Text "replace"; Value.Text "put"; Value.Text deploy_body ];
       ]);
  let approvals =
    List.map
      (fun org ->
        eo_tx ~user:(org ^ "/admin") ~contract:"approve_deploytx" ~snapshot:2 [ Value.Int 9 ])
      orgs
  in
  ignore (deliver h approvals);
  ignore
    (deliver h
       [ eo_tx ~user:"org2/admin" ~contract:"submit_deploytx" ~snapshot:3 [ Value.Int 9 ] ]);
  let r = deliver h [ t ] in
  match statuses (List.hd r) with
  | [ Node_core.S_aborted Txn.Update_conflict_on_deploy ] -> ()
  | [ s ] -> Alcotest.failf "expected deploy conflict, got %s" (status_to_string s)
  | _ -> Alcotest.fail "wrong count"

(* ------------------------------------------------------------- provenance *)

let test_provenance_audit () =
  let h = setup ~n_nodes:1 () in
  init_chain h;
  ignore (deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 10 ] ]);
  ignore (deliver h [ tx h ~user:"org2/bob" ~contract:"bump" [ Value.Int 1 ] ]);
  ignore (deliver h [ tx h ~user:"org2/bob" ~contract:"bump" [ Value.Int 1 ] ]);
  let n = node h 0 in
  (* full history of the row *)
  Alcotest.(check int) "three versions" 3
    (query_int n "PROVENANCE SELECT COUNT(*) FROM kv WHERE k = 1");
  (* Table-3-style audit: who last modified the live row? *)
  match
    Node_core.query n
      "PROVENANCE SELECT pgledger.txuser FROM kv JOIN pgledger ON kv.xmin = pgledger.txid \
       WHERE kv.k = 1 AND kv.deleter IS NULL AND pgledger.deleter IS NULL"
  with
  | Ok rs -> (
      match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Text user |] ] -> Alcotest.(check string) "last writer" "org2/bob" user
      | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows))
  | Error e -> Alcotest.fail e

let test_prune () =
  let h = setup ~n_nodes:1 () in
  init_chain h;
  ignore (deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 10 ] ]);
  ignore (deliver h [ tx h ~user:"org2/bob" ~contract:"bump" [ Value.Int 1 ] ]);
  let n = node h 0 in
  Alcotest.(check int) "history before prune" 2
    (query_int n "PROVENANCE SELECT COUNT(*) FROM kv WHERE k = 1");
  let removed = Node_core.prune n ~before:(Node_core.height n) () in
  Alcotest.(check bool) "something pruned" true (removed >= 1);
  Alcotest.(check int) "history after prune" 1
    (query_int n "PROVENANCE SELECT COUNT(*) FROM kv WHERE k = 1");
  (* live data unaffected *)
  Alcotest.(check int) "live row intact" 11 (query_int n "SELECT v FROM kv WHERE k = 1")

(* ---------------------------------------------------------------- recovery *)

(* Under EO the block holds a withdraw whose write-skew partner was
   pre-executed on both nodes but is ordered into the next block: it is
   still pending at crash time, so the crashed attempt's SSI graph must
   include it exactly as the reference node's does. *)
let crash_recovery_scenario ?(flow = Node_core.Order_execute) ?(atomic_commit = false)
    crash expect_repair =
  let h = setup ~flow ~atomic_commit () in
  init_chain h;
  let txs, pending, next =
    match flow with
    | Node_core.Execute_order ->
        let eo ?(snapshot = 1) ~user ~contract args =
          eo_tx ~user ~contract ~snapshot args
        in
        let txs =
          [
            eo ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 10 ];
            eo ~user:"org1/alice" ~contract:"withdraw" [ Value.Int 1; Value.Int 2 ];
            eo ~user:"org1/alice" ~contract:"bump" [ Value.Int 404 ];
          ]
        in
        let pending =
          [ eo ~user:"org2/bob" ~contract:"withdraw" [ Value.Int 2; Value.Int 1 ] ]
        in
        List.iter
          (fun n ->
            List.iter
              (fun t ->
                match Node_core.pre_execute n t with
                | Ok () -> ()
                | Error e -> Alcotest.fail e)
              (txs @ pending))
          h.nodes;
        ( txs,
          pending,
          eo ~snapshot:2 ~user:"org1/alice" ~contract:"put" [ Value.Int 99; Value.Int 9 ] )
    | Node_core.Serial_baseline ->
        (* Serial transactions see their predecessors: the first bump
           updates the row the put just created, so recovery must undo a
           same-block chain. *)
        ( [
            tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 10 ];
            tx h ~user:"org2/bob" ~contract:"bump" [ Value.Int 1 ];
            tx h ~user:"org1/alice" ~contract:"bump" [ Value.Int 404 ];
          ],
          [],
          tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 99; Value.Int 9 ] )
    | _ ->
        ( [
            tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 10 ];
            tx h ~user:"org2/bob" ~contract:"put" [ Value.Int 2; Value.Int 20 ];
            tx h ~user:"org1/alice" ~contract:"bump" [ Value.Int 404 ];
          ],
          [],
          tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 99; Value.Int 9 ] )
  in
  (* node 0 crashes mid-block; node 1 processes normally (the reference). *)
  let block = Assembler.make h.chain txs in
  let height = block.Block.height in
  Node_core.process_block_with_crash (node h 0) (checked h block) ~crash;
  Alcotest.(check (option string)) "no state digest for the interrupted block"
    None
    (Node_core.state_digest (node h 0) ~height);
  let reference =
    match Node_core.process_block (node h 1) block with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* restart node 0 *)
  (match Node_core.recover (node h 0) with
  | Ok (Some repaired) ->
      Alcotest.(check bool) "repair expected" true expect_repair;
      Alcotest.(check string) "write-set hash matches reference"
        (Brdb_util.Hex.encode reference.Node_core.br_write_set_hash)
        (Brdb_util.Hex.encode repaired.Node_core.br_write_set_hash)
  | Ok None -> Alcotest.(check bool) "no repair expected" false expect_repair
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option string)) "state digest matches reference"
    (Node_core.state_digest (node h 1) ~height)
    (Node_core.state_digest (node h 0) ~height);
  (* sys.* rows converge too. Only §3.6 case (a) — every commit logged,
     the status step lost — finishes the block without re-executing it,
     so it cannot rebuild the dependency graph and records no critical
     path. *)
  List.iter
    (fun sql ->
      Alcotest.(check (list string)) sql (rendered (node h 1) sql) (rendered (node h 0) sql))
    [
      "SELECT gid, block, pos, decision FROM sys.transactions ORDER BY block, pos";
      "SELECT * FROM sys.blocks ORDER BY height";
    ];
  let case_a =
    flow <> Node_core.Serial_baseline && (not atomic_commit)
    && crash = Node_core.Crash_before_status_step
  in
  let cp_rows n =
    query_int (node h n)
      (Printf.sprintf "SELECT COUNT(*) FROM sys.critical_path WHERE height = %d" height)
  in
  Alcotest.(check int) "reference has a critical path" 1 (cp_rows 1);
  Alcotest.(check int) "critical path iff re-executed" (if case_a then 0 else 1) (cp_rows 0);
  (* state converges *)
  Alcotest.(check int) "kv count equal"
    (query_int (node h 1) "SELECT COUNT(*) FROM kv")
    (query_int (node h 0) "SELECT COUNT(*) FROM kv");
  Alcotest.(check int) "balances equal"
    (query_int (node h 1) "SELECT SUM(bal) FROM accounts")
    (query_int (node h 0) "SELECT SUM(bal) FROM accounts");
  (* both nodes keep working afterwards and decide the pending
     transaction alike — down to the abort reason, since both executed it
     at the same snapshot *)
  let r = deliver h (pending @ [ next ]) in
  check_identical h r;
  let reasons (r : Node_core.block_result) =
    List.map status_to_string (statuses r)
  in
  Alcotest.(check (list string)) "later statuses identical"
    (reasons (List.nth r 1)) (reasons (List.hd r))

(* The Merkle tree a provenance proof reads is rebuilt with the block:
   after a mid-commit crash re-executes it, every entry's proof equals the
   list reference and the healthy node's proof, and verifies. Twenty
   inserts put the write set across two 16-leaf buckets. *)
let test_recover_mid_commit_serves_proofs () =
  let h = setup () in
  init_chain h;
  let txs =
    List.init 20 (fun i ->
        tx h ~user:"org1/alice" ~contract:"put" [ Value.Int (500 + i); Value.Int i ])
  in
  let block = Assembler.make h.chain txs in
  let height = block.Block.height in
  Node_core.process_block_with_crash (node h 0) (checked h block)
    ~crash:(Node_core.Crash_mid_commit 5);
  (match Node_core.process_block (node h 1) block with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Node_core.recover (node h 0) with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "interrupted block not re-executed"
  | Error e -> Alcotest.fail e);
  let entries n =
    match Node_core.write_set_entries_at (node h n) ~height with
    | Some e -> e
    | None -> Alcotest.failf "no write set at %d on node %d" height n
  in
  let recovered = entries 0 in
  Alcotest.(check (list string)) "same entries as the healthy node" (entries 1) recovered;
  Alcotest.(check int) "20 entries" 20 (List.length recovered);
  let proof n entry =
    match
      Brdb_client.Proof.build_provenance (node h n) ~height ~matches:(String.equal entry)
    with
    | Ok pv -> pv
    | Error e -> Alcotest.failf "build_provenance on node %d: %s" n e
  in
  let tip_digest = Brdb_client.Proof.tip_digest (node h 0) in
  List.iteri
    (fun i entry ->
      let pv = proof 0 entry in
      let path pv = Brdb_crypto.Merkle.proof_to_string pv.Brdb_client.Proof.pv_proof in
      Alcotest.(check string) (Printf.sprintf "entry %d: reference path" i)
        (Merkle_ref.proof recovered i) (path pv);
      Alcotest.(check string) (Printf.sprintf "entry %d: healthy node's path" i)
        (path (proof 1 entry)) (path pv);
      Alcotest.(check bool) (Printf.sprintf "entry %d verifies" i) true
        (Brdb_client.Proof.verify_provenance ~tip_digest pv))
    recovered

let test_recover_after_ledger_entries () =
  crash_recovery_scenario Node_core.Crash_after_ledger_entries true

let test_recover_mid_commit () =
  crash_recovery_scenario (Node_core.Crash_mid_commit 1) true

let test_recover_before_status_step () =
  crash_recovery_scenario Node_core.Crash_before_status_step true

let test_recover_atomic_commit_mid_crash () =
  (* §3.6 remark: with atomic whole-block commit a mid-block crash leaves
     no partial state; recovery always re-executes the block and converges. *)
  crash_recovery_scenario ~atomic_commit:true (Node_core.Crash_mid_commit 2) true

let test_recover_atomic_commit_before_status () =
  crash_recovery_scenario ~atomic_commit:true Node_core.Crash_before_status_step true

let test_recover_eo_after_ledger_entries () =
  crash_recovery_scenario ~flow:Node_core.Execute_order
    Node_core.Crash_after_ledger_entries true

let test_recover_eo_mid_commit () =
  crash_recovery_scenario ~flow:Node_core.Execute_order (Node_core.Crash_mid_commit 1)
    true

let test_recover_eo_before_status_step () =
  crash_recovery_scenario ~flow:Node_core.Execute_order
    Node_core.Crash_before_status_step true

let test_recover_serial_mid_commit () =
  crash_recovery_scenario ~flow:Node_core.Serial_baseline (Node_core.Crash_mid_commit 1)
    true

let test_recover_serial_atomic_commit () =
  crash_recovery_scenario ~flow:Node_core.Serial_baseline ~atomic_commit:true
    Node_core.Crash_before_status_step true

(* The orderer hashes and signs a block over a transaction whose args
   were changed after the client signed it, so the block itself verifies.
   Payloads are recomputed from the received contents on both the normal
   path and the §3.6 re-execution path, so that transaction alone is
   rejected there, and every node ends in the same state. *)
let test_tampered_tx_rejected_on_both_paths () =
  let h = setup ~n_nodes:3 () in
  init_chain h;
  let victim = tx h ~user:"org2/bob" ~contract:"put" [ Value.Int 2; Value.Int 20 ] in
  let txs =
    [
      tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 10 ];
      { victim with Block.tx_args = [ Value.Int 2; Value.Int 999 ] };
      tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 3; Value.Int 30 ];
    ]
  in
  let block = Assembler.make h.chain txs in
  let height = block.Block.height in
  Alcotest.(check bool) "block verifies" true (Block.verify h.registry block);
  let expected = [ "committed"; "rejected: invalid client signature"; "committed" ] in
  let check_statuses label (r : Node_core.block_result) =
    Alcotest.(check (list string)) label expected
      (List.map status_to_string (statuses r))
  in
  (* node 0 crashes before any commit and re-executes the stored block *)
  Node_core.process_block_with_crash (node h 0) (checked h block)
    ~crash:Node_core.Crash_after_ledger_entries;
  (match Node_core.recover (node h 0) with
  | Ok (Some r) -> check_statuses "recovered statuses" r
  | Ok None -> Alcotest.fail "expected a re-execution"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun i ->
      match Node_core.process_block (node h i) block with
      | Ok r -> check_statuses "statuses" r
      | Error e -> Alcotest.fail e)
    [ 1; 2 ];
  let digest i = Node_core.state_digest (node h i) ~height in
  Alcotest.(check bool) "digest present" true (digest 0 <> None);
  List.iter
    (fun i -> Alcotest.(check (option string)) "state digests equal" (digest 0) (digest i))
    [ 1; 2 ];
  List.iter
    (fun n ->
      Alcotest.(check int) "only the untampered rows" 2 (query_int n "SELECT COUNT(*) FROM kv");
      Alcotest.(check int) "no tampered value" 0
        (query_int n "SELECT COUNT(*) FROM kv WHERE v = 999"))
    h.nodes

let test_recover_empty_block () =
  (* A crash while processing a block with no transactions leaves no
     ledger entry to recover from; recovery must still finish the stored
     block, or the node never records its digest and cannot chain the
     next one. *)
  let h = setup () in
  init_chain h;
  let block = Assembler.make h.chain [] in
  let height = block.Block.height in
  Node_core.process_block_with_crash (node h 0) (checked h block)
    ~crash:Node_core.Crash_after_ledger_entries;
  (match Node_core.process_block (node h 1) block with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Node_core.recover (node h 0) with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "expected a re-execution"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option string)) "state digest matches reference"
    (Node_core.state_digest (node h 1) ~height)
    (Node_core.state_digest (node h 0) ~height);
  check_identical h
    (deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ] ])

(* §3.6 recovery re-executes the stored block without judging its orderer
   signatures again: the block was authenticated when it was appended,
   and an on-commit hook that ran before the crash has since removed its
   orderer's key. *)
let test_recover_after_orderer_revoked () =
  let h = setup ~n_nodes:1 () in
  init_chain h;
  let block =
    Assembler.make h.chain
      [
        tx h ~user:"org1/admin" ~contract:"delete_user" [ Value.Text "orderer/1" ];
        tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ];
      ]
  in
  let height = block.Block.height in
  Node_core.process_block_with_crash (node h 0) (checked h block)
    ~crash:(Node_core.Crash_mid_commit 1);
  Alcotest.(check bool) "orderer key removed before the crash" false
    (Identity.Registry.verify h.registry ~name:"orderer/1" "m"
       (Identity.sign (Identity.create "orderer/1") "m"));
  (match Node_core.recover (node h 0) with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "expected a re-execution"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "state digest recorded" true
    (Node_core.state_digest (node h 0) ~height <> None)

let test_recover_noop_when_consistent () =
  let h = setup ~n_nodes:1 () in
  init_chain h;
  ignore (deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ] ]);
  match Node_core.recover (node h 0) with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "unexpected repair"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------- tampering *)

let test_block_store_tamper_detection () =
  let h = setup ~n_nodes:1 () in
  init_chain h;
  ignore (deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 1 ] ]);
  let store = Node_core.block_store (node h 0) in
  (match Block_ref.audit store h.registry with
  | Ok () -> ()
  | Error height -> Alcotest.failf "clean chain flagged at %d" height);
  (* Tamper with block 2's transactions. *)
  (match Brdb_ledger.Block_store.get store 2 with
  | None -> Alcotest.fail "block 2 missing"
  | Some b ->
      let forged = { b with Block.txs = [] } in
      Brdb_ledger.Block_store.Testing.tamper store 2 forged);
  match Block_ref.audit store h.registry with
  | Ok () -> Alcotest.fail "tampering undetected"
  | Error height -> Alcotest.(check int) "detected at block 2" 2 height

let test_checkpoint_divergence () =
  let cp = Brdb_ledger.Checkpoint.create ~self:"db-1" ~peers:[ "db-1"; "db-2"; "db-3" ] in
  Brdb_ledger.Checkpoint.record_local cp ~height:1 ~hash:"aaa";
  Brdb_ledger.Checkpoint.receive cp ~from:"db-2" ~height:1 ~hash:"aaa";
  Brdb_ledger.Checkpoint.receive cp ~from:"db-3" ~height:1 ~hash:"bbb";
  Alcotest.(check (list string)) "db-3 diverges" [ "db-3" ]
    (Brdb_ledger.Checkpoint.divergent cp ~height:1);
  Alcotest.(check int) "not checkpointed" 0 (Brdb_ledger.Checkpoint.checkpointed_height cp);
  Brdb_ledger.Checkpoint.receive cp ~from:"db-3" ~height:1 ~hash:"aaa";
  Alcotest.(check int) "checkpointed" 1 (Brdb_ledger.Checkpoint.checkpointed_height cp)

(* ------------------------------------------------- wave commit (DESIGN.md §14) *)

(* Blocks whose dependency edges split them into several waves: decisions,
   write-set hashes and state must still match block-order commit. The
   edge builder itself is unit-tested in test_block_deps.ml. *)

let test_parallel_ww_chain_one_block () =
  let h = setup () in
  init_chain h;
  ignore
    (deliver h [ tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 1; Value.Int 0 ] ]);
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"bump" [ Value.Int 1 ];
        tx h ~user:"org2/bob" ~contract:"bump" [ Value.Int 1 ];
        tx h ~user:"org2/bob" ~contract:"put" [ Value.Int 5; Value.Int 5 ];
      ]
  in
  check_identical h results;
  (match statuses (List.hd results) with
  | [ s0; s1; s2 ] ->
      Alcotest.(check bool) "first bump commits" true (is_committed s0);
      Alcotest.(check bool) "second bump aborts (ww)" true (is_aborted s1);
      Alcotest.(check bool) "independent put commits" true (is_committed s2)
  | _ -> Alcotest.fail "expected 3 statuses");
  (* the ww claim chain forces the bumps into successive waves; the
     independent put stays in wave 0 *)
  Alcotest.(check (array int)) "waves" [| 0; 1; 0 |]
    (List.hd results).Node_core.br_waves;
  List.iter
    (fun n ->
      Alcotest.(check int) "k=1 bumped exactly once" 1
        (query_int n "SELECT v FROM kv WHERE k = 1"))
    h.nodes

let test_parallel_rw_edge_across_waves () =
  let h = setup () in
  init_chain h;
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"withdraw" [ Value.Int 1; Value.Int 2 ];
        tx h ~user:"org2/bob" ~contract:"withdraw" [ Value.Int 2; Value.Int 1 ];
      ]
  in
  check_identical h results;
  (match statuses (List.hd results) with
  | [ s0; s1 ] ->
      Alcotest.(check bool) "first withdraw commits" true (is_committed s0);
      Alcotest.(check bool) "second aborts (write skew)" true (is_aborted s1)
  | _ -> Alcotest.fail "expected 2 statuses");
  let waves = (List.hd results).Node_core.br_waves in
  Alcotest.(check bool) "rw edge separates the waves" true (waves.(0) < waves.(1))

let test_parallel_duplicate_pk_waves () =
  let h = setup () in
  init_chain h;
  let results =
    deliver h
      [
        tx h ~user:"org1/alice" ~contract:"put" [ Value.Int 7; Value.Int 1 ];
        tx h ~user:"org2/bob" ~contract:"put" [ Value.Int 7; Value.Int 2 ];
      ]
  in
  check_identical h results;
  (match statuses (List.hd results) with
  | [ s0; s1 ] ->
      Alcotest.(check bool) "first insert commits" true (is_committed s0);
      Alcotest.(check bool) "duplicate pk aborts" true (is_aborted s1)
  | _ -> Alcotest.fail "expected 2 statuses");
  (* without the unique-key chain both inserts would sit in wave 0 and
     both would commit *)
  Alcotest.(check (array int)) "unique-key chain separates waves" [| 0; 1 |]
    (List.hd results).Node_core.br_waves;
  List.iter
    (fun n ->
      Alcotest.(check int) "winner's value survives" 1
        (query_int n "SELECT v FROM kv WHERE k = 7"))
    h.nodes

(* The ledger description, formatted as it was with Printf. *)
let test_describe_tx_bytes () =
  let h_tx args =
    Block.make_tx ~id:"d-1" ~identity:(identity_of "org1/alice") ~contract:"put" ~args
  in
  List.iter
    (fun args ->
      let tx = h_tx args in
      Alcotest.(check string) "description"
        (Printf.sprintf "%s(%s)" tx.Block.tx_contract
           (String.concat ", " (List.map Value.to_string tx.Block.tx_args)))
        (Node_core.Testing.describe_tx tx))
    [
      [];
      [ Value.Int 7 ];
      [ Value.Int min_int; Value.Float 2.5; Value.Float (-0.); Value.Text "a, b(c)";
        Value.Bool true; Value.Null; Value.Text "" ];
    ]

let suites =
  [
    ( "node.oe",
      [
        Alcotest.test_case "transaction description bytes" `Quick test_describe_tx_bytes;
        Alcotest.test_case "basic commit" `Quick test_oe_basic_commit;
        Alcotest.test_case "empty block" `Quick test_empty_block;
        Alcotest.test_case "ledger records" `Quick test_oe_ledger_records;
        Alcotest.test_case "reads ignore client ids" `Quick test_reads_ignore_client_ids;
        Alcotest.test_case "bad signature" `Quick test_oe_bad_signature_rejected;
        Alcotest.test_case "unknown user" `Quick test_oe_unknown_user_rejected;
        Alcotest.test_case "non-canonical signature" `Quick
          test_oe_noncanonical_signature_rejected;
        Alcotest.test_case "duplicate txid" `Quick test_oe_duplicate_txid;
        Alcotest.test_case "contract failure" `Quick test_oe_contract_failure_aborts;
        Alcotest.test_case "unknown contract" `Quick test_oe_unknown_contract_aborts;
        Alcotest.test_case "write skew detected" `Quick test_oe_write_skew_detected;
        Alcotest.test_case "write skew across blocks" `Quick test_oe_write_skew_sequential_blocks_ok;
        Alcotest.test_case "ww first in block wins" `Quick test_oe_ww_first_in_block_wins;
        Alcotest.test_case "duplicate pk in block" `Quick test_oe_duplicate_pk_in_block;
        Alcotest.test_case "same-block read-your-write aborts" `Quick
          test_oe_same_block_insert_then_bump_aborts;
      ] );
    ( "node.eo",
      [
        Alcotest.test_case "pre-execute and commit" `Quick test_eo_pre_execute_and_commit;
        Alcotest.test_case "stale read aborts" `Quick test_eo_stale_read_aborts;
        Alcotest.test_case "phantom aborts" `Quick test_eo_phantom_aborts;
        Alcotest.test_case "cross-block write skew" `Quick test_eo_concurrent_cross_block;
        Alcotest.test_case "requires index" `Quick test_eo_requires_index;
        Alcotest.test_case "blind update rejected" `Quick test_eo_blind_update_rejected;
      ] );
    ( "node.serial",
      [
        Alcotest.test_case "baseline sees predecessors" `Quick test_serial_baseline_sees_predecessors;
      ] );
    ( "node.governance",
      [
        Alcotest.test_case "deployment workflow" `Quick test_deployment_workflow;
        Alcotest.test_case "rejection" `Quick test_deployment_rejection;
        Alcotest.test_case "requires admin" `Quick test_deployment_requires_admin;
        Alcotest.test_case "determinism guard" `Quick test_deployment_determinism_guard;
        Alcotest.test_case "user management" `Quick test_user_management;
        Alcotest.test_case "update conflict on deploy" `Quick test_update_conflict_on_deploy;
      ] );
    ( "node.provenance",
      [
        Alcotest.test_case "audit queries" `Quick test_provenance_audit;
        Alcotest.test_case "prune" `Quick test_prune;
      ] );
    ( "node.recovery",
      [
        Alcotest.test_case "crash after ledger entries" `Quick test_recover_after_ledger_entries;
        Alcotest.test_case "crash mid-commit" `Quick test_recover_mid_commit;
        Alcotest.test_case "crash mid-commit: proofs from the rebuilt tree" `Quick
          test_recover_mid_commit_serves_proofs;
        Alcotest.test_case "crash before status step" `Quick test_recover_before_status_step;
        Alcotest.test_case "atomic block commit: mid-crash" `Quick test_recover_atomic_commit_mid_crash;
        Alcotest.test_case "atomic block commit: before status" `Quick
          test_recover_atomic_commit_before_status;
        Alcotest.test_case "EO: crash after ledger entries" `Quick
          test_recover_eo_after_ledger_entries;
        Alcotest.test_case "EO: crash mid-commit" `Quick test_recover_eo_mid_commit;
        Alcotest.test_case "EO: crash before status step" `Quick
          test_recover_eo_before_status_step;
        Alcotest.test_case "serial baseline: crash mid-block" `Quick
          test_recover_serial_mid_commit;
        Alcotest.test_case "serial baseline: atomic block commit" `Quick
          test_recover_serial_atomic_commit;
        Alcotest.test_case "crash on an empty block" `Quick test_recover_empty_block;
        Alcotest.test_case "recovery after the orderer is revoked" `Quick
          test_recover_after_orderer_revoked;
        Alcotest.test_case "no-op when consistent" `Quick test_recover_noop_when_consistent;
        Alcotest.test_case "tampered tx rejected on normal and recovery paths" `Quick
          test_tampered_tx_rejected_on_both_paths;
      ] );
    ( "node.parallel",
      [
        Alcotest.test_case "ww chain splits waves, state identical" `Quick
          test_parallel_ww_chain_one_block;
        Alcotest.test_case "rw edge crosses a wave boundary" `Quick
          test_parallel_rw_edge_across_waves;
        Alcotest.test_case "duplicate pk forced into later wave" `Quick
          test_parallel_duplicate_pk_waves;
      ] );
    ( "node.security",
      [
        Alcotest.test_case "block store tampering" `Quick test_block_store_tamper_detection;
        Alcotest.test_case "checkpoint divergence" `Quick test_checkpoint_divergence;
      ] );
  ]
