module B = Brdb_core.Blockchain_db
module Value = Brdb_storage.Value
module Node_core = Brdb_node.Node_core
module Peer = Brdb_node.Peer
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api

let init_net ?n_nodes_ignored:_ ?(flow = Node_core.Order_execute) ?(ordering = Brdb_consensus.Service.Solo)
    ?(n_orderers = 1) ?(block_size = 10) () =
  let config =
    {
      (B.default_config ()) with
      B.flow;
      ordering;
      n_orderers;
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

let count_rows net ?node () =
  match B.query net ?node "SELECT COUNT(*) FROM kv" with
  | Ok rs -> (
      match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Int n |] ] -> n
      | _ -> Alcotest.fail "bad count result")
  | Error e -> Alcotest.fail e

let submit_puts net user n =
  List.init n (fun i ->
      B.submit net ~user ~contract:"put" ~args:[ Value.Int (i + 1); Value.Int (10 * i) ])

let test_oe_end_to_end () =
  let net = init_net () in
  let alice = B.register_user net "org1/alice" in
  let ids = submit_puts net alice 25 in
  B.settle net;
  List.iter
    (fun id ->
      match B.status net id with
      | Some B.Committed -> ()
      | s ->
          Alcotest.failf "tx %s not committed: %s" id
            (match s with
            | Some (B.Aborted r) -> "aborted " ^ r
            | Some (B.Rejected r) -> "rejected " ^ r
            | _ -> "undecided"))
    ids;
  (* all three replicas agree *)
  List.iteri (fun i _ -> Alcotest.(check int) "rows" 25 (count_rows net ~node:i ())) (B.peers net);
  (* checkpoints agree across the network *)
  List.iter
    (fun p ->
      let cp = Peer.checkpoints p in
      Alcotest.(check (list string)) "no divergence" []
        (Brdb_ledger.Checkpoint.divergent cp
           ~height:(Node_core.height (Peer.core p))))
    (B.peers net)

let test_eo_end_to_end_with_kafka () =
  let net =
    init_net ~flow:Node_core.Execute_order ~ordering:Brdb_consensus.Service.Kafka
      ~n_orderers:3 ()
  in
  let alice = B.register_user net "org1/alice" in
  let bob = B.register_user net "org2/bob" in
  let ids = submit_puts net alice 10 in
  let ids2 =
    List.init 10 (fun i ->
        B.submit net ~user:bob ~contract:"put"
          ~args:[ Value.Int (100 + i); Value.Int i ])
  in
  B.settle net;
  List.iter
    (fun id ->
      match B.status net id with
      | Some B.Committed -> ()
      | _ -> Alcotest.failf "tx %s not committed" id)
    (ids @ ids2);
  List.iteri (fun i _ -> Alcotest.(check int) "rows" 20 (count_rows net ~node:i ())) (B.peers net)

let test_serial_baseline_end_to_end () =
  let net = init_net ~flow:Node_core.Serial_baseline () in
  let alice = B.register_user net "org1/alice" in
  let ids = submit_puts net alice 15 in
  B.settle net;
  List.iter
    (fun id ->
      match B.status net id with
      | Some B.Committed -> ()
      | _ -> Alcotest.failf "tx %s not committed" id)
    ids;
  Alcotest.(check int) "rows" 15 (count_rows net ())

let test_conflicting_submissions () =
  (* Everyone tries to insert the same key: exactly one commits. *)
  let net = init_net () in
  let alice = B.register_user net "org1/alice" in
  let ids =
    List.init 5 (fun i ->
        B.submit net ~user:alice ~contract:"put" ~args:[ Value.Int 7; Value.Int i ])
  in
  B.settle net;
  let finals = List.filter_map (B.status net) ids in
  let committed = List.filter (fun s -> s = B.Committed) finals in
  Alcotest.(check int) "all decided" 5 (List.length finals);
  Alcotest.(check int) "one winner" 1 (List.length committed);
  Alcotest.(check int) "one row" 1 (count_rows net ())

let test_metrics_populated () =
  let net = init_net ~block_size:5 () in
  let alice = B.register_user net "org1/alice" in
  ignore (submit_puts net alice 20);
  B.settle net;
  let duration = Brdb_sim.Clock.now (B.clock net) in
  let s = B.summary net ~duration_s:duration in
  Alcotest.(check int) "committed (incl. init)" 21 s.B.committed;
  Alcotest.(check bool) "throughput > 0" true (s.B.throughput_tps > 0.);
  Alcotest.(check bool) "latency > 0" true (s.B.avg_latency_s > 0.);
  Alcotest.(check bool) "bpt > 0" true (s.B.bpt_ms > 0.);
  Alcotest.(check bool) "blocks received" true (s.B.brr > 0.);
  Alcotest.(check bool) "OE nodes record no block.missing_txs row" false
    (List.exists
       (fun e -> e.Brdb_obs.Registry.e_name = "block.missing_txs")
       (Brdb_obs.Registry.snapshot (Brdb_obs.Obs.metrics (B.obs net))))

(* The summary is a read-only view of the registry. Node 0 sits behind
   slow links from its fellow peers (the orderer link stays fast), so
   blocks reach it before the transactions forwarded by db-org2/db-org3:
   it executes them as missing transactions (§3.4.1) and mt > 0. *)
let test_summary_is_registry_view () =
  let net = init_net ~flow:Node_core.Execute_order () in
  let slow = { Brdb_sim.Network.latency_s = 0.2; bandwidth_bps = 50e6 } in
  List.iter
    (fun src -> Brdb_consensus.Msg.Net.set_link (B.net net) ~src ~dst:"db-org1" slow)
    [ "db-org2"; "db-org3" ];
  let alice = B.register_user net "org1/alice" in
  let ids = submit_puts net alice 30 in
  B.settle net;
  let duration = Brdb_sim.Clock.now (B.clock net) in
  let s = B.summary net ~duration_s:duration in
  let reg = Brdb_obs.Obs.metrics (B.obs net) in
  let module Reg = Brdb_obs.Registry in
  let mean ~node name =
    match Reg.histogram reg ~node name with
    | Some h -> Reg.Stat.mean h
    | None -> Alcotest.failf "histogram %s/%s missing" node name
  in
  let committed =
    List.length (List.filter (fun id -> B.status net id = Some B.Committed) ids)
  in
  Alcotest.(check int) "committed = decided.committed" s.B.committed
    (Reg.counter reg ~node:"cluster" "decided.committed");
  Alcotest.(check int) "every put committed (plus init)" (committed + 1)
    s.B.committed;
  Alcotest.(check (float 0.)) "bet_ms = mean of node 0's phase.bet_ms"
    (mean ~node:"db-org1" "phase.bet_ms") s.B.bet_ms;
  let missing = Reg.counter reg ~node:"db-org1" "block.missing_txs" in
  Alcotest.(check bool) "lagging node executed missing txs" true (missing > 0);
  Alcotest.(check (float 0.)) "mt_per_s = block.missing_txs / duration"
    (float_of_int missing /. duration) s.B.mt_per_s;
  Alcotest.(check (float 0.)) "avg_latency_s = mean of decided.latency_s"
    (mean ~node:"cluster" "decided.latency_s") s.B.avg_latency_s

let test_crash_and_catchup () =
  let net = init_net () in
  let alice = B.register_user net "org1/alice" in
  ignore (submit_puts net alice 5);
  B.settle net;
  let victim = B.peer net 2 in
  Peer.crash victim;
  let more =
    List.init 5 (fun i ->
        B.submit net ~user:alice ~contract:"put"
          ~args:[ Value.Int (50 + i); Value.Int i ])
  in
  B.settle net;
  List.iter
    (fun id ->
      (* majority (2 of 3) still commits *)
      match B.status net id with
      | Some B.Committed -> ()
      | _ -> Alcotest.fail "network lost liveness with one node down")
    more;
  Alcotest.(check int) "victim is behind" 5 (count_rows net ~node:2 ());
  (* restart: the peer fetches the missed blocks from the others' block
     stores on its own (§3.6 catch-up) *)
  Peer.restart victim;
  B.run net ~seconds:0.5;
  let healthy = Peer.core (B.peer net 0) in
  let victim_core = Peer.core victim in
  Alcotest.(check int) "caught up" 10 (count_rows net ~node:2 ());
  Alcotest.(check bool) "blocks came through fetch" true
    (Peer.fetched_blocks victim > 0);
  Alcotest.(check int) "same height"
    (Node_core.height healthy) (Node_core.height victim_core)

let test_eo_vs_oe_same_final_state () =
  (* Same workload under both flows ends in the same table contents. *)
  let run flow =
    let net = init_net ~flow () in
    let alice = B.register_user net "org1/alice" in
    ignore (submit_puts net alice 12);
    B.settle net;
    match B.query net "SELECT k, v FROM kv ORDER BY k" with
    | Ok rs ->
        List.map
          (fun row -> Array.to_list (Array.map Value.to_string row))
          rs.Brdb_engine.Exec.rows
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list (list string)))
    "flows agree"
    (run Node_core.Order_execute)
    (run Node_core.Execute_order)

let test_verified_query () =
  let net = init_net ~n_nodes_ignored:() () in
  let alice = B.register_user net "org1/alice" in
  ignore (submit_puts net alice 3);
  B.settle net;
  (match B.verified_query net "SELECT COUNT(*) FROM kv" with
  | Ok (rs, divergent) ->
      Alcotest.(check (list string)) "all agree" [] divergent;
      (match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Int 3 |] ] -> ()
      | _ -> Alcotest.fail "wrong majority answer")
  | Error e -> Alcotest.fail e);
  (* §3.5(5): one node tampers with its local data; cross-checking flags it. *)
  let victim = Peer.core (B.peer net 2) in
  let catalog = Node_core.catalog victim in
  (match Brdb_storage.Catalog.find catalog "kv" with
  | None -> Alcotest.fail "kv missing"
  | Some table ->
      Brdb_storage.Table.iter_versions table (fun v ->
          v.Brdb_storage.Version.values.(1) <- Value.Int 666));
  match B.verified_query net "SELECT k, v FROM kv ORDER BY k" with
  | Ok (_, divergent) ->
      Alcotest.(check (list string)) "tamperer flagged" [ "db-org3" ] divergent
  | Error e -> Alcotest.fail e

let test_bft_wan_end_to_end () =
  (* byzantine ordering service over WAN links, OE flow *)
  let config =
    {
      (B.default_config ()) with
      B.ordering = Brdb_consensus.Service.Bft;
      n_orderers = 4;
      block_size = 10;
      block_timeout = 0.25;
      link = Brdb_sim.Network.wan_link;
    }
  in
  let net = B.create config in
  B.install_contract net ~name:"init"
    (Registry.Native
       (fun ctx -> ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")));
  (match B.install_contract_source net ~name:"put" "INSERT INTO kv VALUES ($1, $2)" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (B.submit net ~user:(B.admin net "org1") ~contract:"init" ~args:[]);
  B.settle net;
  let alice = B.register_user net "org1/alice" in
  let ids =
    List.init 8 (fun i ->
        B.submit net ~user:alice ~contract:"put" ~args:[ Value.Int i; Value.Int i ])
  in
  B.settle net;
  List.iter
    (fun id ->
      match B.status net id with
      | Some B.Committed -> ()
      | _ -> Alcotest.failf "tx %s not committed under BFT/WAN" id)
    ids;
  List.iteri (fun i _ -> Alcotest.(check int) "rows" 8 (count_rows net ~node:i ())) (B.peers net)

let test_on_decided_notifications () =
  let net = init_net () in
  let alice = B.register_user net "org1/alice" in
  let log = ref [] in
  B.on_decided net (fun ~tx_id status ->
      log := (tx_id, status) :: !log);
  let ok = B.submit net ~user:alice ~contract:"put" ~args:[ Value.Int 1; Value.Int 1 ] in
  let dup = B.submit net ~user:alice ~contract:"put" ~args:[ Value.Int 1; Value.Int 2 ] in
  B.settle net;
  Alcotest.(check int) "two notifications" 2 (List.length !log);
  (* The ordering service, not submission order, decides which of the two
     conflicting inserts wins — assert one commit, one duplicate-key
     abort, and that notifications agree with [status]. *)
  let outcomes = List.map snd !log in
  Alcotest.(check int) "one committed" 1
    (List.length (List.filter (fun s -> s = B.Committed) outcomes));
  Alcotest.(check int) "one aborted" 1
    (List.length
       (List.filter (function B.Aborted _ -> true | _ -> false) outcomes));
  List.iter
    (fun id ->
      match (B.status net id, List.assoc_opt id !log) with
      | Some s1, Some s2 when s1 = s2 -> ()
      | _ -> Alcotest.failf "notification disagrees with status for %s" id)
    [ ok; dup ]

let suites =
  [
    ( "core.network",
      [
        Alcotest.test_case "OE end to end" `Quick test_oe_end_to_end;
        Alcotest.test_case "EO + kafka end to end" `Quick test_eo_end_to_end_with_kafka;
        Alcotest.test_case "serial baseline" `Quick test_serial_baseline_end_to_end;
        Alcotest.test_case "conflicting submissions" `Quick test_conflicting_submissions;
        Alcotest.test_case "metrics populated" `Quick test_metrics_populated;
        Alcotest.test_case "summary is a registry view" `Quick
          test_summary_is_registry_view;
        Alcotest.test_case "crash and catch-up" `Quick test_crash_and_catchup;
        Alcotest.test_case "OE = EO final state" `Quick test_eo_vs_oe_same_final_state;
        Alcotest.test_case "verified query flags tampering" `Quick test_verified_query;
        Alcotest.test_case "on_decided notifications" `Quick test_on_decided_notifications;
        Alcotest.test_case "BFT ordering over WAN" `Quick test_bft_wan_end_to_end;
      ] );
  ]
