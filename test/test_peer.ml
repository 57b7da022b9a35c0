(** Peer-level tests: the network wrapper around {!Node_core} — EO
    transaction forwarding, deferred snapshots, block pipelining, and
    checkpoint gossip. *)

module Peer = Brdb_node.Peer
module Node_core = Brdb_node.Node_core
module Msg = Brdb_consensus.Msg
module Block = Brdb_ledger.Block
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api

type fx = {
  clock : Clock.t;
  net : Msg.Net.net;
  registry : Identity.Registry.t;
  orderer : Identity.t;
  admin : Identity.t;
  client : Identity.t;
  mutable peers : Peer.t list;
  mutable prev : Block.t option;
  mutable orderer_inbox : Block.tx list;  (** txs the fake orderer received *)
}

let put_contract =
  Registry.Native (fun ctx -> ignore (Api.execute ctx "INSERT INTO kv VALUES ($1, $2)"))

let setup_contract =
  Registry.Native
    (fun ctx -> ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)"))

let make_fx ?(flow = Node_core.Execute_order) ?(checkpoint_interval = 1) ?(n = 3)
    ?(own_registries = false) ?(snapshot_threshold = 0)
    ?(snapshot_chunk_size = Brdb_snapshot.Chunk.default_size)
    ?(compaction = Brdb_snapshot.Snapshot.Archive) () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:5 in
  let net = Msg.Net.create ~clock ~rng ~default_link:Brdb_sim.Network.lan_link in
  let orderer = Identity.create "orderer/1" in
  let admin = Identity.create "org1/admin" in
  let client = Identity.create "org1/alice" in
  let new_registry () =
    let r = Identity.Registry.create () in
    List.iter
      (fun id ->
        match Identity.Registry.register r id with Ok () -> () | Error _ -> assert false)
      [ orderer; admin; client ];
    r
  in
  let registry = new_registry () in
  let peer_names = List.init n (fun i -> Printf.sprintf "peer-%d" (i + 1)) in
  let fx =
    {
      clock;
      net;
      registry;
      orderer;
      admin;
      client;
      peers = [];
      prev = None;
      orderer_inbox = [];
    }
  in
  (* a fake ordering service endpoint that records submissions *)
  Msg.Net.register net ~name:"orderer-1" (fun ~src:_ msg ->
      match msg with
      | Msg.Client_tx tx -> fx.orderer_inbox <- tx :: fx.orderer_inbox
      | _ -> ());
  let peers =
    List.map
      (fun name ->
        let p =
          Peer.create ~net
            {
              Peer.core =
                Node_core.make_config ~name ~org:"org1" ~flow ~orgs:[ "org1" ] ();
              contract_class_of = (fun _ -> Brdb_sim.Cost_model.Simple);
              orderer_target = "orderer-1";
              peer_names;
              forward_delay_mean = 0.;
              checkpoint_interval;
              (* these tests run the clock until the queue drains, so the
                 perpetual anti-entropy probe must stay off *)
              sync_interval = 0.;
              snapshot_threshold;
              snapshot_chunk_size;
              compaction;
              parallel_validation = false;
            }
            ~registry:(if own_registries then new_registry () else registry)
        in
        List.iter
          (fun contract_name ->
            Node_core.install_contract (Peer.core p) ~name:contract_name
              (if contract_name = "setup" then setup_contract else put_contract))
          [ "setup"; "put" ];
        p)
      peer_names
  in
  fx.peers <- peers;
  fx

let deliver_block fx txs =
  let height = (match fx.prev with None -> 0 | Some b -> b.Block.height) + 1 in
  let prev_hash = match fx.prev with None -> Block.genesis_hash | Some b -> b.Block.hash in
  let block = Block.sign (Block.create ~height ~txs ~metadata:"t" ~prev_hash) fx.orderer in
  fx.prev <- Some block;
  List.iter
    (fun p ->
      ignore
        (Msg.Net.send fx.net ~src:"orderer-1" ~dst:(Peer.name p)
           ~size_bytes:(Msg.size (Msg.Block_deliver block))
           (Msg.Block_deliver block)))
    fx.peers;
  ignore (Clock.run fx.clock)

let init_chain fx =
  deliver_block fx
    [ Block.make_tx ~id:"setup" ~identity:fx.admin ~contract:"setup" ~args:[] ]

let heights fx = List.map (fun p -> Node_core.height (Peer.core p)) fx.peers

let test_eo_forwarding () =
  let fx = make_fx () in
  init_chain fx;
  (* a client submits to peer 1 only; the peer forwards to the others and
     to the ordering service *)
  let tx =
    Block.make_eo_tx ~identity:fx.client ~contract:"put"
      ~args:[ Value.Int 1; Value.Int 1 ] ~snapshot:1
  in
  ignore
    (Msg.Net.send fx.net ~src:"client/alice" ~dst:"peer-1"
       ~size_bytes:(Msg.size (Msg.Client_tx tx))
       (Msg.Client_tx tx));
  ignore (Clock.run fx.clock);
  Alcotest.(check int) "orderer got it" 1 (List.length fx.orderer_inbox);
  (* all three peers have it pre-executed (pending) *)
  List.iter
    (fun p ->
      Alcotest.(check int) "pre-executed" 1
        (Brdb_txn.Manager.pending_count (Node_core.manager (Peer.core p))))
    fx.peers;
  (* and only ONE copy was forwarded to the orderer (no forwarding loops) *)
  deliver_block fx [ tx ];
  List.iter
    (fun p ->
      Alcotest.(check int) "committed everywhere" 2 (Node_core.height (Peer.core p)))
    fx.peers

let test_eo_deferred_snapshot () =
  let fx = make_fx () in
  init_chain fx;
  (* a transaction pinned at a FUTURE snapshot height arrives early: the
     peer defers execution until it has processed enough blocks (§3.4.1) *)
  let tx =
    Block.make_eo_tx ~identity:fx.client ~contract:"put"
      ~args:[ Value.Int 7; Value.Int 7 ] ~snapshot:2
  in
  ignore
    (Msg.Net.send fx.net ~src:"client/alice" ~dst:"peer-1"
       ~size_bytes:(Msg.size (Msg.Client_tx tx))
       (Msg.Client_tx tx));
  ignore (Clock.run fx.clock);
  let p1 = List.hd fx.peers in
  Alcotest.(check int) "not executing yet" 0
    (Brdb_txn.Manager.pending_count (Node_core.manager (Peer.core p1)));
  (* an unrelated block lifts the height to 2; the deferred tx then runs *)
  deliver_block fx
    [
      Block.make_tx ~id:"filler" ~identity:fx.client ~contract:"put"
        ~args:[ Value.Int 1; Value.Int 1 ];
    ];
  Alcotest.(check int) "executing after catch-up" 1
    (Brdb_txn.Manager.pending_count (Node_core.manager (Peer.core p1)));
  deliver_block fx [ tx ];
  Alcotest.(check (list int)) "all at height 3" [ 3; 3; 3 ] (heights fx)

let test_out_of_order_blocks_buffered () =
  let fx = make_fx ~flow:Node_core.Order_execute () in
  init_chain fx;
  (* build blocks 2 and 3 but deliver 3 first *)
  let mk txs =
    let height = (match fx.prev with None -> 0 | Some b -> b.Block.height) + 1 in
    let prev_hash =
      match fx.prev with None -> Block.genesis_hash | Some b -> b.Block.hash
    in
    let b = Block.sign (Block.create ~height ~txs ~metadata:"t" ~prev_hash) fx.orderer in
    fx.prev <- Some b;
    b
  in
  let b2 =
    mk [ Block.make_tx ~id:"a" ~identity:fx.client ~contract:"put" ~args:[ Value.Int 1; Value.Int 1 ] ]
  in
  let b3 =
    mk [ Block.make_tx ~id:"b" ~identity:fx.client ~contract:"put" ~args:[ Value.Int 2; Value.Int 2 ] ]
  in
  let send b =
    List.iter
      (fun p ->
        ignore
          (Msg.Net.send fx.net ~src:"orderer-1" ~dst:(Peer.name p)
             ~size_bytes:(Msg.size (Msg.Block_deliver b))
             (Msg.Block_deliver b)))
      fx.peers
  in
  send b3;
  ignore (Clock.run fx.clock);
  Alcotest.(check (list int)) "block 3 buffered" [ 1; 1; 1 ] (heights fx);
  send b2;
  ignore (Clock.run fx.clock);
  Alcotest.(check (list int)) "both processed in order" [ 3; 3; 3 ] (heights fx)

let test_checkpoint_gossip () =
  let fx = make_fx ~flow:Node_core.Order_execute () in
  init_chain fx;
  deliver_block fx
    [
      Block.make_tx ~id:"c1" ~identity:fx.client ~contract:"put"
        ~args:[ Value.Int 1; Value.Int 1 ];
    ];
  (* every peer heard every other peer's hash and none diverge *)
  List.iter
    (fun p ->
      let cp = Peer.checkpoints p in
      Alcotest.(check int) "checkpointed" 2
        (Brdb_ledger.Checkpoint.checkpointed_height cp);
      Alcotest.(check (list string)) "no divergence" []
        (Brdb_ledger.Checkpoint.divergent cp ~height:2))
    fx.peers

let test_invalid_block_ignored () =
  let fx = make_fx ~flow:Node_core.Order_execute () in
  init_chain fx;
  (* a byzantine orderer sends an unsigned block: peers must ignore it and
     continue with the legitimate chain *)
  let forged =
    Block.create ~height:2
      ~txs:[ Block.make_tx ~id:"evil" ~identity:fx.client ~contract:"put" ~args:[ Value.Int 6; Value.Int 6 ] ]
      ~metadata:"evil"
      ~prev_hash:(match fx.prev with Some b -> b.Block.hash | None -> Block.genesis_hash)
  in
  List.iter
    (fun p ->
      ignore
        (Msg.Net.send fx.net ~src:"orderer-evil" ~dst:(Peer.name p)
           ~size_bytes:(Msg.size (Msg.Block_deliver forged))
           (Msg.Block_deliver forged)))
    fx.peers;
  ignore (Clock.run fx.clock);
  Alcotest.(check (list int)) "forged block rejected" [ 1; 1; 1 ] (heights fx);
  (* the honest block at the same height still goes through *)
  deliver_block fx
    [
      Block.make_tx ~id:"good" ~identity:fx.client ~contract:"put"
        ~args:[ Value.Int 2; Value.Int 2 ];
    ];
  Alcotest.(check (list int)) "honest chain continues" [ 2; 2; 2 ] (heights fx)

let test_chain_break_rejected () =
  let fx = make_fx ~flow:Node_core.Order_execute () in
  init_chain fx;
  (* correctly hashed and signed, at the next height, but linked to the
     wrong predecessor: admission passes it, append refuses it *)
  let broken =
    Block.sign
      (Block.create ~height:2
         ~txs:
           [
             Block.make_tx ~id:"orphan" ~identity:fx.client ~contract:"put"
               ~args:[ Value.Int 7; Value.Int 7 ];
           ]
         ~metadata:"t" ~prev_hash:Block.genesis_hash)
      fx.orderer
  in
  List.iter
    (fun p ->
      ignore
        (Msg.Net.send fx.net ~src:"orderer-1" ~dst:(Peer.name p)
           ~size_bytes:(Msg.size (Msg.Block_deliver broken))
           (Msg.Block_deliver broken)))
    fx.peers;
  ignore (Clock.run fx.clock);
  Alcotest.(check (list int)) "every peer stays at its height" [ 1; 1; 1 ] (heights fx);
  Alcotest.(check (list int)) "one chain rejection each" [ 1; 1; 1 ]
    (List.map
       (fun p ->
         Brdb_obs.Registry.counter
           (Brdb_obs.Obs.metrics (Peer.obs p))
           ~node:(Peer.name p) "block.rejected.chain")
       fx.peers);
  deliver_block fx
    [
      Block.make_tx ~id:"good" ~identity:fx.client ~contract:"put"
        ~args:[ Value.Int 2; Value.Int 2 ];
    ];
  Alcotest.(check (list int)) "honest block accepted" [ 2; 2; 2 ] (heights fx)

(* Orderer signatures are judged against the registry in force at
   append, not at admission: peer 1 buffers block 3 while its orderer's
   key is still registered, then block 2 deletes that key. Peer 1 must
   refuse the buffered block exactly as peers 2 and 3 refuse it on
   arrival, so all three stay at height 2. Each peer owns its registry,
   as separate nodes do. *)
let test_orderer_revoked_while_buffered () =
  let fx = make_fx ~flow:Node_core.Order_execute ~own_registries:true () in
  init_chain fx;
  let b1 = Option.get fx.prev in
  let revoke =
    Block.sign
      (Block.create ~height:2
         ~txs:
           [
             Block.make_tx ~id:"revoke" ~identity:fx.admin ~contract:"delete_user"
               ~args:[ Value.Text (Identity.name fx.orderer) ];
           ]
         ~metadata:"t" ~prev_hash:b1.Block.hash)
      fx.orderer
  in
  let next =
    Block.sign
      (Block.create ~height:3
         ~txs:
           [
             Block.make_tx ~id:"late" ~identity:fx.client ~contract:"put"
               ~args:[ Value.Int 3; Value.Int 3 ];
           ]
         ~metadata:"t" ~prev_hash:revoke.Block.hash)
      fx.orderer
  in
  let send block peers =
    List.iter
      (fun p ->
        ignore
          (Msg.Net.send fx.net ~src:"orderer-1" ~dst:(Peer.name p)
             ~size_bytes:(Msg.size (Msg.Block_deliver block))
             (Msg.Block_deliver block)))
      peers;
    ignore (Clock.run fx.clock)
  in
  let counter name =
    List.map
      (fun p ->
        Brdb_obs.Registry.counter (Brdb_obs.Obs.metrics (Peer.obs p)) ~node:(Peer.name p) name)
      fx.peers
  in
  send next [ List.hd fx.peers ];
  Alcotest.(check (list int)) "block 3 buffered at peer 1" [ 1; 1; 1 ] (heights fx);
  send revoke fx.peers;
  send next (List.tl fx.peers);
  Alcotest.(check (list int)) "same verdict on block 3 everywhere" [ 2; 2; 2 ] (heights fx);
  Alcotest.(check (list int)) "peer 1 refuses it at append" [ 1; 0; 0 ]
    (counter "block.rejected.chain");
  Alcotest.(check (list int)) "peers 2 and 3 refuse it on arrival" [ 0; 1; 1 ]
    (counter "block.rejected.auth")

let test_checkpoint_interval () =
  let fx = make_fx ~flow:Node_core.Order_execute ~checkpoint_interval:2 () in
  init_chain fx;
  (* height 1: no checkpoint yet (interval 2) *)
  List.iter
    (fun p ->
      Alcotest.(check int) "none at height 1" 0
        (Brdb_ledger.Checkpoint.checkpointed_height (Peer.checkpoints p)))
    fx.peers;
  deliver_block fx
    [
      Block.make_tx ~id:"x" ~identity:fx.client ~contract:"put"
        ~args:[ Value.Int 1; Value.Int 1 ];
    ];
  (* height 2: checkpoint covering blocks 1-2, identical everywhere *)
  List.iter
    (fun p ->
      let cp = Peer.checkpoints p in
      Alcotest.(check int) "checkpoint at 2" 2
        (Brdb_ledger.Checkpoint.checkpointed_height cp);
      Alcotest.(check (list string)) "no divergence" []
        (Brdb_ledger.Checkpoint.divergent cp ~height:2))
    fx.peers

let test_divergence_detected_via_checkpoints () =
  (* §3.5(3): a node whose local state was tampered with produces a
     different write set for the next block touching that state; the
     checkpoint exchange exposes it to every honest node. *)
  let fx = make_fx ~flow:Node_core.Order_execute () in
  init_chain fx;
  deliver_block fx
    [
      Block.make_tx ~id:"seed" ~identity:fx.client ~contract:"put"
        ~args:[ Value.Int 1; Value.Int 10 ];
    ];
  (* corrupt peer-3's copy of the row *)
  let rogue = List.nth fx.peers 2 in
  (match Brdb_storage.Catalog.find (Node_core.catalog (Peer.core rogue)) "kv" with
  | None -> Alcotest.fail "kv missing"
  | Some table ->
      Brdb_storage.Table.iter_versions table (fun v ->
          if v.Brdb_storage.Version.values.(0) = Value.Int 1 then
            v.Brdb_storage.Version.values.(1) <- Value.Int 666));
  (* install a bump contract and touch the row: the new version copies the
     tampered value, so peer-3's write-set hash differs *)
  List.iter
    (fun p ->
      Node_core.install_contract (Peer.core p) ~name:"bump"
        (Registry.Native
           (fun ctx -> ignore (Api.execute ctx "UPDATE kv SET v = v + 1 WHERE k = $1"))))
    fx.peers;
  deliver_block fx
    [ Block.make_tx ~id:"bump1" ~identity:fx.client ~contract:"bump" ~args:[ Value.Int 1 ] ];
  let honest = List.hd fx.peers in
  Alcotest.(check (list string)) "honest node flags peer-3" [ "peer-3" ]
    (Brdb_ledger.Checkpoint.divergent (Peer.checkpoints honest)
       ~height:(Node_core.height (Peer.core honest)));
  (* ...and the rogue node sees everyone else disagreeing with it *)
  Alcotest.(check (list string)) "rogue sees the majority against it"
    [ "peer-1"; "peer-2" ]
    (List.sort compare
       (Brdb_ledger.Checkpoint.divergent (Peer.checkpoints rogue)
          ~height:(Node_core.height (Peer.core rogue))))

(* --- §3.6 catch-up -------------------------------------------------------- *)

let test_restart_fetches_missed_blocks () =
  let fx = make_fx ~flow:Node_core.Order_execute () in
  init_chain fx;
  let victim = List.nth fx.peers 2 in
  Peer.crash victim;
  (* two blocks go by while the victim is down — nobody re-delivers them *)
  List.iter
    (fun i ->
      deliver_block fx
        [
          Block.make_tx ~id:(Printf.sprintf "m%d" i) ~identity:fx.client
            ~contract:"put"
            ~args:[ Value.Int i; Value.Int i ];
        ])
    [ 1; 2 ];
  Alcotest.(check (list int)) "victim behind" [ 3; 3; 1 ] (heights fx);
  (* messages to the dead node were counted as drops *)
  Alcotest.(check bool) "drops visible" true (Msg.Net.dropped fx.net > 0);
  Peer.restart victim;
  ignore (Clock.run fx.clock);
  Alcotest.(check (list int)) "caught up via fetch" [ 3; 3; 3 ] (heights fx);
  Alcotest.(check int) "both blocks fetched" 2 (Peer.fetched_blocks victim);
  Alcotest.(check bool) "used at least one request" true
    (Peer.fetch_requests victim >= 1)

let test_gap_triggers_fetch () =
  let fx = make_fx ~flow:Node_core.Order_execute () in
  init_chain fx;
  (* block 2 is lost on the way to peer-3 only; block 3 reaches everyone.
     Peer-3 must notice the gap and fetch block 2 from a neighbour. *)
  let mk txs =
    let height = (match fx.prev with None -> 0 | Some b -> b.Block.height) + 1 in
    let prev_hash =
      match fx.prev with None -> Block.genesis_hash | Some b -> b.Block.hash
    in
    let b = Block.sign (Block.create ~height ~txs ~metadata:"t" ~prev_hash) fx.orderer in
    fx.prev <- Some b;
    b
  in
  let send_to p b =
    ignore
      (Msg.Net.send fx.net ~src:"orderer-1" ~dst:(Peer.name p)
         ~size_bytes:(Msg.size (Msg.Block_deliver b))
         (Msg.Block_deliver b))
  in
  let b2 = mk [ Block.make_tx ~id:"g1" ~identity:fx.client ~contract:"put" ~args:[ Value.Int 1; Value.Int 1 ] ] in
  let b3 = mk [ Block.make_tx ~id:"g2" ~identity:fx.client ~contract:"put" ~args:[ Value.Int 2; Value.Int 2 ] ] in
  (match fx.peers with
  | [ p1; p2; p3 ] ->
      send_to p1 b2;
      send_to p2 b2;
      List.iter (fun p -> send_to p b3) [ p1; p2; p3 ]
  | _ -> Alcotest.fail "expected 3 peers");
  ignore (Clock.run fx.clock);
  Alcotest.(check (list int)) "gap closed everywhere" [ 3; 3; 3 ] (heights fx);
  let p3 = List.nth fx.peers 2 in
  Alcotest.(check int) "the missing block was fetched" 1 (Peer.fetched_blocks p3)

let test_inbox_bounded () =
  (* the reorder window documented at [Peer.inbox_size] *)
  let window = 64 in
  let fx = make_fx ~flow:Node_core.Order_execute () in
  init_chain fx;
  let p1 = List.hd fx.peers in
  (* flood one peer with far-future heights: only the reorder window may
     be buffered, everything else is dropped (fetch recovers it later) *)
  let flood h =
    let b =
      Block.sign
        (Block.create ~height:h
           ~txs:[ Block.make_tx ~id:(Printf.sprintf "f%d" h) ~identity:fx.client ~contract:"put" ~args:[ Value.Int h; Value.Int h ] ]
           ~metadata:"t" ~prev_hash:"bogus")
        fx.orderer
    in
    ignore
      (Msg.Net.send fx.net ~src:"orderer-1" ~dst:(Peer.name p1)
         ~size_bytes:(Msg.size (Msg.Block_deliver b))
         (Msg.Block_deliver b))
  in
  for h = 3 to 300 do
    flood h
  done;
  ignore (Clock.run fx.clock);
  (* next needed is height 2, so the window admits heights 3 .. window+1 *)
  Alcotest.(check int)
    (Printf.sprintf "inbox bounded by window (%d)" window)
    (window - 1) (Peer.inbox_size p1);
  Alcotest.(check int) "nothing processed (gap at 2)" 1
    (Node_core.height (Peer.core p1))

let suites =
  [
    ( "peer",
      [
        Alcotest.test_case "EO forwarding" `Quick test_eo_forwarding;
        Alcotest.test_case "EO deferred snapshot" `Quick test_eo_deferred_snapshot;
        Alcotest.test_case "out-of-order blocks" `Quick test_out_of_order_blocks_buffered;
        Alcotest.test_case "checkpoint gossip" `Quick test_checkpoint_gossip;
        Alcotest.test_case "invalid block ignored" `Quick test_invalid_block_ignored;
        Alcotest.test_case "chain break rejected at append" `Quick test_chain_break_rejected;
        Alcotest.test_case "orderer revoked while block buffered" `Quick
          test_orderer_revoked_while_buffered;
        Alcotest.test_case "checkpoint interval" `Quick test_checkpoint_interval;
        Alcotest.test_case "tampered node flagged via checkpoints" `Quick
          test_divergence_detected_via_checkpoints;
        Alcotest.test_case "restart fetches missed blocks" `Quick
          test_restart_fetches_missed_blocks;
        Alcotest.test_case "gap triggers fetch" `Quick test_gap_triggers_fetch;
        Alcotest.test_case "inbox bounded" `Quick test_inbox_bounded;
      ] );
  ]
