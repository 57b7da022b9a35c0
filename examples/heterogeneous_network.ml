(** Heterogeneous network (the study §7 proposes): one of the three
    database nodes sits behind a slow WAN link while the others enjoy LAN
    latencies, under the execute-order-in-parallel flow.

    Watch three §3.4 mechanisms at work:
    - the slow node receives forwarded transactions *after* their blocks
      and executes them as "missing" transactions (the mt metric);
    - transactions pinned to snapshot heights the slow node hasn't reached
      are deferred until it catches up;
    - despite all that, every node commits the same transactions and the
      write-set checkpoints agree.

    Run with: dune exec examples/heterogeneous_network.exe *)

module Peer = Brdb_node.Peer
module Node_core = Brdb_node.Node_core
module Msg = Brdb_consensus.Msg
module Service = Brdb_consensus.Service
module Block = Brdb_ledger.Block
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng
module Network = Brdb_sim.Network
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api

let () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:2026 in
  let net = Msg.Net.create ~clock ~rng:(Rng.split rng) ~default_link:Network.lan_link in
  let registry = Identity.Registry.create () in
  let register id =
    match Identity.Registry.register registry id with
    | Ok () -> ()
    | Error `Conflict -> failwith "duplicate identity"
  in
  let orderer_id = Identity.create "orderer/orderer-1" in
  let admin = Identity.create "org1/admin" in
  let client = Identity.create "org1/clients" in
  List.iter register [ orderer_id; admin; client ];

  let peer_names = [ "db-org1"; "db-org2"; "db-org3" ] in
  (* db-org3 is on another continent: ~80 ms one-way to everyone. *)
  let slow = { Network.latency_s = 0.080; bandwidth_bps = 50e6 } in
  List.iter
    (fun other ->
      Msg.Net.set_link net ~src:other ~dst:"db-org3" slow;
      Msg.Net.set_link net ~src:"db-org3" ~dst:other slow)
    ("orderer-1" :: "clients" :: peer_names);

  let _service =
    Service.create ~net ~kind:Service.Solo ~orderer_names:[ "orderer-1" ]
      ~identity_of:(fun _ -> orderer_id)
      ~rng:(Rng.split rng) ~block_size:50 ~block_timeout:0.1
      ~peers_of:(fun _ -> peer_names)
      ()
  in
  let peers =
    List.map
      (fun name ->
        let p =
          Peer.create ~net
            {
              Peer.core =
                Node_core.make_config ~name ~org:name
                  ~flow:Node_core.Execute_order ~orgs:peer_names ();
              cost = Brdb_sim.Cost_model.default;
              contract_class_of = (fun _ -> Brdb_sim.Cost_model.Simple);
              orderer_target = "orderer-1";
              peer_names;
              forward_delay_mean = 0.;
              checkpoint_interval = 1;
              fetch_timeout = 0.05;
              sync_interval = 0.;
              inbox_window = 64;
              snapshot_threshold = 0;
              snapshot_chunk_size = Brdb_snapshot.Chunk.default_size;
              compaction = Brdb_snapshot.Snapshot.Archive;
              parallel_validation = false;
            }
            ~registry
        in
        List.iter
          (fun (name, body) -> Node_core.install_contract (Peer.core p) ~name body)
          [
            ( "init",
              Registry.Native
                (fun ctx ->
                  ignore (Api.execute ctx "CREATE TABLE log (id INT PRIMARY KEY, v INT)")) );
            ( "append",
              Registry.Native
                (fun ctx -> ignore (Api.execute ctx "INSERT INTO log VALUES ($1, $2)")) );
          ];
        p)
      peer_names
  in
  let fast = List.hd peers in

  (* bootstrap block *)
  let init_tx = Block.make_tx ~id:"init" ~identity:admin ~contract:"init" ~args:[] in
  ignore
    (Msg.Net.send net ~src:"clients" ~dst:"orderer-1"
       ~size_bytes:(Msg.size (Msg.Client_tx init_tx))
       (Msg.Client_tx init_tx));
  ignore (Clock.run ~until:1.0 clock);

  (* Clients always talk to the FAST node, whose height races ahead of the
     slow node — exactly the §3.4.1 situation where a transaction's
     snapshot height exceeds the processing node's current block. *)
  Brdb_sim.Workload.run ~clock ~rng:(Rng.split rng) ~rate:300. ~duration:3.
    ~submit:(fun i ->
      let snapshot = Node_core.height (Peer.core fast) in
      let tx =
        Block.make_eo_tx ~identity:client ~contract:"append"
          ~args:[ Value.Int i; Value.Int (i * 3) ]
          ~snapshot
      in
      ignore
        (Msg.Net.send net ~src:"clients" ~dst:"db-org1"
           ~size_bytes:(Msg.size (Msg.Client_tx tx))
           (Msg.Client_tx tx)));

  (* sample heights while the run progresses *)
  Printf.printf "%8s %10s %10s %10s\n" "t(s)" "db-org1" "db-org2" "db-org3(slow)";
  for step = 1 to 8 do
    ignore (Clock.run ~until:(1.0 +. (0.5 *. float_of_int step)) clock);
    let h p = Node_core.height (Peer.core p) in
    match peers with
    | [ p1; p2; p3 ] ->
        Printf.printf "%8.1f %10d %10d %10d\n" (Clock.now clock) (h p1) (h p2) (h p3)
    | _ -> assert false
  done;
  ignore (Clock.run ~until:(Clock.now clock +. 3.) clock);

  (* everyone converged; compare metrics and checkpoints *)
  Printf.printf "\n%-14s %8s %10s %12s\n" "node" "height" "missing/s" "checkpointed";
  let duration = Clock.now clock in
  List.iter
    (fun p ->
      let missing =
        Brdb_obs.Registry.counter
          (Brdb_obs.Obs.metrics (Peer.obs p))
          ~node:(Peer.name p) "block.missing_txs"
      in
      Printf.printf "%-14s %8d %10.1f %12d\n" (Peer.name p)
        (Node_core.height (Peer.core p))
        (float_of_int missing /. duration)
        (Brdb_ledger.Checkpoint.checkpointed_height (Peer.checkpoints p)))
    peers;
  List.iter
    (fun p ->
      let cp = Peer.checkpoints p in
      let h = Brdb_ledger.Checkpoint.checkpointed_height cp in
      match Brdb_ledger.Checkpoint.divergent cp ~height:h with
      | [] -> ()
      | ds ->
          Printf.printf "DIVERGENCE at %s: %s\n" (Peer.name p) (String.concat "," ds))
    peers;
  print_endline "\nall checkpoints agree: the slow node executed late (missing\ntransactions) but committed the identical history.";
  print_endline "heterogeneous network example done."
