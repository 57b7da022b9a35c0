(** Chaos suite: seeded fault schedules against a full cluster.

    Asserts the ISSUE's load-bearing invariants: under crashes (clean and
    §3.6 mid-block), healing partitions, and up to 10% message loss, all
    live nodes converge to identical block-store and per-block write-set
    hashes, commit/abort decisions match, and every client request reaches
    a final status once faults heal. Every suite name starts with "chaos"
    so [dune build @chaos] can select it standalone. *)

module B = Brdb_core.Blockchain_db
module Chaos = Brdb_core.Chaos
module Peer = Brdb_node.Peer
module Node_core = Brdb_node.Node_core
module Msg = Brdb_consensus.Msg
module Network = Brdb_sim.Network
module Checkpoint = Brdb_ledger.Checkpoint
module Value = Brdb_storage.Value
module Service = Brdb_consensus.Service
module Block = Brdb_ledger.Block
module Block_store = Brdb_ledger.Block_store
module Identity = Brdb_crypto.Identity

(* Small enough to keep the whole suite inside the 2 s runtest budget,
   large enough that every run cuts tens of blocks under faults. *)
let spec_for seed =
  {
    Chaos.default_spec with
    Chaos.seed;
    rate = 120.;
    duration = 1.0;
    block_size = 8;
    (* sweep loss up to the 10% ceiling as seeds advance *)
    drop = 0.02 +. (0.004 *. float_of_int (seed mod 20));
    duplicate = 0.02;
    crashes = 1;
    partitions = 1;
    crash_points = seed mod 2 = 1;
  }

let check_report seed (r : Chaos.report) =
  if not r.Chaos.converged then
    Alcotest.failf "seed %d did not converge: %a" seed Chaos.pp_report r;
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d: no divergent node" seed)
    [] r.Chaos.divergent;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: every slot decided" seed)
    r.Chaos.submitted r.Chaos.decided

let test_converges_across_seeds () =
  let total_fetched = ref 0 in
  let total_dropped = ref 0 in
  for seed = 1 to 20 do
    let r = Chaos.run (spec_for seed) in
    check_report seed r;
    total_fetched := !total_fetched + r.Chaos.fetched_blocks;
    total_dropped := !total_dropped + r.Chaos.dropped
  done;
  (* the sweep actually exercised the machinery under test *)
  Alcotest.(check bool) "faults actually dropped messages" true (!total_dropped > 0);
  Alcotest.(check bool) "catch-up actually fetched blocks" true (!total_fetched > 0)

let test_same_seed_is_deterministic () =
  let spec = { (spec_for 11) with Chaos.crashes = 2 } in
  let a = Chaos.run spec in
  let b = Chaos.run spec in
  check_report 11 a;
  Alcotest.(check string) "byte-identical replicated state" a.Chaos.fingerprint
    b.Chaos.fingerprint;
  Alcotest.(check int) "same message loss" a.Chaos.dropped b.Chaos.dropped;
  Alcotest.(check int) "same resubmissions" a.Chaos.resubmitted b.Chaos.resubmitted

(* --- §3.6 crash points driven through the peer path ---------------------- *)

(* A cluster with 5% peer-to-peer message loss and an active workload; the
   victim dies mid-block at [point] and must rejoin with an identical
   chain once restarted. *)
let crash_point_scenario point () =
  let config =
    {
      (B.default_config ()) with
      B.block_size = 5;
      block_timeout = 0.05;
      seed = 97;
    }
  in
  let db = B.create config in
  B.install_contract db ~name:"setup"
    (Brdb_contracts.Registry.Native
       (fun ctx ->
         ignore
           (Brdb_contracts.Api.execute ctx
              "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")));
  (match
     B.install_contract_source db ~name:"put" "INSERT INTO kv VALUES ($1, $2)"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let admin = B.admin db "org1" in
  let setup = B.submit db ~user:admin ~contract:"setup" ~args:[] in
  B.settle db;
  Alcotest.(check bool) "setup committed" true (B.status db setup = Some B.Committed);
  (* 5% loss between all peers while the workload runs *)
  let netw = B.net db in
  let names = List.map Peer.name (B.peers db) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            Msg.Net.set_fault netw ~src:a ~dst:b
              { Network.drop = 0.05; duplicate = 0.02; corrupt = 0. })
        names)
    names;
  let user = B.register_user db "alice" in
  let clock = B.clock db in
  let submitted = ref [ setup ] in
  for i = 0 to 39 do
    Brdb_sim.Clock.schedule clock ~delay:(float_of_int i *. 0.02) (fun () ->
        submitted :=
          B.submit db ~user ~contract:"put" ~args:[ Value.Int i; Value.Int (i * 3) ]
          :: !submitted)
  done;
  let victim = B.peer db 1 in
  B.run db ~seconds:0.2;
  Peer.crash ~at:point victim;
  B.run db ~seconds:0.3;
  Peer.restart victim;
  B.settle db;
  Msg.Net.clear_faults netw;
  B.run db ~seconds:2.0;
  (* every node ends on the same chain, and the rolled-back block was
     re-executed with an identical write set *)
  let p0 = B.peer db 0 in
  let h0 = Node_core.height (Peer.core p0) in
  Alcotest.(check bool) "made progress" true (h0 > 1);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Peer.name p ^ " same height")
        h0
        (Node_core.height (Peer.core p));
      for h = 1 to h0 do
        Alcotest.(check bool)
          (Printf.sprintf "%s write-set hash at height %d" (Peer.name p) h)
          true
          (Checkpoint.local_hash (Peer.checkpoints p) ~height:h
          = Checkpoint.local_hash (Peer.checkpoints p0) ~height:h
          && Checkpoint.local_hash (Peer.checkpoints p) ~height:h <> None)
      done)
    (B.peers db);
  Alcotest.(check int) "all 41 submitted" 41 (List.length !submitted);
  Alcotest.(check (list string)) "every tx decided" []
    (List.filter (fun id -> B.status db id = None) !submitted)

(* --- bounded inbox -------------------------------------------------------- *)

let test_partition_heals () =
  (* a partitioned node misses whole blocks, then rejoins via catch-up
     alone (no message loss to confuse attribution) *)
  let r =
    Chaos.run
      {
        Chaos.default_spec with
        Chaos.seed = 5;
        rate = 120.;
        duration = 1.0;
        drop = 0.;
        duplicate = 0.;
        crashes = 0;
        partitions = 2;
      }
  in
  check_report 5 r;
  Alcotest.(check bool) "partition dropped messages" true (r.Chaos.dropped > 0);
  Alcotest.(check bool) "blocks recovered by fetch" true (r.Chaos.fetched_blocks > 0)

(* --- orderer-fault chaos (ISSUE: byzantine-resilient ordering plane) ------ *)

(* A Chaos.scenarios row over the default lossy links. *)
let lossy label =
  {
    (Chaos.scenario label) with
    Chaos.drop = Chaos.default_spec.Chaos.drop;
    duplicate = Chaos.default_spec.Chaos.duplicate;
  }

let test_bft_primary_crash_converges () =
  (* 4 BFT orderers (f = 1) with the primary crashed mid-run: the
     survivors must vote it out, resume cutting, and leave the cluster on
     a byte-identical replicated state across two runs of the spec. *)
  let spec = lossy "orderer_bft" in
  let a = Chaos.run spec in
  check_report spec.Chaos.seed a;
  Alcotest.(check int) "orderer crash cycle fired" 1 a.Chaos.orderer_crash_cycles;
  Alcotest.(check bool) "primary was voted out" true (a.Chaos.view_changes >= 1);
  Alcotest.(check (list string)) "no decision mismatches" []
    a.Chaos.decision_mismatches;
  let b = Chaos.run spec in
  Alcotest.(check string) "byte-identical across runs" a.Chaos.fingerprint
    b.Chaos.fingerprint

let test_raft_leader_crash_converges () =
  (* Raft ordering with the leader crashed mid-run: a re-election must be
     observed and cutting must resume. *)
  let spec = lossy "orderer_raft" in
  let r = Chaos.run spec in
  check_report spec.Chaos.seed r;
  Alcotest.(check int) "orderer crash cycle fired" 1 r.Chaos.orderer_crash_cycles;
  Alcotest.(check bool) "leader crash forced a re-election" true
    (r.Chaos.elections >= 1)

let test_block_tamper_rejected () =
  (* Every block towards the victim peer is bit-flipped in flight: §4.4
     admission must reject all of them, catch-up must recover every
     height from an honest peer, and no tampered block may commit. *)
  let spec = lossy "tamper" in
  let r = Chaos.run spec in
  check_report spec.Chaos.seed r;
  Alcotest.(check bool) "tampered deliveries rejected" true
    (r.Chaos.blocks_rejected > 0);
  Alcotest.(check int) "tampering actually fired" r.Chaos.blocks_rejected
    r.Chaos.corrupted;
  Alcotest.(check (list string)) "no decision mismatches" []
    r.Chaos.decision_mismatches

let test_client_forge_rejected () =
  (* Every in-window client submission has its Schnorr signature
     bit-flipped in flight (ISSUE 10): ordering-side batch authentication
     must drop every forged transaction before a block is cut, the
     auth_rejection_burst detector must notice, and §3.5 resubmission
     must still land a clean copy of every slot after the network heals.
     Authentication is unconditional, so every ordering kind must hold
     this; the replicated kinds run a shorter window. *)
  List.iter
    (fun (name, ordering, n_orderers, rate, duration) ->
      let spec =
        {
          Chaos.default_spec with
          Chaos.seed = 11;
          ordering;
          n_orderers;
          rate;
          duration;
          client_forge = 1.0;
          drop = 0.;
          duplicate = 0.;
          crashes = 0;
          partitions = 0;
        }
      in
      let r = Chaos.run spec in
      let label what = Printf.sprintf "%s: %s" name what in
      check_report 11 r;
      Alcotest.(check bool) (label "forged submissions dropped") true
        (r.Chaos.forged_rejected > 0);
      Alcotest.(check int) (label "every mangled payload was rejected")
        r.Chaos.corrupted r.Chaos.forged_rejected;
      (* forgeries must not stall ordering or depose a BFT primary *)
      Alcotest.(check (list string)) (label "only the auth burst alert fired")
        [ "auth_rejection_burst" ]
        (List.map fst r.Chaos.alerts_fired);
      Alcotest.(check (list string)) (label "client_forge covered by an alert")
        []
        (List.map Chaos.fault_id r.Chaos.uncovered_faults))
    [
      ( "solo", Service.Solo, 1, Chaos.default_spec.Chaos.rate,
        Chaos.default_spec.Chaos.duration );
      ("kafka", Service.Kafka, 3, 60., 0.3);
      ("raft", Service.Raft, 3, 60., 0.3);
      ("bft", Service.Bft, 4, 60., 0.3);
    ]

let test_equivocating_block_rejected () =
  (* A validly-signed sibling block at an already-known height (orderer
     identities are deterministic, so a byzantine orderer is easy to
     fake) must be refused without disturbing the committed chain. *)
  let db = B.create { (B.default_config ()) with B.block_size = 2; seed = 23 } in
  B.install_contract db ~name:"setup"
    (Brdb_contracts.Registry.Native
       (fun ctx ->
         ignore
           (Brdb_contracts.Api.execute ctx
              "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")));
  let admin = B.admin db "org1" in
  ignore (B.submit db ~user:admin ~contract:"setup" ~args:[]);
  B.settle db;
  let victim = B.peer db 0 in
  let store = Node_core.block_store (Peer.core victim) in
  let honest_hash =
    match Block_store.get store 1 with
    | Some b -> b.Block.hash
    | None -> Alcotest.fail "no block at height 1"
  in
  let evil =
    Block.sign
      (Block.create ~height:1 ~txs:[] ~metadata:"equivocation"
         ~prev_hash:Block.genesis_hash)
      (Identity.create "orderer/orderer-1")
  in
  Alcotest.(check bool) "sibling passes signature checks" true
    (Block.verify (Node_core.identity_registry (Peer.core victim)) evil);
  let netw = B.net db in
  ignore
    (Msg.Net.send netw ~src:"orderer-1" ~dst:(Peer.name victim)
       ~size_bytes:(Msg.size (Msg.Block_deliver evil))
       (Msg.Block_deliver evil));
  B.run db ~seconds:1.0;
  Alcotest.(check bool) "equivocation counted" true (Peer.blocks_rejected victim >= 1);
  (match Block_store.get store 1 with
  | Some b ->
      Alcotest.(check string) "committed chain untouched" honest_hash b.Block.hash
  | None -> Alcotest.fail "height 1 vanished");
  (* a tampered payload (hash mismatch) is likewise refused *)
  let tampered =
    match Block_store.get store 1 with
    | Some b -> { b with Block.hash = "0" ^ b.Block.hash }
    | None -> assert false
  in
  let before = Peer.blocks_rejected victim in
  ignore
    (Msg.Net.send netw ~src:"orderer-1" ~dst:(Peer.name victim)
       ~size_bytes:(Msg.size (Msg.Block_deliver tampered))
       (Msg.Block_deliver tampered));
  B.run db ~seconds:1.0;
  Alcotest.(check bool) "bad hash counted" true (Peer.blocks_rejected victim > before)

let suites =
  [
    ( "chaos",
      [
        Alcotest.test_case "20 seeds converge" `Quick test_converges_across_seeds;
        Alcotest.test_case "same seed, same bytes" `Quick
          test_same_seed_is_deterministic;
        Alcotest.test_case "partition heals via fetch" `Quick test_partition_heals;
      ] );
    ( "chaos.ordering",
      [
        Alcotest.test_case "bft primary crash converges" `Quick
          test_bft_primary_crash_converges;
        Alcotest.test_case "raft leader crash converges" `Quick
          test_raft_leader_crash_converges;
        Alcotest.test_case "tampered blocks rejected" `Quick
          test_block_tamper_rejected;
        Alcotest.test_case "forged client txs rejected" `Quick
          test_client_forge_rejected;
        Alcotest.test_case "equivocating block rejected" `Quick
          test_equivocating_block_rejected;
      ] );
    ( "chaos.crash-points",
      [
        Alcotest.test_case "crash after ledger entries" `Quick
          (crash_point_scenario Node_core.Crash_after_ledger_entries);
        Alcotest.test_case "crash mid-commit" `Quick
          (crash_point_scenario (Node_core.Crash_mid_commit 1));
        Alcotest.test_case "crash before status step" `Quick
          (crash_point_scenario Node_core.Crash_before_status_step);
      ] );
  ]
