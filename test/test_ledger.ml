open Brdb_ledger
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value

let orderer = Identity.create "orderer/test"

let client = Identity.create "org1/alice"

let registry () =
  let r = Identity.Registry.create () in
  List.iter
    (fun id -> match Identity.Registry.register r id with Ok () -> () | Error _ -> assert false)
    [ orderer; client ];
  r

let tx i =
  Block.make_tx ~id:(Printf.sprintf "t%d" i) ~identity:client ~contract:"c"
    ~args:[ Value.Int i ]

let block ~height ~prev txs =
  let prev_hash = match prev with None -> Block.genesis_hash | Some b -> b.Block.hash in
  Block.sign (Block.create ~height ~txs ~metadata:"m" ~prev_hash) orderer

(* --- transactions ---------------------------------------------------------- *)

let test_tx_signature () =
  let r = registry () in
  let t = tx 1 in
  Alcotest.(check bool) "valid" true (Block.verify_tx r t);
  let tampered = { t with Block.tx_args = [ Value.Int 999 ] } in
  Alcotest.(check bool) "tampered args" false (Block.verify_tx r tampered);
  let wrong_user = { t with Block.tx_user = "org2/bob" } in
  Alcotest.(check bool) "wrong user" false (Block.verify_tx r wrong_user)

let test_eo_tx_id_is_content_hash () =
  let a = Block.make_eo_tx ~identity:client ~contract:"c" ~args:[ Value.Int 1 ] ~snapshot:5 in
  let b = Block.make_eo_tx ~identity:client ~contract:"c" ~args:[ Value.Int 1 ] ~snapshot:5 in
  let c = Block.make_eo_tx ~identity:client ~contract:"c" ~args:[ Value.Int 2 ] ~snapshot:5 in
  let d = Block.make_eo_tx ~identity:client ~contract:"c" ~args:[ Value.Int 1 ] ~snapshot:6 in
  Alcotest.(check string) "same content, same id" a.Block.tx_id b.Block.tx_id;
  Alcotest.(check bool) "args change id" false (a.Block.tx_id = c.Block.tx_id);
  Alcotest.(check bool) "snapshot changes id" false (a.Block.tx_id = d.Block.tx_id)

(* --- blocks ------------------------------------------------------------------ *)

let test_block_hash_covers_content () =
  let b1 = block ~height:1 ~prev:None [ tx 1; tx 2 ] in
  let b2 = Block.create ~height:1 ~txs:[ tx 2; tx 1 ] ~metadata:"m" ~prev_hash:Block.genesis_hash in
  Alcotest.(check bool) "tx order matters" false (String.equal b1.Block.hash b2.Block.hash);
  let b3 = Block.create ~height:1 ~txs:[ tx 1; tx 2 ] ~metadata:"other" ~prev_hash:Block.genesis_hash in
  Alcotest.(check bool) "metadata matters" false (String.equal b1.Block.hash b3.Block.hash)

let test_block_verify () =
  let r = registry () in
  let b = block ~height:1 ~prev:None [ tx 1 ] in
  Alcotest.(check bool) "signed block verifies" true (Block.verify r b);
  let unsigned = Block.create ~height:1 ~txs:[ tx 1 ] ~metadata:"m" ~prev_hash:Block.genesis_hash in
  Alcotest.(check bool) "unsigned rejected" false (Block.verify r unsigned);
  let mallory = Identity.create "orderer/evil" in
  let forged = Block.sign unsigned mallory in
  Alcotest.(check bool) "unknown signer rejected" false (Block.verify r forged);
  (* hash corruption *)
  let corrupt = { b with Block.txs = [ tx 9 ] } in
  Alcotest.(check bool) "content swap detected" false (Block.verify r corrupt)

(* Captured before the native-int port of the signature arithmetic: the
   client signatures inside and the header formula must not move one bit. *)
let test_block_golden_hash () =
  let txs =
    List.map
      (fun i ->
        Block.make_tx ~id:(Printf.sprintf "t%d" i) ~identity:client ~contract:"c"
          ~args:[ Value.Int i; Value.Text "x" ])
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "client signatures"
    [ "1b05256fdb59b13a:13a4cb0e2ad5aa3d"; "187e9cdb75e7716:f7f0f470b3fc482";
      "1dd33392ab9f6ceb:78f8b7f95aac51b" ]
    (List.map
       (fun tx ->
         let sg = tx.Block.tx_signature in
         Printf.sprintf "%Lx:%Lx" sg.Brdb_crypto.Schnorr.e sg.Brdb_crypto.Schnorr.s)
       txs);
  let b = Block.create ~height:1 ~txs ~metadata:"m" ~prev_hash:Block.genesis_hash in
  Alcotest.(check string) "block hash"
    "b27e4eb7978ddaaa2be6bd9aa666fa2fb35fc03e12bdf83f02a30dd3ef1efedc"
    (Brdb_util.Hex.encode b.Block.hash)

let test_chains_from () =
  let b1 = block ~height:1 ~prev:None [ tx 1 ] in
  let b2 = block ~height:2 ~prev:(Some b1) [ tx 2 ] in
  Alcotest.(check bool) "genesis" true (Block.chains_from b1 ~prev:None);
  Alcotest.(check bool) "chain" true (Block.chains_from b2 ~prev:(Some b1));
  Alcotest.(check bool) "wrong prev" false (Block.chains_from b2 ~prev:None);
  let gap = block ~height:3 ~prev:(Some b1) [ tx 3 ] in
  Alcotest.(check bool) "height gap" false (Block.chains_from gap ~prev:(Some b1))

(* [Block.check] against the formula it replaced (test/block_ref.ml), over
   random blocks of 0-40 transactions and one mutation each: content,
   order, header fields, orderer signatures, or a forged client signature
   inside an otherwise well-formed block (accepted: the block check does
   not cover client signatures, [acquire] does). *)
let tx_pool = lazy (Array.init 41 tx)

let mutate kind pos (b : Block.t) =
  let n = List.length b.Block.txs in
  let at i f = List.mapi (fun j t -> if j = i then f t else t) b.Block.txs in
  match kind with
  | 1 when n > 0 ->
      let changed t = { t with Block.tx_args = [ Value.Int (-1) ] } in
      { b with Block.txs = at (pos mod n) changed }
  | 2 when n > 1 ->
      let i = pos mod n and j = (pos + 1) mod n in
      let ti = List.nth b.Block.txs i and tj = List.nth b.Block.txs j in
      let swap k t = if k = i then tj else if k = j then ti else t in
      { b with Block.txs = List.mapi swap b.Block.txs }
  | 3 -> { b with Block.metadata = b.Block.metadata ^ "x" }
  | 4 -> { b with Block.prev_hash = Brdb_crypto.Sha256.digest "elsewhere" }
  | 5 -> { b with Block.height = b.Block.height + 1 }
  | 6 -> { b with Block.hash = Brdb_crypto.Sha256.digest "forged" }
  | 7 -> { b with Block.signatures = [] }
  | 8 -> Block.sign b (Identity.create "orderer/mallory")
  | 9 ->
      let other = Brdb_crypto.Sha256.digest "another block" in
      { b with Block.signatures = [ (Identity.name orderer, Identity.sign orderer other) ] }
  | 10 when n > 0 ->
      let forged t = { t with Block.tx_signature = Identity.sign client "not the payload" } in
      Block.sign
        (Block.create ~height:b.Block.height ~txs:(at (pos mod n) forged)
           ~metadata:b.Block.metadata ~prev_hash:b.Block.prev_hash)
        orderer
  | _ -> b

let prop_check_matches_reference =
  let r = registry () in
  QCheck.Test.make ~name:"Block.check = reference verify; root and tx verdicts agree"
    ~count:200
    QCheck.(quad (int_bound 40) (int_bound 10) small_nat small_nat)
    (fun (n, kind, pos, rot) ->
      let pool = Lazy.force tx_pool in
      let txs = List.init n (fun i -> pool.((i + rot) mod 41)) in
      let b = mutate kind pos (block ~height:1 ~prev:None txs) in
      Result.is_ok (Block.check_hash b) = Block_ref.hash_matches b
      &&
      match Block.check r b with
      | Error _ -> not (Block_ref.verify r b)
      | Ok c ->
          Block_ref.verify r b
          && c.Block.block == b
          && List.for_all2 (fun s t -> s.Block.tx == t) c.Block.signed b.Block.txs
          && String.equal c.Block.tx_root
               (Brdb_crypto.Merkle.root (List.map Block.tx_payload b.Block.txs))
          && List.map (Block.verify_signed r) c.Block.signed
             = List.map (Block.verify_tx r) b.Block.txs)

(* --- block store --------------------------------------------------------------- *)

let checked b =
  match Block.check (registry ()) b with Ok c -> c | Error e -> Alcotest.fail e

let test_block_store_sequencing () =
  let s = Block_store.create () in
  let b1 = block ~height:1 ~prev:None [ tx 1 ] in
  let b2 = block ~height:2 ~prev:(Some b1) [ tx 2 ] in
  Alcotest.(check bool) "append 1" true (Block_store.append s (checked b1) = Ok ());
  (* duplicate and gap *)
  Alcotest.(check bool) "dup rejected" true
    (Block_store.append s (checked b1) = Error `Out_of_sequence);
  let b3 = block ~height:3 ~prev:(Some b2) [ tx 3 ] in
  Alcotest.(check bool) "gap rejected" true
    (Block_store.append s (checked b3) = Error `Out_of_sequence);
  Alcotest.(check bool) "append 2" true (Block_store.append s (checked b2) = Ok ());
  (* chain break *)
  let evil = block ~height:3 ~prev:(Some b1) [ tx 3 ] in
  let evil = { evil with Block.height = 3 } in
  Alcotest.(check bool) "broken chain rejected" true
    (Block_store.append s (checked evil) = Error `Broken_chain);
  Alcotest.(check int) "height" 2 (Block_store.height s);
  Alcotest.(check bool) "get 1" true (Block_store.get s 1 = Some b1);
  Alcotest.(check bool) "get 0" true (Block_store.get s 0 = None);
  Alcotest.(check bool) "get 9" true (Block_store.get s 9 = None)

let test_block_store_audit () =
  let r = registry () in
  let s = Block_store.create () in
  let b1 = block ~height:1 ~prev:None [ tx 1 ] in
  let b2 = block ~height:2 ~prev:(Some b1) [ tx 2 ] in
  ignore (Block_store.append s (checked b1));
  ignore (Block_store.append s (checked b2));
  Alcotest.(check bool) "clean" true (Block_ref.audit s r = Ok ());
  (* forge block 1 in place: hash chain of block 2 breaks *)
  let forged = block ~height:1 ~prev:None [ tx 99 ] in
  Block_store.Testing.tamper s 1 forged;
  (match Block_ref.audit s r with
  | Error h -> Alcotest.(check bool) "detected at 1 or 2" true (h = 1 || h = 2)
  | Ok () -> Alcotest.fail "tampering undetected")

(* --- ledger table ----------------------------------------------------------------- *)

let test_ledger_table_steps () =
  let catalog = Brdb_storage.Catalog.create () in
  Ledger_table.record_txs catalog ~height:1 ~time:1
    [
      { Ledger_table.e_txid = 1; e_gid = "g1"; e_user = "u"; e_query = "q1" };
      { Ledger_table.e_txid = 2; e_gid = "g2"; e_user = "u"; e_query = "q2" };
    ];
  Alcotest.(check int) "last block" 1 (Ledger_table.last_recorded_block catalog);
  Alcotest.(check (list (pair int (option string)))) "no statuses"
    [ (1, None); (2, None) ]
    (Ledger_table.block_txs catalog ~height:1);
  Ledger_table.record_statuses catalog ~height:1 [ (1, "committed"); (2, "aborted: x") ];
  Alcotest.(check (list (pair int (option string)))) "statuses"
    [ (1, Some "committed"); (2, Some "aborted: x") ]
    (Ledger_table.block_txs catalog ~height:1);
  Ledger_table.erase_block catalog ~height:1;
  Alcotest.(check (list (pair int (option string)))) "erased" []
    (Ledger_table.block_txs catalog ~height:1);
  Alcotest.(check int) "last block after erase" 0 (Ledger_table.last_recorded_block catalog)

let suites =
  [
    ( "ledger.tx",
      [
        Alcotest.test_case "signatures" `Quick test_tx_signature;
        Alcotest.test_case "EO id = content hash" `Quick test_eo_tx_id_is_content_hash;
      ] );
    ( "ledger.block",
      [
        Alcotest.test_case "hash covers content" `Quick test_block_hash_covers_content;
        Alcotest.test_case "verify" `Quick test_block_verify;
        Alcotest.test_case "golden hash" `Quick test_block_golden_hash;
        Alcotest.test_case "chains_from" `Quick test_chains_from;
        QCheck_alcotest.to_alcotest prop_check_matches_reference;
      ] );
    ( "ledger.store",
      [
        Alcotest.test_case "sequencing" `Quick test_block_store_sequencing;
        Alcotest.test_case "audit" `Quick test_block_store_audit;
      ] );
    ("ledger.table", [ Alcotest.test_case "two atomic steps" `Quick test_ledger_table_steps ]);
  ]
