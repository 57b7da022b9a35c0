(** Deterministic state snapshots (DESIGN.md §11).

    The load-bearing property: bootstrapping a node from a snapshot is
    indistinguishable from replaying every block — byte-identical chained
    state digests and sys.* query results, in both compaction modes.
    Units cover the transfer layer (tampered chunks are rejected), the
    WAL install guard (a crash mid-install recovers to a clean slate),
    compaction coherence with {!Brdb_storage.Table.prune}, and the peer
    restart decision boundary (gap == threshold replays; strictly greater
    bootstraps from a snapshot, even under chunk corruption). *)

open Brdb_node
module Block = Brdb_ledger.Block
module Assembler = Brdb_consensus.Assembler
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api
module Snapshot = Brdb_snapshot.Snapshot
module Chunk = Brdb_snapshot.Chunk
module Msg = Brdb_consensus.Msg
module Clock = Brdb_sim.Clock
module TP = Test_peer

(* ---------------------------------------------------------------- harness *)

let orderer = Identity.create "orderer/snap"

let client = Identity.create "org1/snap"

(* DDL inside contracts is admin-only; the schema-creating setup tx must
   be signed by the org admin. *)
let admin = Identity.create "org1/admin"

let registry () =
  let r = Identity.Registry.create () in
  List.iter
    (fun id ->
      match Identity.Registry.register r id with
      | Ok () -> ()
      | Error _ -> assert false)
    [ orderer; client; admin ];
  r

let setup_contract =
  Registry.Native
    (fun ctx ->
      ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)"))

let put_contract =
  Registry.Native
    (fun ctx -> ignore (Api.execute ctx "INSERT INTO kv VALUES ($1, $2)"))

let bump_contract =
  Registry.Native
    (fun ctx -> ignore (Api.execute ctx "UPDATE kv SET v = v + 1 WHERE k = $1"))

let del_contract =
  Registry.Native
    (fun ctx -> ignore (Api.execute ctx "DELETE FROM kv WHERE k = $1"))

let make_node ~registry name =
  let node =
    Node_core.create
      (Node_core.make_config ~name ~org:"org1"
         ~flow:Node_core.Order_execute ~orgs:[ "org1" ] ())
      ~registry
  in
  Node_core.bootstrap node;
  List.iter
    (fun (name, body) -> Node_core.install_contract node ~name body)
    [
      ("setup", setup_contract);
      ("put", put_contract);
      ("bump", bump_contract);
      ("del", del_contract);
    ];
  node

let new_chain () = Chain.create ~identity:orderer ~metadata:"s"

let process node block =
  match Node_core.process_block node block with
  | Ok r -> r
  | Error e -> Alcotest.failf "process_block: %s" e

(* Random-ish but deterministic little workload: puts, bumps and deletes
   over a tiny keyspace, 3 transactions per block. Duplicate-key inserts
   abort — deliberately, so ledger statuses and the WAL tail carry all
   three outcomes into the snapshot. *)
type op = Put of int * int | Bump of int | Del of int

let op_tx i = function
  | Put (k, v) ->
      Block.make_tx
        ~id:(Printf.sprintf "t-%d" i)
        ~identity:client ~contract:"put"
        ~args:[ Value.Int k; Value.Int v ]
  | Bump k ->
      Block.make_tx
        ~id:(Printf.sprintf "t-%d" i)
        ~identity:client ~contract:"bump" ~args:[ Value.Int k ]
  | Del k ->
      Block.make_tx
        ~id:(Printf.sprintf "t-%d" i)
        ~identity:client ~contract:"del" ~args:[ Value.Int k ]

let blocks_of_ops ops =
  let chain = new_chain () in
  let setup =
    Assembler.make chain
      [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]
  in
  let rec group i = function
    | [] -> []
    | ops ->
        let rec take n l =
          match (n, l) with
          | 0, rest | _, ([] as rest) -> ([], rest)
          | n, x :: rest ->
              let xs, rest = take (n - 1) rest in
              (x :: xs, rest)
        in
        let batch, rest = take 3 ops in
        (* bind before consing: constructor arguments evaluate right to
           left, and heights must be sequential (CLAUDE.md gotcha) *)
        let b = Assembler.make chain (List.mapi (fun j o -> op_tx (i + j) o) batch) in
        b :: group (i + List.length batch) rest
  in
  setup :: group 0 ops

(* What "byte-identical" means below: the rendered rows of a query. *)
let rendered node sql =
  match Node_core.query node sql with
  | Ok rs ->
      String.concat "\n"
        (List.map
           (fun row ->
             String.concat "|" (Array.to_list (Array.map Value.to_string row)))
           rs.Brdb_engine.Exec.rows)
  | Error e -> Alcotest.failf "query %S: %s" sql e

(* Live state and sys.* results must match replay in BOTH compaction
   modes; full PROVENANCE history (dead versions included) only survives
   [Archive] — [Pruned] drops dead chains by design, so it is compared
   only when the mode preserves it. *)
let observations ?(provenance = true) node =
  [
    rendered node "SELECT k, v FROM kv ORDER BY k";
    rendered node "SELECT height, txs, hash, prev_hash, state_digest \
                   FROM sys.blocks ORDER BY height";
    rendered node
      "SELECT gid, block, pos, txuser, contract, decision \
       FROM sys.transactions ORDER BY block, pos";
  ]
  @ if provenance then [ rendered node "PROVENANCE SELECT k, v FROM kv ORDER BY k" ] else []

let digest node ~height =
  match Node_core.state_digest node ~height with
  | Some d -> d
  | None -> Alcotest.failf "no state digest at height %d" height

(* Bootstrap a fresh node from [src]'s snapshot (round-tripped through the
   codec and the chunk layer) and replay [rest] on it. *)
let bootstrap_from ~registry ~compaction ~chunk_size src rest name =
  let snap = Node_core.export_snapshot src ~compaction in
  let payload = Snapshot.encode snap in
  let chunks = Chunk.split ~chunk_size payload in
  let m =
    Chunk.manifest_of_chunks ~height:snap.Snapshot.height
      ~state_digest:snap.Snapshot.state_digest ~chunk_size
      ~total_bytes:(String.length payload) chunks
  in
  if not (Chunk.verify_manifest m) then Alcotest.fail "manifest self-check";
  Array.iter
    (fun c ->
      if not (Chunk.verify_chunk m c) then Alcotest.fail "chunk self-check")
    chunks;
  let payload' =
    match Chunk.assemble m (Array.map (fun c -> Some c.Chunk.c_payload) chunks) with
    | Ok p -> p
    | Error e -> Alcotest.failf "assemble: %s" e
  in
  Alcotest.(check bool) "assembly is the identity" true (String.equal payload payload');
  let snap' =
    match Snapshot.decode payload' with
    | Ok s -> s
    | Error e -> Alcotest.failf "decode: %s" e
  in
  let fresh = make_node ~registry name in
  (match Node_core.install_snapshot fresh snap' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install: %s" e);
  List.iter (fun b -> ignore (process fresh b)) rest;
  (fresh, snap)

(* ------------------------------------------------------- qcheck property *)

let gen_ops =
  QCheck.Gen.(
    list_size (4 -- 18)
      (frequency
         [
           (4, map2 (fun k v -> Put (k, v)) (int_bound 6) (int_bound 99));
           (3, map (fun k -> Bump k) (int_bound 6));
           (2, map (fun k -> Del k) (int_bound 6));
         ]))

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Put (k, v) -> Printf.sprintf "put %d=%d" k v
         | Bump k -> Printf.sprintf "bump %d" k
         | Del k -> Printf.sprintf "del %d" k)
       ops)

let arbitrary_case =
  QCheck.make
    ~print:(fun (ops, cut) -> Printf.sprintf "cut=%d %s" cut (print_ops ops))
    QCheck.Gen.(pair gen_ops (int_bound 1000))

let prop_bootstrap_equals_replay =
  QCheck.Test.make ~name:"snapshot bootstrap == full replay (both modes)"
    ~count:30 arbitrary_case (fun (ops, cut) ->
      let blocks = blocks_of_ops ops in
      let n = List.length blocks in
      (* snapshot somewhere strictly inside the chain *)
      let k = 1 + (cut mod n) in
      let prefix = List.filteri (fun i _ -> i < k) blocks in
      let rest = List.filteri (fun i _ -> i >= k) blocks in
      let reg = registry () in
      let replica = make_node ~registry:reg "replica" in
      List.iter (fun b -> ignore (process replica b)) blocks;
      List.iter
        (fun compaction ->
          let src =
            make_node ~registry:reg
              ("src-" ^ Snapshot.compaction_to_string compaction)
          in
          List.iter (fun b -> ignore (process src b)) prefix;
          let fresh, _ =
            bootstrap_from ~registry:reg ~compaction ~chunk_size:256 src rest
              ("boot-" ^ Snapshot.compaction_to_string compaction)
          in
          if Node_core.height fresh <> n then
            QCheck.Test.fail_reportf "height %d, wanted %d"
              (Node_core.height fresh) n;
          for h = 1 to n do
            if digest fresh ~height:h <> digest replica ~height:h then
              QCheck.Test.fail_reportf "%s: digest differs at height %d"
                (Snapshot.compaction_to_string compaction)
                h
          done;
          let provenance = compaction = Snapshot.Archive in
          List.iter2
            (fun got want ->
              if not (String.equal got want) then
                QCheck.Test.fail_reportf "%s: observation differs:\n%s\nvs\n%s"
                  (Snapshot.compaction_to_string compaction)
                  got want)
            (observations ~provenance fresh)
            (observations ~provenance replica))
        [ Snapshot.Archive; Snapshot.Pruned ];
      true)

(* ------------------------------------------------------------------ units *)

let mixed_ops =
  [
    Put (1, 10); Put (2, 20); Put (3, 30); Bump 1; Del 2; Put (2, 21);
    Bump 3; Put (1, 99) (* duplicate key: aborts *); Del 3; Bump 1;
  ]

let test_tampered_chunk_rejected () =
  let reg = registry () in
  let src = make_node ~registry:reg "src" in
  List.iter (fun b -> ignore (process src b)) (blocks_of_ops mixed_ops);
  let snap = Node_core.export_snapshot src ~compaction:Snapshot.Archive in
  let payload = Snapshot.encode snap in
  let chunks = Chunk.split ~chunk_size:128 payload in
  let m =
    Chunk.manifest_of_chunks ~height:snap.Snapshot.height
      ~state_digest:snap.Snapshot.state_digest ~chunk_size:128
      ~total_bytes:(String.length payload) chunks
  in
  Alcotest.(check bool) "several chunks" true (Array.length chunks > 3);
  (* flip one bit of one payload: that chunk — and only that chunk — must
     fail content-address verification *)
  let victim = Array.length chunks / 2 in
  let mangled =
    let p = Bytes.of_string chunks.(victim).Chunk.c_payload in
    Bytes.set p 0 (Char.chr (Char.code (Bytes.get p 0) lxor 1));
    { (chunks.(victim)) with Chunk.c_payload = Bytes.to_string p }
  in
  Alcotest.(check bool) "mangled chunk rejected" false (Chunk.verify_chunk m mangled);
  Alcotest.(check bool) "original chunk verifies" true
    (Chunk.verify_chunk m chunks.(victim));
  (* a manifest whose root was tampered with must fail its self-check *)
  let bad = { m with Chunk.m_root = String.map (fun _ -> 'a') m.Chunk.m_root } in
  Alcotest.(check bool) "tampered manifest rejected" false (Chunk.verify_manifest bad);
  (* a missing chunk is named by assemble *)
  let parts = Array.map (fun c -> Some c.Chunk.c_payload) chunks in
  parts.(victim) <- None;
  (match Chunk.assemble m parts with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "assemble accepted missing chunk");
  (* and a snapshot whose payload was tampered with decodes to an error or
     to a snapshot whose digests no longer chain — install must refuse *)
  let p = Bytes.of_string payload in
  Bytes.set p (Bytes.length p / 2)
    (Char.chr (Char.code (Bytes.get p (Bytes.length p / 2)) lxor 1));
  (match Snapshot.decode (Bytes.to_string p) with
  | Error _ -> ()
  | Ok tampered -> (
      let fresh = make_node ~registry:reg "fresh" in
      match Node_core.install_snapshot fresh tampered with
      | Error _ -> ()
      | Ok () ->
          (* the flipped bit can land in ignorable padding only if the
             state digests still chain — then state equals the source's *)
          Alcotest.(check string) "tamper was inert"
            (rendered src "SELECT k, v FROM kv ORDER BY k")
            (rendered fresh "SELECT k, v FROM kv ORDER BY k")))

let test_mid_install_crash_recovers () =
  let reg = registry () in
  let src = make_node ~registry:reg "src" in
  List.iter (fun b -> ignore (process src b)) (blocks_of_ops mixed_ops);
  let snap = Node_core.export_snapshot src ~compaction:Snapshot.Archive in
  let victim = make_node ~registry:reg "victim" in
  (* crash after the storage swap, before bookkeeping finalized: the WAL
     install guard is still set *)
  (match Node_core.install_snapshot ~crash_after_tables:true victim snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install (crash injection): %s" e);
  (* §3.6 restart path: the half-install is detected and wiped *)
  (match Node_core.recover victim with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "recover repaired a block?"
  | Error e -> Alcotest.failf "recover: %s" e);
  Alcotest.(check int) "clean slate: height 0" 0 (Node_core.height victim);
  (match Node_core.query victim "SELECT k FROM kv" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "half-installed table survived recovery");
  (* the transfer is idempotent: installing again from scratch succeeds *)
  (match Node_core.install_snapshot victim snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "re-install: %s" e);
  Alcotest.(check int) "installed height"
    (Node_core.height src) (Node_core.height victim);
  List.iter2
    (fun a b -> Alcotest.(check string) "state matches source" a b)
    (observations src) (observations victim)

(* A decoded snapshot whose block 3 fails the orderer-signature check is
   refused with the verification error, and the installing node keeps
   its height, state digest and tables. *)
let test_install_refuses_unauthenticated_blocks () =
  let reg = registry () in
  let blocks = blocks_of_ops mixed_ops in
  let src = make_node ~registry:reg "src" in
  List.iter (fun b -> ignore (process src b)) blocks;
  let snap = Node_core.export_snapshot src ~compaction:Snapshot.Archive in
  let victim = make_node ~registry:reg "victim" in
  List.iteri (fun i b -> if i < 2 then ignore (process victim b)) blocks;
  let height = Node_core.height victim in
  let state_digest = Node_core.state_digest victim ~height in
  let tables = rendered victim "SELECT * FROM sys.tables ORDER BY name" in
  let other_hash = Brdb_crypto.Sha256.digest "another block" in
  List.iter
    (fun (label, fault) ->
      let blocks =
        List.map
          (fun (b : Block.t) -> if b.Block.height = 3 then fault b else b)
          snap.Snapshot.blocks
      in
      let decoded =
        match Snapshot.decode (Snapshot.encode { snap with Snapshot.blocks }) with
        | Ok s -> s
        | Error e -> Alcotest.failf "decode: %s" e
      in
      (match Node_core.install_snapshot victim decoded with
      | Ok () -> Alcotest.failf "%s: install accepted" label
      | Error e ->
          Alcotest.(check string) label "snapshot block 3 fails verification" e);
      Alcotest.(check int) (label ^ ": height") height (Node_core.height victim);
      Alcotest.(check (option string)) (label ^ ": state digest") state_digest
        (Node_core.state_digest victim ~height);
      Alcotest.(check string) (label ^ ": sys.tables") tables
        (rendered victim "SELECT * FROM sys.tables ORDER BY name"))
    [
      ("dropped signatures", fun b -> { b with Block.signatures = [] });
      ( "unknown orderer",
        fun b ->
          Block.sign { b with Block.signatures = [] } (Identity.create "orderer/mallory") );
      ( "signed over another hash",
        fun b ->
          {
            b with
            Block.signatures = [ (Identity.name orderer, Identity.sign orderer other_hash) ];
          } );
    ]

(* Decode leaves every block hash empty for install to derive; a snapshot
   built in process carries its hashes, and a block whose hash is not its
   contents' is refused even though its signatures cover its contents. *)
let test_install_refuses_wrong_in_process_hash () =
  let reg = registry () in
  let blocks = blocks_of_ops mixed_ops in
  let src = make_node ~registry:reg "src" in
  List.iter (fun b -> ignore (process src b)) blocks;
  let snap = Node_core.export_snapshot src ~compaction:Snapshot.Archive in
  let victim = make_node ~registry:reg "victim" in
  let other_hash = Brdb_crypto.Sha256.digest "another block" in
  let blocks =
    List.map
      (fun (b : Block.t) ->
        if b.Block.height = 3 then { b with Block.hash = other_hash } else b)
      snap.Snapshot.blocks
  in
  (match Node_core.install_snapshot victim { snap with Snapshot.blocks } with
  | Ok () -> Alcotest.fail "install accepted a block under another hash"
  | Error e -> Alcotest.(check string) "refused" "snapshot block 3 fails verification" e);
  Alcotest.(check int) "height unchanged" 0 (Node_core.height victim);
  match Node_core.install_snapshot victim snap with
  | Ok () -> Alcotest.(check int) "the honest snapshot installs" (Node_core.height src)
               (Node_core.height victim)
  | Error e -> Alcotest.failf "honest install: %s" e

let install node snap =
  match Node_core.install_snapshot node snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install: %s" e

(* The per-height rows sys.* renders: compared whole, every column. *)
let sys_rows node =
  List.map (rendered node)
    [
      "SELECT * FROM sys.critical_path ORDER BY height";
      "SELECT * FROM sys.transactions ORDER BY block, pos";
      "SELECT * FROM sys.blocks ORDER BY height";
    ]

let check_renders_like ~label want got =
  List.iter2 (Alcotest.(check string) label) (sys_rows want) (sys_rows got)

(* A node that processed blocks 1-3 and then installs a snapshot of a
   longer chain keeps none of its own per-height records: its sys.* rows
   render exactly like a fresh joiner's, with no critical path for any
   installed height. The same holds over the crash path: an install
   interrupted after the storage swap, then §3.6 restart, leaves no
   record behind, and the fetch that restarts afresh installs cleanly. *)
let test_install_drops_stale_rows () =
  let reg = registry () in
  let blocks = blocks_of_ops mixed_ops in
  let src = make_node ~registry:reg "src" in
  List.iter (fun b -> ignore (process src b)) blocks;
  let snap = Node_core.export_snapshot src ~compaction:Snapshot.Archive in
  let joiner = make_node ~registry:reg "joiner" in
  install joiner snap;
  Alcotest.(check string) "a joiner has no critical path" ""
    (rendered joiner "SELECT * FROM sys.critical_path");
  List.iter
    (fun crash ->
      let node = make_node ~registry:reg "node" in
      List.iteri (fun i b -> if i < 3 then ignore (process node b)) blocks;
      Alcotest.(check string) "processed blocks have a critical path" "1\n2\n3"
        (rendered node "SELECT height FROM sys.critical_path ORDER BY height");
      if crash then begin
        (match Node_core.install_snapshot ~crash_after_tables:true node snap with
        | Ok () -> ()
        | Error e -> Alcotest.failf "install (crash injection): %s" e);
        (match Node_core.recover node with
        | Ok None -> ()
        | Ok (Some _) -> Alcotest.fail "recover repaired a block?"
        | Error e -> Alcotest.failf "recover: %s" e);
        for height = 1 to 3 do
          Alcotest.(check bool)
            (Printf.sprintf "no critical-path entry at %d after the reset" height)
            true
            (Node_core.critical_path node ~height = None)
        done;
        check_renders_like ~label:"reset renders like a fresh node"
          (make_node ~registry:reg "fresh") node
      end;
      install node snap;
      check_renders_like ~label:"renders like a fresh joiner" joiner node)
    [ false; true ]

(* The txlog section is input from another peer: install refuses one that
   does not name every height 1..n once, in order, before it touches any
   state. *)
let test_install_refuses_bad_txlog () =
  let module C = Brdb_snapshot.Codec in
  let reg = registry () in
  let blocks = blocks_of_ops mixed_ops in
  let src = make_node ~registry:reg "src" in
  List.iter (fun b -> ignore (process src b)) blocks;
  let snap = Node_core.export_snapshot src ~compaction:Snapshot.Archive in
  let n = snap.Snapshot.height in
  (* (height, records) with each record's five fields kept as encoded *)
  let entries =
    match
      C.decode (Option.get (Snapshot.find_extra snap "txlog")) (fun r ->
          C.r_list r (fun r ->
              let h = C.r_int r in
              let records =
                C.r_list r (fun r ->
                    let pos = C.r_int r in
                    let gid = C.r_str r in
                    let user = C.r_str r in
                    let contract = C.r_str r in
                    let status = C.r_str r in
                    (pos, gid, user, contract, status))
              in
              (h, records)))
    with
    | Ok e -> e
    | Error e -> Alcotest.failf "decode txlog: %s" e
  in
  Alcotest.(check (list int)) "honest txlog covers 1..n" (List.init n succ)
    (List.map fst entries);
  let encode entries =
    let w = C.writer () in
    C.list w
      (fun w (h, records) ->
        C.int w h;
        C.list w
          (fun w (pos, gid, user, contract, status) ->
            C.int w pos;
            List.iter (C.str w) [ gid; user; contract; status ])
          records)
      entries;
    C.contents w
  in
  Alcotest.(check bool) "re-encoding is the identity" true
    (Snapshot.find_extra snap "txlog" = Some (encode entries));
  let victim = make_node ~registry:reg "victim" in
  List.iteri (fun i b -> if i < 2 then ignore (process victim b)) blocks;
  let height = Node_core.height victim in
  let state_digest = Node_core.state_digest victim ~height in
  let tables = rendered victim "SELECT * FROM sys.tables ORDER BY name" in
  List.iter
    (fun (label, entries) ->
      let extra =
        List.map
          (fun (name, payload) ->
            if name = "txlog" then (name, encode entries) else (name, payload))
          snap.Snapshot.extra
      in
      let decoded =
        match Snapshot.decode (Snapshot.encode { snap with Snapshot.extra }) with
        | Ok s -> s
        | Error e -> Alcotest.failf "decode: %s" e
      in
      (match Node_core.install_snapshot victim decoded with
      | Ok () -> Alcotest.failf "%s: install accepted" label
      | Error e ->
          Alcotest.(check string) label "snapshot txlog section does not cover every height" e);
      Alcotest.(check int) (label ^ ": height") height (Node_core.height victim);
      Alcotest.(check (option string)) (label ^ ": state digest") state_digest
        (Node_core.state_digest victim ~height);
      Alcotest.(check string) (label ^ ": sys.tables") tables
        (rendered victim "SELECT * FROM sys.tables ORDER BY name"))
    [
      ("extra height", entries @ [ (n + 1, []) ]);
      ("missing height", List.filter (fun (h, _) -> h <> 2) entries);
      ( "duplicate height",
        List.concat_map (fun ((h, _) as e) -> if h = 2 then [ e; e ] else [ e ]) entries );
    ]

(* Snapshots carry write-set roots, not entries or trees: every installed
   height stays below the provenance floor, while a block processed after
   the install serves proofs again. *)
let test_installed_heights_below_provenance_floor () =
  let reg = registry () in
  let src = make_node ~registry:reg "src" in
  let blocks = blocks_of_ops mixed_ops in
  let n = List.length blocks in
  List.iteri (fun i b -> if i < n - 1 then ignore (process src b)) blocks;
  let floor = Node_core.height src in
  let fresh, _ =
    bootstrap_from ~registry:reg ~compaction:Snapshot.Archive ~chunk_size:256 src
      [ List.nth blocks (n - 1) ]
      "fresh"
  in
  ignore (process src (List.nth blocks (n - 1)));
  for height = 1 to floor do
    match
      Brdb_client.Proof.build_provenance fresh ~height ~matches:(fun _ -> true)
    with
    | Ok _ -> Alcotest.failf "height %d served below the floor" height
    | Error e ->
        Alcotest.(check string)
          (Printf.sprintf "height %d error" height)
          (Printf.sprintf
             "height %d is below this node's provenance floor (installed from a \
              snapshot)"
             height)
          e
  done;
  let above = floor + 1 in
  match Node_core.write_set_entries_at fresh ~height:above with
  | None -> Alcotest.fail "block processed after install has no write set"
  | Some [] -> Alcotest.fail "block processed after install wrote nothing"
  | Some (entry :: _) -> (
      match
        ( Brdb_client.Proof.build_provenance fresh ~height:above
            ~matches:(String.equal entry),
          Brdb_client.Proof.build_provenance src ~height:above
            ~matches:(String.equal entry) )
      with
      | Ok pv, Ok pv_src ->
          Alcotest.(check string) "same proof as the replaying node"
            (Brdb_crypto.Merkle.proof_to_string pv_src.Brdb_client.Proof.pv_proof)
            (Brdb_crypto.Merkle.proof_to_string pv.Brdb_client.Proof.pv_proof);
          Alcotest.(check bool) "verifies against the tip digest" true
            (Brdb_client.Proof.verify_provenance
               ~tip_digest:(Brdb_client.Proof.tip_digest fresh)
               pv)
      | Error e, _ | _, Error e -> Alcotest.failf "above the floor: %s" e)

(* The history root is the provenance anchor: after every way a node's
   per-height records change (processing, §3.6 recovery of a mid-commit
   crash, snapshot install, the reset of a half install, a re-chain from
   a tampered digest) it equals the list reference's root over the
   chained digests 1..tip, and a joiner's equals its source's. *)
let test_history_root_tracks_digests () =
  let reg = registry () in
  let blocks = blocks_of_ops mixed_ops in
  let n = List.length blocks in
  let check label node =
    let tip = Node_core.history_size node in
    Alcotest.(check int) (label ^ ": one leaf per height") (Node_core.height node) tip;
    Alcotest.(check string) (label ^ ": root over the digests")
      (Merkle_ref.root (List.init tip (fun h -> digest node ~height:(h + 1))))
      (Node_core.history_root node)
  in
  let src = make_node ~registry:reg "src" in
  check "empty" src;
  List.iteri
    (fun i b ->
      if i < n - 1 then begin
        ignore (process src b);
        check (Printf.sprintf "block %d" (i + 1)) src
      end)
    blocks;
  let last = List.nth blocks (n - 1) in
  (match Block.check reg last with
  | Ok c -> Node_core.process_block_with_crash src c ~crash:(Node_core.Crash_mid_commit 1)
  | Error e -> Alcotest.fail e);
  (match Node_core.recover src with
  | Ok (Some _) -> check "recovered" src
  | Ok None -> Alcotest.fail "interrupted block not re-executed"
  | Error e -> Alcotest.failf "recover: %s" e);
  let snap = Node_core.export_snapshot src ~compaction:Snapshot.Archive in
  let joiner = make_node ~registry:reg "joiner" in
  ignore (process joiner (List.hd blocks));
  install joiner snap;
  check "installed" joiner;
  Alcotest.(check string) "joiner's anchor is the source's"
    (Brdb_client.Proof.tip_digest src) (Brdb_client.Proof.tip_digest joiner);
  let half = make_node ~registry:reg "half" in
  List.iteri (fun i b -> if i < 3 then ignore (process half b)) blocks;
  (match Node_core.install_snapshot ~crash_after_tables:true half snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install (crash injection): %s" e);
  (match Node_core.recover half with
  | Ok None -> check "half install reset" half
  | Ok (Some _) -> Alcotest.fail "recover repaired a block?"
  | Error e -> Alcotest.failf "recover: %s" e);
  let before = Node_core.history_root src in
  Node_core.Testing.tamper_digest src ~height:3;
  check "re-chained from height 3" src;
  Alcotest.(check bool) "a tampered digest moves the anchor" false
    (String.equal before (Node_core.history_root src))

let test_pruned_compaction_coherent () =
  let reg = registry () in
  let src = make_node ~registry:reg "src" in
  List.iter (fun b -> ignore (process src b)) (blocks_of_ops mixed_ops);
  let h = Node_core.height src in
  let archive = Node_core.export_snapshot src ~compaction:Snapshot.Archive in
  let pruned = Node_core.export_snapshot src ~compaction:Snapshot.Pruned in
  let ra = Snapshot.resident_versions archive in
  let rp = Snapshot.resident_versions pruned in
  Alcotest.(check bool)
    (Printf.sprintf "pruned resident (%d) < archive resident (%d)" rp ra)
    true (rp < ra);
  let na = make_node ~registry:reg "na" and np = make_node ~registry:reg "np" in
  (match Node_core.install_snapshot na archive with
  | Ok () -> ()
  | Error e -> Alcotest.failf "archive install: %s" e);
  (match Node_core.install_snapshot np pruned with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pruned install: %s" e);
  (* identical live state and digests either way (PROVENANCE history is
     the documented exception: pruned mode drops it) *)
  List.iter2
    (fun a b -> Alcotest.(check string) "live state matches" a b)
    (observations ~provenance:false na)
    (observations ~provenance:false np);
  Alcotest.(check string) "digests match"
    (digest na ~height:h) (digest np ~height:h);
  (* coherence with Table.prune: pruned capture dropped exactly what a
     prune below the snapshot height drops, so pruning the archive
     install converges on the pruned install, which has nothing left *)
  Alcotest.(check int) "archive - pruned == prunable" (ra - rp)
    (Node_core.prune na ~before:h ());
  Alcotest.(check int) "pruned install has nothing to prune" 0
    (Node_core.prune np ~before:h ())

(* -------------------------------------------------- peer-level (network) *)

let put_block fx i =
  TP.deliver_block fx
    [
      Block.make_tx
        ~id:(Printf.sprintf "n%d" i)
        ~identity:fx.TP.client ~contract:"put"
        ~args:[ Value.Int i; Value.Int i ];
    ]

let counter_of p name =
  Brdb_obs.Registry.counter
    (Brdb_obs.Obs.metrics (Brdb_node.Peer.obs p))
    ~node:(Brdb_node.Peer.name p) name

let test_restart_threshold_boundary () =
  let fx =
    TP.make_fx ~flow:Node_core.Order_execute ~snapshot_threshold:4 ()
  in
  TP.init_chain fx;
  let victim = List.nth fx.TP.peers 2 in
  (* end-to-end, gap exactly at the threshold: block replay *)
  Brdb_node.Peer.crash victim;
  for i = 1 to 4 do put_block fx i done;
  Brdb_node.Peer.restart victim;
  ignore (Clock.run fx.TP.clock);
  Alcotest.(check (list int)) "caught up by replay" [ 5; 5; 5 ] (TP.heights fx);
  Alcotest.(check int) "no snapshot used" 0
    (Brdb_node.Peer.snapshots_installed victim);
  Alcotest.(check int) "blocks fetched instead" 4
    (Brdb_node.Peer.fetched_blocks victim);
  (* end-to-end, gap strictly beyond the threshold: snapshot bootstrap *)
  Brdb_node.Peer.crash victim;
  for i = 5 to 9 do put_block fx i done;
  Brdb_node.Peer.restart victim;
  ignore (Clock.run fx.TP.clock);
  Alcotest.(check (list int)) "caught up by snapshot" [ 10; 10; 10 ]
    (TP.heights fx);
  Alcotest.(check int) "exactly one snapshot install" 1
    (Brdb_node.Peer.snapshots_installed victim);
  (* the install surfaces in sys.snapshots on the bootstrapped node *)
  let rs =
    match
      Node_core.query (Brdb_node.Peer.core victim)
        "SELECT height, source FROM sys.snapshots"
    with
    | Ok rs -> rs.Brdb_engine.Exec.rows
    | Error e -> Alcotest.failf "sys.snapshots: %s" e
  in
  (match rs with
  | [ [| Value.Int 10; Value.Text src |] ] ->
      Alcotest.(check bool) "source is another peer" true
        (List.mem src [ "peer-1"; "peer-2" ])
  | _ -> Alcotest.fail "unexpected sys.snapshots rows");
  (* and the bootstrapped node keeps working: another block commits *)
  put_block fx 10;
  Alcotest.(check (list int)) "still in lockstep" [ 11; 11; 11 ] (TP.heights fx)

let test_snapshot_transfer_survives_corruption () =
  (* Chunks are bit-flipped in flight with high probability; content
     addressing must reject every mangled chunk and the retry/rotation
     machinery must still complete the bootstrap. Small chunks make the
     transfer long enough for corruption to actually hit. *)
  let fx =
    TP.make_fx ~flow:Node_core.Order_execute ~snapshot_threshold:2
      ~snapshot_chunk_size:64 ()
  in
  TP.init_chain fx;
  Msg.Net.set_corrupter fx.TP.net (function
    | Msg.Snapshot_chunk { height; chunk }
      when String.length chunk.Chunk.c_payload > 0 ->
        let p = Bytes.of_string chunk.Chunk.c_payload in
        Bytes.set p 0 (Char.chr (Char.code (Bytes.get p 0) lxor 1));
        Msg.Snapshot_chunk
          { height; chunk = { chunk with Chunk.c_payload = Bytes.to_string p } }
    | m -> m);
  let victim = List.nth fx.TP.peers 2 in
  Brdb_node.Peer.crash victim;
  for i = 1 to 6 do put_block fx i done;
  (* corrupt only towards the victim, so serving peers stay in lockstep *)
  List.iter
    (fun src ->
      Msg.Net.set_fault fx.TP.net ~src ~dst:"peer-3"
        { Brdb_sim.Network.drop = 0.; duplicate = 0.; corrupt = 0.35 })
    [ "peer-1"; "peer-2" ];
  Brdb_node.Peer.restart victim;
  ignore (Clock.run fx.TP.clock);
  Alcotest.(check (list int)) "bootstrap completed under corruption"
    [ 7; 7; 7 ] (TP.heights fx);
  Alcotest.(check int) "snapshot was used" 1
    (Brdb_node.Peer.snapshots_installed victim);
  Alcotest.(check bool) "corruption actually happened" true
    (Msg.Net.corrupted fx.TP.net > 0);
  Alcotest.(check int) "every mangled chunk was rejected"
    (Msg.Net.corrupted fx.TP.net)
    (counter_of victim "snapshot.chunks_corrupted");
  Alcotest.(check bool) "rejected chunks were re-fetched" true
    (counter_of victim "snapshot.chunks_retried" > 0);
  (* the acceptance bar: a chunk-fault-injected bootstrap still lands on
     the same chained state digest as the replicas that never crashed *)
  let dg p =
    match
      Node_core.state_digest (Brdb_node.Peer.core p)
        ~height:(Node_core.height (Brdb_node.Peer.core p))
    with
    | Some d -> d
    | None -> Alcotest.fail "missing state digest"
  in
  List.iter
    (fun p ->
      Alcotest.(check string) "state digests agree under corruption"
        (dg (List.hd fx.TP.peers))
        (dg p))
    fx.TP.peers

let suites =
  [
    ( "snapshot",
      [
        Alcotest.test_case "tampered chunks rejected" `Quick
          test_tampered_chunk_rejected;
        Alcotest.test_case "mid-install crash recovers via WAL" `Quick
          test_mid_install_crash_recovers;
        Alcotest.test_case "install refuses unauthenticated blocks" `Quick
          test_install_refuses_unauthenticated_blocks;
        Alcotest.test_case "install refuses a wrong in-process block hash" `Quick
          test_install_refuses_wrong_in_process_hash;
        Alcotest.test_case "install drops stale per-height rows" `Quick
          test_install_drops_stale_rows;
        Alcotest.test_case "install refuses a txlog that skips or repeats heights"
          `Quick test_install_refuses_bad_txlog;
        Alcotest.test_case "pruned compaction coherent with prune" `Quick
          test_pruned_compaction_coherent;
        Alcotest.test_case "history root tracks the chained digests" `Quick
          test_history_root_tracks_digests;
        Alcotest.test_case "installed heights stay below the proof floor" `Quick
          test_installed_heights_below_provenance_floor;
        Alcotest.test_case "restart threshold boundary" `Quick
          test_restart_threshold_boundary;
        Alcotest.test_case "transfer survives chunk corruption" `Quick
          test_snapshot_transfer_survives_corruption;
        QCheck_alcotest.to_alcotest prop_bootstrap_equals_replay;
      ] );
  ]
