(* Client plane (ISSUE 10): admission control, batch authentication,
   verifiable reads.

   The load-bearing property here is the admission oracle: with admission
   control on, the committed state and every per-block write-set hash are
   byte-identical to an admission-off run of the same workload — early
   aborts only ever remove transactions that would have aborted
   server-side anyway. The oracle runs at the Node_core level (blocks
   built by hand, no network) so including/excluding a transaction cannot
   perturb anything but block contents. *)

module Node_core = Brdb_node.Node_core
module Block = Brdb_ledger.Block
module Assembler = Brdb_consensus.Assembler
module Identity = Brdb_crypto.Identity
module Merkle = Brdb_crypto.Merkle
module Value = Brdb_storage.Value
module Version = Brdb_storage.Version
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api
module Cutter = Brdb_consensus.Cutter
module B = Brdb_core.Blockchain_db
module Oreg = Brdb_obs.Registry
module Obs = Brdb_obs.Obs
module Admission = Brdb_client.Admission
module Proof = Brdb_client.Proof
module Session = Brdb_client.Session

(* ---------------------------------------------------------------- harness *)

let keyspace = 3

let setup_contract =
  Registry.Native
    (fun ctx ->
      ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
      for k = 0 to keyspace - 1 do
        Api.set_local ctx "k" (Value.Int k);
        ignore (Api.execute ctx "INSERT INTO kv VALUES (:k, 100)")
      done)

(* [$2] is a uniqueness tag so concurrent sessions produce distinct EO
   content-hash ids; the contract ignores it. *)
let bump_contract =
  Registry.Native
    (fun ctx -> ignore (Api.execute ctx "UPDATE kv SET v = v + 1 WHERE k = $1"))

let put_contract =
  Registry.Native
    (fun ctx -> ignore (Api.execute ctx "INSERT INTO kv VALUES ($1, $2)"))

let orderer = Identity.create "orderer/client"

let client = Identity.create "org1/client"

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

let make_node ~registry name =
  let node =
    Node_core.create
      (Node_core.make_config ~name ~org:"org1" ~flow:Node_core.Execute_order
         ~orgs:[ "org1" ] ())
      ~registry
  in
  Node_core.bootstrap node;
  Node_core.install_contract node ~name:"setup" setup_contract;
  Node_core.install_contract node ~name:"bump" bump_contract;
  Node_core.install_contract node ~name:"put" put_contract;
  node

let new_chain () = Chain.create ~identity:orderer ~metadata:"c"

let process node block =
  match Node_core.process_block node block with
  | Ok r -> r
  | Error e -> Alcotest.failf "process_block: %s" e

let boot () =
  let registry = registry () in
  let node = make_node ~registry "A" in
  let chain = new_chain () in
  let r =
    process node
      (Assembler.make chain
         [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ])
  in
  (match r.Node_core.br_statuses with
  | [ (_, Node_core.S_committed) ] -> ()
  | _ -> Alcotest.fail "setup tx failed");
  (node, chain)

let bump_tx ~key ~tag ~snapshot =
  Block.make_eo_tx ~identity:client ~contract:"bump"
    ~args:[ Value.Int key; Value.Int tag ]
    ~snapshot

let put_tx ~key ~v ~snapshot =
  Block.make_eo_tx ~identity:client ~contract:"put"
    ~args:[ Value.Int key; Value.Int v ]
    ~snapshot

let state_of node =
  match Node_core.query node "SELECT k, v FROM kv ORDER BY k" with
  | Ok rs ->
      List.map
        (fun row -> Array.to_list (Array.map Value.to_string row))
        rs.Brdb_engine.Exec.rows
  | Error e -> Alcotest.failf "query: %s" e

let flip_byte s i =
  if String.length s = 0 then s
  else begin
    let i = i mod String.length s in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  end

(* The path to leaf [i] with one sibling digest tampered: the honest
   proof over the same leaves after flipping a byte of one other leaf.
   [None] for a single leaf, whose path is empty. *)
let tampered_path leaves i ofs =
  let n = List.length leaves in
  if n < 2 then None
  else begin
    let j = (i + 1 + (ofs mod (n - 1))) mod n in
    Some (Merkle.prove (List.mapi (fun k l -> if k = j then flip_byte l ofs else l) leaves) i)
  end

(* ------------------------------------------------------------ unit: cutter *)

let test_cutter_batch_auth () =
  let registry = registry () in
  let verify tx = Block.verify_tx registry tx in
  let t1 = Block.make_tx ~id:"a" ~identity:client ~contract:"c" ~args:[] in
  let t2 = Block.make_tx ~id:"b" ~identity:client ~contract:"c" ~args:[] in
  (* stale signature: the payload (id) changed under it *)
  let forged = { t2 with Block.tx_id = "f" } in
  let c = Cutter.create ~auth:verify ~block_size:3 () in
  (match Cutter.add c t1 with
  | Cutter.First -> ()
  | _ -> Alcotest.fail "first add");
  (match Cutter.add c forged with
  | Cutter.Buffered -> ()
  | _ -> Alcotest.fail "second add");
  (match Cutter.add c t2 with
  | Cutter.Cut txs ->
      Alcotest.(check (list string))
        "forged tx filtered from the batch" [ "a"; "b" ]
        (List.map (fun tx -> tx.Block.tx_id) txs)
  | _ -> Alcotest.fail "expected a cut");
  Alcotest.(check int) "verified" 2 (Cutter.auth_verified c);
  Alcotest.(check int) "rejected" 1 (Cutter.auth_rejected c);
  (match Cutter.add c t1 with
  | Cutter.Duplicate -> ()
  | _ -> Alcotest.fail "replayed add");
  Alcotest.(check int) "replays" 1 (Cutter.replays c);
  (* an all-forged batch never becomes a block *)
  let c2 = Cutter.create ~auth:verify ~block_size:2 () in
  ignore (Cutter.add c2 { t1 with Block.tx_id = "f1" });
  (match Cutter.add c2 { t2 with Block.tx_id = "f2" } with
  | Cutter.Buffered -> ()
  | _ -> Alcotest.fail "all-forged batch must not cut");
  Alcotest.(check bool) "nothing left to cut" true (Cutter.cut c2 = None);
  Alcotest.(check int) "both rejected" 2 (Cutter.auth_rejected c2);
  (* a BFT backup's stash refuses forgeries on arrival *)
  let c3 = Cutter.create ~auth:verify ~block_size:2 () in
  Alcotest.(check bool) "forgery not stashed" true
    (Cutter.stash c3 forged = `Rejected);
  Alcotest.(check bool) "valid tx stashed" true (Cutter.stash c3 t1 = `Stashed);
  Alcotest.(check (list string)) "backlog holds only the valid tx" [ "a" ]
    (List.map (fun tx -> tx.Block.tx_id) (Cutter.pending_txs c3));
  Alcotest.(check int) "stash rejection counted" 1 (Cutter.auth_rejected c3);
  Alcotest.(check int) "stash counts no verification" 0 (Cutter.auth_verified c3)

let test_cutter_noncanonical_signature () =
  (* s = -1 is outside the canonical range: verification says no (it used
     to raise out of the exponentiation) and the cutter drops the tx. *)
  let registry = registry () in
  let t1 = Block.make_tx ~id:"a" ~identity:client ~contract:"c" ~args:[] in
  let t2 = Block.make_tx ~id:"b" ~identity:client ~contract:"c" ~args:[] in
  let bad = { t2 with Block.tx_signature = { t2.Block.tx_signature with Brdb_crypto.Schnorr.s = -1L } } in
  let c = Cutter.create ~auth:(Block.verify_tx registry) ~block_size:3 () in
  ignore (Cutter.add c t1);
  ignore (Cutter.add c bad);
  (match Cutter.cut c with
  | Some txs ->
      Alcotest.(check (list string)) "only the valid tx is cut" [ "a" ]
        (List.map (fun tx -> tx.Block.tx_id) txs)
  | None -> Alcotest.fail "expected a cut");
  Alcotest.(check int) "counted as rejected" 1 (Cutter.auth_rejected c);
  Alcotest.(check int) "valid one verified" 1 (Cutter.auth_verified c)

(* --------------------------------------------------------- unit: admission *)

let test_admission_checks () =
  let node, chain = boot () in
  let h = Node_core.height node in
  let pin, vals = Admission.pin_read node ~table:"kv" ~key:(Value.Int 1) ~height:h in
  Alcotest.(check bool) "pinned read sees the row" true
    (vals = Some [| Value.Int 1; Value.Int 100 |]);
  Alcotest.(check bool) "fresh pin admits" true
    (Admission.check node ~pins:[ pin ] ~pinned_height:h () = Ok ());
  let pin9, v9 =
    Admission.pin_read node ~table:"kv" ~key:(Value.Int 999) ~height:h
  in
  Alcotest.(check bool) "absent row reads None" true (v9 = None);
  (* supersede both pins: bump key 1, insert key 999 *)
  ignore (process node (Assembler.make chain [ bump_tx ~key:1 ~tag:1 ~snapshot:h ]));
  ignore (process node (Assembler.make chain [ put_tx ~key:999 ~v:7 ~snapshot:h ]));
  (match Admission.check node ~pins:[ pin ] ~pinned_height:h () with
  | Error (Admission.Superseded { table = "kv"; _ }) -> ()
  | _ -> Alcotest.fail "updated pin must be superseded");
  (match Admission.check node ~pins:[ pin9 ] ~pinned_height:h () with
  | Error (Admission.Superseded _) -> ()
  | _ -> Alcotest.fail "a row appearing under an absence pin must supersede");
  (* Early Fail Tx (2): height window *)
  (match Admission.check node ~pins:[] ~pinned_height:h ~max_window:1 () with
  | Error (Admission.Expired { age = 2; window = 1 }) -> ()
  | _ -> Alcotest.fail "expired window must fail");
  Alcotest.(check bool) "wide window admits" true
    (Admission.check node ~pins:[] ~pinned_height:h ~max_window:2 () = Ok ());
  (* sys.* views have no versions to pin *)
  (try
     ignore (Admission.pin_read node ~table:"sys.blocks" ~key:(Value.Int 1) ~height:h);
     Alcotest.fail "sys.* lookup must raise"
   with Invalid_argument _ -> ())

(* ------------------------------------------- qcheck (a): admission oracle *)

(* A round is a cohort of contended sessions: (hot key, submit delay in
   rounds). Each session pins at its creation round and submits [delay]
   rounds later, after other cohorts' bumps have had a chance to
   supersede its pin. One guaranteed-clean insert per round keeps every
   block non-empty so block heights align between the two runs. *)
let gen_rounds =
  QCheck.Gen.(
    list_size (3 -- 7) (list_size (0 -- 3) (pair (int_bound (keyspace - 1)) (1 -- 3))))

let print_rounds rounds =
  String.concat "|"
    (List.map
       (fun cohort ->
         String.concat ","
           (List.map (fun (k, d) -> Printf.sprintf "k%d+%d" k d) cohort))
       rounds)

let arbitrary_rounds = QCheck.make ~print:print_rounds gen_rounds

type sess = {
  sx_tx : Block.tx;
  sx_pins : Admission.pin list;
  sx_pinned : int;
  sx_due : int;
}

let run_workload ~admission rounds =
  let registry = registry () in
  let node = make_node ~registry "W" in
  let chain = new_chain () in
  ignore
    (process node
       (Assembler.make chain
          [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]));
  let pending = ref [] in
  let tag = ref 0 in
  let fresh = ref 0 in
  let early = ref [] in
  let statuses = Hashtbl.create 64 in
  let ws = ref [] in
  let n_rounds = List.length rounds in
  for r = 0 to n_rounds + 3 do
    let cohort = if r < n_rounds then List.nth rounds r else [] in
    let h = Node_core.height node in
    List.iter
      (fun (k, d) ->
        incr tag;
        let pin, _ =
          Admission.pin_read node ~table:"kv" ~key:(Value.Int k) ~height:h
        in
        pending :=
          !pending
          @ [
              {
                sx_tx = bump_tx ~key:k ~tag:!tag ~snapshot:h;
                sx_pins = [ pin ];
                sx_pinned = h;
                sx_due = r + d;
              };
            ])
      cohort;
    let due, rest = List.partition (fun s -> s.sx_due <= r) !pending in
    pending := rest;
    let included =
      List.filter
        (fun s ->
          (not admission)
          ||
          match
            Admission.check node ~pins:s.sx_pins ~pinned_height:s.sx_pinned ()
          with
          | Ok () -> true
          | Error _ ->
              early := s.sx_tx.Block.tx_id :: !early;
              false)
        due
    in
    incr fresh;
    let clean = put_tx ~key:(1000 + !fresh) ~v:7 ~snapshot:h in
    let txs = List.map (fun s -> s.sx_tx) included @ [ clean ] in
    let res = process node (Assembler.make chain txs) in
    ws := Brdb_util.Hex.encode res.Node_core.br_write_set_hash :: !ws;
    List.iter
      (fun (id, st) ->
        Hashtbl.replace statuses id
          (match st with Node_core.S_committed -> `Committed | _ -> `Aborted))
      res.Node_core.br_statuses
  done;
  let digest =
    Node_core.state_digest node ~height:(Node_core.height node)
  in
  (List.rev !ws, state_of node, digest, statuses, List.rev !early)

let prop_admission_equivalence =
  QCheck.Test.make
    ~name:"admission on == admission off: state, ws hashes, digests"
    ~count:25 arbitrary_rounds
    (fun rounds ->
      let ws_on, st_on, dg_on, _, early = run_workload ~admission:true rounds in
      let ws_off, st_off, dg_off, statuses_off, _ =
        run_workload ~admission:false rounds
      in
      if ws_on <> ws_off then
        QCheck.Test.fail_report "per-block write-set hashes diverged";
      if st_on <> st_off then QCheck.Test.fail_report "committed state diverged";
      if dg_on <> dg_off then
        QCheck.Test.fail_report "chained state digests diverged";
      List.for_all
        (fun id ->
          match Hashtbl.find_opt statuses_off id with
          | Some `Aborted -> true
          | Some `Committed ->
              QCheck.Test.fail_reportf
                "early-aborted %s committed in the admission-off run" id
          | None ->
              QCheck.Test.fail_reportf
                "early-aborted %s missing from the admission-off run" id)
        early)

(* ------------------------------------- qcheck (b)/(c): proofs and tampers *)

(* One shared chain: 3 blocks of 3 inserts each after setup. *)
let proof_env =
  lazy
    (let node, chain = boot () in
     let ids = ref [] in
     for b = 0 to 2 do
       let txs =
         List.init 3 (fun i ->
             let tx = put_tx ~key:(100 + (b * 3) + i) ~v:b ~snapshot:1 in
             ids := tx.Block.tx_id :: !ids;
             tx)
       in
       ignore (process node (Assembler.make chain txs))
     done;
     (node, Array.of_list (List.rev !ids)))

let gen_tamper = QCheck.Gen.(triple (int_bound 8) (int_bound 5) (int_bound 63))

let arbitrary_tamper =
  QCheck.make
    ~print:(fun (t, s, o) -> Printf.sprintf "tx=%d site=%d ofs=%d" t s o)
    gen_tamper

let prop_receipt_tamper =
  QCheck.Test.make ~name:"receipt round-trips; any single-byte tamper rejected"
    ~count:60 arbitrary_tamper
    (fun (t, site, ofs) ->
      let node, ids = Lazy.force proof_env in
      let tx_id = ids.(t mod Array.length ids) in
      let rc =
        match Proof.build_receipt node ~tx_id with
        | Ok rc -> rc
        | Error e -> QCheck.Test.fail_reportf "build_receipt: %s" e
      in
      let anchor = Proof.tip_hash node in
      if not (Proof.verify_receipt ~tip_hash:anchor rc) then
        QCheck.Test.fail_report "pristine receipt failed verification";
      let rejected =
        match site with
        | 0 ->
            not
              (Proof.verify_receipt ~tip_hash:anchor
                 { rc with Proof.rc_payload = flip_byte rc.Proof.rc_payload ofs })
        | 1 -> (
            let b =
              Option.get
                (Brdb_ledger.Block_store.get (Node_core.block_store node) rc.Proof.rc_height)
            in
            let leaves = List.map Block.tx_payload b.Block.txs in
            let i = Option.get (List.find_index (String.equal rc.Proof.rc_payload) leaves) in
            match tampered_path leaves i ofs with
            | None -> Alcotest.fail "receipt blocks hold several transactions"
            | Some p ->
                not
                  (Proof.verify_receipt ~tip_hash:anchor
                     { rc with Proof.rc_proof = p }))
        | 2 ->
            not
              (Proof.verify_receipt ~tip_hash:anchor
                 {
                   rc with
                   Proof.rc_prev_hash = flip_byte rc.Proof.rc_prev_hash ofs;
                 })
        | 3 ->
            not
              (Proof.verify_receipt ~tip_hash:anchor
                 { rc with Proof.rc_metadata = flip_byte rc.Proof.rc_metadata ofs })
        | 4 -> (
            match rc.Proof.rc_chain with
            | [] ->
                (* tx in the tip block: no successor headers to tamper *)
                not
                  (Proof.verify_receipt ~tip_hash:anchor
                     {
                       rc with
                       Proof.rc_payload = flip_byte rc.Proof.rc_payload ofs;
                     })
            | chain ->
                let j = ofs mod List.length chain in
                let chain' =
                  List.mapi
                    (fun i (hd : Proof.header) ->
                      if i = j then
                        { hd with Proof.h_tx_root = flip_byte hd.Proof.h_tx_root ofs }
                      else hd)
                    chain
                in
                not
                  (Proof.verify_receipt ~tip_hash:anchor
                     { rc with Proof.rc_chain = chain' }))
        | _ -> not (Proof.verify_receipt ~tip_hash:(flip_byte anchor ofs) rc)
      in
      if not rejected then QCheck.Test.fail_report "tampered receipt verified";
      true)

(* Sites 5 and 6 claim a neighbouring height or tip: the proof must be
   bound to both, not only to its hashes. *)
let arbitrary_pv_tamper =
  QCheck.make
    ~print:(fun (t, s, o) -> Printf.sprintf "tx=%d site=%d ofs=%d" t s o)
    QCheck.Gen.(triple (int_bound 8) (int_bound 6) (int_bound 63))

let prop_provenance_tamper =
  QCheck.Test.make
    ~name:"provenance round-trips; any single-byte tamper rejected" ~count:80
    arbitrary_pv_tamper
    (fun (t, site, ofs) ->
      let node, _ = Lazy.force proof_env in
      let key = 100 + (t mod 9) in
      let tip = Node_core.height node in
      let creator, values =
        match Admission.pin_read node ~table:"kv" ~key:(Value.Int key) ~height:tip with
        | { Admission.p_creator = Some creator; _ }, Some values -> (creator, values)
        | _ -> QCheck.Test.fail_reportf "key %d not visible" key
      in
      let pv =
        match
          Proof.build_provenance node ~height:creator
            ~matches:(Proof.row_write_matches ~table:"kv" ~values)
        with
        | Ok pv -> pv
        | Error e -> QCheck.Test.fail_reportf "build_provenance: %s" e
      in
      let anchor = Proof.tip_digest node in
      if not (Proof.verify_provenance ~tip_digest:anchor pv) then
        QCheck.Test.fail_report "pristine provenance proof failed verification";
      let rejected =
        match site with
        | 0 ->
            not
              (Proof.verify_provenance ~tip_digest:anchor
                 { pv with Proof.pv_entry = flip_byte pv.Proof.pv_entry ofs })
        | 1 ->
            not
              (Proof.verify_provenance ~tip_digest:anchor
                 { pv with Proof.pv_prefix = flip_byte pv.Proof.pv_prefix ofs })
        | 2 -> (
            match pv.Proof.pv_roots with
            | [] ->
                (* a one-leaf history has an empty path *)
                not (Proof.verify_provenance ~tip_digest:(flip_byte anchor ofs) pv)
            | roots ->
                let j = ofs mod List.length roots in
                let roots' = List.mapi (fun i r -> if i = j then flip_byte r ofs else r) roots in
                not
                  (Proof.verify_provenance ~tip_digest:anchor
                     { pv with Proof.pv_roots = roots' }))
        | 3 -> (
            let entries =
              Option.get (Node_core.write_set_entries_at node ~height:pv.Proof.pv_height)
            in
            let i = Option.get (List.find_index (String.equal pv.Proof.pv_entry) entries) in
            match tampered_path entries i ofs with
            | None ->
                (* a single entry has an empty path, so tamper the entry
                   instead *)
                not
                  (Proof.verify_provenance ~tip_digest:anchor
                     { pv with Proof.pv_entry = flip_byte pv.Proof.pv_entry ofs })
            | Some p ->
                not
                  (Proof.verify_provenance ~tip_digest:anchor
                     { pv with Proof.pv_proof = p }))
        | 5 ->
            List.for_all
              (fun d ->
                not
                  (Proof.verify_provenance ~tip_digest:anchor
                     { pv with Proof.pv_height = pv.Proof.pv_height + d }))
              [ -1; 1 ]
        | 6 ->
            List.for_all
              (fun d ->
                not
                  (Proof.verify_provenance ~tip_digest:anchor
                     { pv with Proof.pv_tip = pv.Proof.pv_tip + d }))
              [ -1; 1 ]
        | _ -> not (Proof.verify_provenance ~tip_digest:(flip_byte anchor ofs) pv)
      in
      if not rejected then
        QCheck.Test.fail_report "tampered provenance proof verified";
      true)

(* --------------------------------------------- integration: session plane *)

let mk_db () =
  let config =
    {
      (B.default_config ()) with
      B.orgs = [ "org1"; "org2"; "org3" ];
      flow = Node_core.Execute_order;
      block_size = 1;
      block_timeout = 0.05;
      seed = 5;
    }
  in
  let db = B.create config in
  B.install_contract db ~name:"setup" setup_contract;
  B.install_contract db ~name:"bump" bump_contract;
  B.install_contract db ~name:"put" put_contract;
  let adm = B.admin db "org1" in
  ignore (B.submit db ~user:adm ~contract:"setup" ~args:[]);
  B.settle db;
  db

let test_session_lifecycle () =
  let db = mk_db () in
  let hub = Session.create_hub db in
  let alice = B.register_user db "client/alice" in
  let bob = B.register_user db "client/bob" in
  let s1 = Session.begin_ hub ~user:alice in
  let s2 = Session.begin_ hub ~user:bob in
  (match B.query db "SELECT DISTINCT pinned_height FROM sys.clients" with
  | Ok rs ->
      Alcotest.(check int) "sessions pin the same tip" 1
        (List.length rs.Brdb_engine.Exec.rows)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "round-robin peers" true
    (Session.peer_index s1 <> Session.peer_index s2);
  (* both sessions read the same hot row *)
  Alcotest.(check bool) "s1 pinned read" true
    (Session.read s1 ~table:"kv" ~key:(Value.Int 1)
    = Some [| Value.Int 1; Value.Int 100 |]);
  ignore (Session.read s2 ~table:"kv" ~key:(Value.Int 1));
  (* s1 wins the race *)
  let tx1 =
    match Session.submit s1 ~contract:"bump" ~args:[ Value.Int 1 ] with
    | Session.Submitted id -> id
    | Session.Early_abort v ->
        Alcotest.failf "s1 early-aborted: %s" (Admission.violation_to_string v)
  in
  B.settle db;
  Alcotest.(check bool) "s1's bump committed" true
    (B.status db tx1 = Some B.Committed);
  (* s2's pin is now superseded: Early Fail Tx (1), never submitted *)
  (match Session.submit s2 ~contract:"bump" ~args:[ Value.Int 1 ] with
  | Session.Early_abort (Admission.Superseded _) -> ()
  | Session.Early_abort v ->
      Alcotest.failf "wrong violation: %s" (Admission.violation_to_string v)
  | Session.Submitted _ -> Alcotest.fail "doomed tx reached the orderer");
  (* a submitted session is closed *)
  (try
     ignore (Session.read s1 ~table:"kv" ~key:(Value.Int 1));
     Alcotest.fail "read on a closed session must raise"
   with Invalid_argument _ -> ());
  (* receipt for the committed tx, verified against the tip block hash *)
  (match Session.receipt s2 ~tx_id:tx1 with
  | Ok (rc, _anchor) ->
      Alcotest.(check bool) "receipt describes itself" true
        (String.length (Proof.describe_receipt rc) > 0)
  | Error e -> Alcotest.failf "receipt: %s" e);
  (* verified read of the bumped row on a fresh session *)
  let carol = B.register_user db "client/carol" in
  let s3 = Session.begin_ hub ~user:carol in
  (match Session.read_verified s3 ~table:"kv" ~key:(Value.Int 1) with
  | Ok (vals, pv, _anchor) ->
      Alcotest.(check bool) "verified read sees the bump" true
        (vals = [| Value.Int 1; Value.Int 101 |]);
      Alcotest.(check bool) "proof is served at or above its block" true
        (pv.Proof.pv_tip >= pv.Proof.pv_height)
  | Error e -> Alcotest.failf "read_verified: %s" e);
  (* sys.clients reflects every session *)
  (match B.query db ~node:0 "SELECT session, status FROM sys.clients" with
  | Ok rs ->
      let rows =
        List.map
          (fun row ->
            match row with
            | [| Value.Text s; Value.Text st |] -> (s, st)
            | _ -> Alcotest.fail "bad sys.clients row")
          rs.Brdb_engine.Exec.rows
      in
      Alcotest.(check (list (pair string string)))
        "sys.clients rows"
        [
          ("sess-0001", "submitted");
          ("sess-0002", "early-aborted");
          ("sess-0003", "active");
        ]
        rows
  | Error e -> Alcotest.failf "sys.clients: %s" e);
  (* hub totals and registry metrics agree *)
  let opened, reads, submitted, early, receipts = Session.totals hub in
  Alcotest.(check (list int)) "hub totals" [ 3; 3; 1; 1; 2 ]
    [ opened; reads; submitted; early; receipts ];
  let reg = Obs.metrics (B.obs db) in
  Alcotest.(check int) "admission.early_aborts metric" 1
    (Oreg.counter reg ~node:"client" "admission.early_aborts");
  Alcotest.(check int) "client.sessions metric" 3
    (Oreg.counter reg ~node:"client" "client.sessions")

let test_admission_off_server_aborts () =
  (* The same doomed schedule with admission off: the transaction ships,
     consumes ordering bandwidth, and aborts server-side — establishing
     the baseline the admission plane saves. *)
  let db = mk_db () in
  let hub = Session.create_hub ~admission:false db in
  let alice = B.register_user db "client/alice" in
  let bob = B.register_user db "client/bob" in
  let s1 = Session.begin_ hub ~user:alice in
  let s2 = Session.begin_ hub ~user:bob in
  ignore (Session.read s1 ~table:"kv" ~key:(Value.Int 1));
  ignore (Session.read s2 ~table:"kv" ~key:(Value.Int 1));
  (match Session.submit s1 ~contract:"bump" ~args:[ Value.Int 1 ] with
  | Session.Submitted _ -> B.settle db
  | Session.Early_abort _ -> Alcotest.fail "admission is off");
  match Session.submit s2 ~contract:"bump" ~args:[ Value.Int 1 ] with
  | Session.Early_abort _ -> Alcotest.fail "admission is off"
  | Session.Submitted id -> (
      B.settle db;
      match B.status db id with
      | Some (B.Aborted _) -> ()
      | st ->
          Alcotest.failf "doomed tx should abort server-side, got %s"
            (match st with
            | Some B.Committed -> "committed"
            | Some (B.Rejected r) -> "rejected: " ^ r
            | Some (B.Aborted _) -> assert false
            | None -> "undecided"))

(* ------------------------------------ row predicate, cached proof paths *)

let test_row_write_matches () =
  let enc vs = String.concat "," (List.map Value.encode vs) in
  let m ~table vs = Proof.row_write_matches ~table ~values:(Array.of_list vs) in
  let insert = "g1|I|kv|" ^ enc [ Value.Int 1; Value.Int 5 ] in
  let update =
    "g2|U-|kv|" ^ enc [ Value.Int 1; Value.Int 5 ] ^ ";U+|kv|"
    ^ enc [ Value.Int 1; Value.Int 6 ]
  in
  let kv15 = m ~table:"kv" [ Value.Int 1; Value.Int 5 ] in
  Alcotest.(check bool) "insert leaf" true (kv15 insert);
  Alcotest.(check bool) "update leaf (new values)" true
    (m ~table:"kv" [ Value.Int 1; Value.Int 6 ] update);
  Alcotest.(check bool) "update's old values were not written" false (kv15 update);
  Alcotest.(check bool) "other table" false
    (kv15 ("g3|I|akv|" ^ enc [ Value.Int 1; Value.Int 5 ]));
  Alcotest.(check bool) "other table, same values" false
    (m ~table:"other" [ Value.Int 1; Value.Int 5 ] insert);
  let ten = "g4|I|kv|" ^ enc [ Value.Int 10 ] in
  Alcotest.(check bool) "1 is not a prefix match for 10" false
    (m ~table:"kv" [ Value.Int 1 ] ten);
  Alcotest.(check bool) "10 matches 10" true (m ~table:"kv" [ Value.Int 10 ] ten);
  Alcotest.(check bool) "10 does not match 1" false
    (m ~table:"kv" [ Value.Int 10 ] ("g5|I|kv|" ^ enc [ Value.Int 1 ]))

(* Three blocks of 17 inserts after setup: enough leaves per block for
   the payload and write-set trees to span two 16-leaf buckets. *)
let test_cached_proofs_match_references () =
  let node, chain = boot () in
  let ids = ref [ "setup" ] in
  for b = 0 to 2 do
    let txs =
      List.init 17 (fun i -> put_tx ~key:(1000 + (b * 17) + i) ~v:b ~snapshot:1)
    in
    ids := !ids @ List.map (fun (tx : Block.tx) -> tx.Block.tx_id) txs;
    ignore (process node (Assembler.make chain txs))
  done;
  let store = Node_core.block_store node in
  let anchor = Proof.tip_hash node in
  List.iter
    (fun tx_id ->
      match (Proof.build_receipt node ~tx_id, Receipt_ref.build store ~tx_id) with
      | Ok rc, Some (old, ref_path) ->
          Alcotest.(check int) "height" old.Proof.rc_height rc.Proof.rc_height;
          Alcotest.(check string) "payload" old.Proof.rc_payload rc.Proof.rc_payload;
          Alcotest.(check string) "path" ref_path (Merkle.proof_to_string rc.Proof.rc_proof);
          Alcotest.(check string) "uncached path" ref_path
            (Merkle.proof_to_string old.Proof.rc_proof);
          Alcotest.(check string) "metadata" old.Proof.rc_metadata rc.Proof.rc_metadata;
          Alcotest.(check string) "prev hash" old.Proof.rc_prev_hash rc.Proof.rc_prev_hash;
          Alcotest.(check bool) "successor headers" true (old.Proof.rc_chain = rc.Proof.rc_chain);
          Alcotest.(check bool) "both verify" true
            (Proof.verify_receipt ~tip_hash:anchor rc
            && Proof.verify_receipt ~tip_hash:anchor old)
      | Error e, _ -> Alcotest.failf "build_receipt %s: %s" tx_id e
      | Ok _, None -> Alcotest.failf "reference found no block for %s" tx_id)
    !ids;
  let tip_digest = Proof.tip_digest node in
  let tip = Node_core.height node in
  let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2) in
  let digests =
    List.init tip (fun h -> Option.get (Node_core.state_digest node ~height:(h + 1)))
  in
  let sibling = function Merkle_ref.Left s | Merkle_ref.Right s -> s in
  for height = 1 to tip do
    let entries =
      Option.value ~default:[] (Node_core.write_set_entries_at node ~height)
    in
    if height > 1 then
      Alcotest.(check int) (Printf.sprintf "block %d: 17 entries" height) 17
        (List.length entries);
    List.iteri
      (fun i entry ->
        match Proof.build_provenance node ~height ~matches:(String.equal entry) with
        | Ok pv ->
            Alcotest.(check string)
              (Printf.sprintf "provenance path, block %d entry %d" height i)
              (Merkle_ref.proof entries i)
              (Merkle.proof_to_string pv.Proof.pv_proof);
            Alcotest.(check (list string))
              (Printf.sprintf "history path, block %d" height)
              (List.map sibling (Merkle_ref.prove digests (height - 1)))
              pv.Proof.pv_roots;
            Alcotest.(check bool) "provenance verifies" true
              (Proof.verify_provenance ~tip_digest pv);
            Alcotest.(check bool)
              (Printf.sprintf "block %d entry %d: at most %d + %d steps" height i
                 (ceil_log2 (List.length entries)) (ceil_log2 tip))
              true
              (String.length (Merkle.proof_to_string pv.Proof.pv_proof) / 65
               <= ceil_log2 (List.length entries)
              && List.length pv.Proof.pv_roots <= ceil_log2 tip)
        | Error e -> Alcotest.failf "build_provenance %d: %s" height e)
      entries
  done

let suites =
  [
    ( "client",
      [
        Alcotest.test_case "cutter batch auth + replay counters" `Quick
          test_cutter_batch_auth;
        Alcotest.test_case "cutter drops a non-canonical signature" `Quick
          test_cutter_noncanonical_signature;
        Alcotest.test_case "admission checks (Node_core level)" `Quick
          test_admission_checks;
        Alcotest.test_case "session lifecycle over the network" `Quick
          test_session_lifecycle;
        Alcotest.test_case "admission off: doomed tx aborts server-side" `Quick
          test_admission_off_server_aborts;
        Alcotest.test_case "row predicate: insert/update leaves, exact values" `Quick
          test_row_write_matches;
        Alcotest.test_case "cached receipts and proofs equal the rebuilt ones" `Quick
          test_cached_proofs_match_references;
      ] );
    ( "client.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_admission_equivalence;
          prop_receipt_tamper;
          prop_provenance_tamper;
        ] );
  ]
