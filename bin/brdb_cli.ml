(** brdb — drive a blockchain relational database network from the shell.

    Subcommands:
    - [sandbox]: start a 3-org network and read SQL from stdin; writes are
      wrapped in signed blockchain transactions, SELECT/PROVENANCE queries
      run read-only against one replica.
    - [demo]: a scripted tour (contracts, conflicts, provenance, ledger).
    - [trace]: run a scripted workload with deterministic tracing enabled and
      export the full submit → order → execute → validate → commit lifecycle
      as a Chrome trace (chrome://tracing, ui.perfetto.dev) or JSONL.
    - [snapshot]: capture → chunk → verify → install round-trip of a §11
      state snapshot on a demo chain (the check.sh smoke step).
    - [info]: network/component summary. *)

module B = Brdb_core.Blockchain_db
module Value = Brdb_storage.Value
module Node_core = Brdb_node.Node_core
module Api = Brdb_contracts.Api

let print_result (rs : Brdb_engine.Exec.result_set) =
  if rs.Brdb_engine.Exec.columns <> [] then
    Printf.printf "%s\n" (String.concat " | " rs.Brdb_engine.Exec.columns);
  List.iter
    (fun row ->
      Printf.printf "%s\n"
        (String.concat " | " (Array.to_list (Array.map Value.to_string row))))
    rs.Brdb_engine.Exec.rows;
  if rs.Brdb_engine.Exec.affected > 0 then
    Printf.printf "(%d rows affected)\n" rs.Brdb_engine.Exec.affected

let make_net ?(tracing = false) ~flow ~block_size ~block_timeout () =
  let config =
    {
      (B.default_config ()) with
      B.flow;
      block_size;
      block_timeout;
      tracing;
    }
  in
  let net = B.create config in
  (* A generic passthrough contract: the CLI user's statement becomes the
     contract body of a one-off invocation. *)
  B.install_contract net ~name:"__sql__"
    (Brdb_contracts.Registry.Native
       (fun ctx ->
         let sql = Api.arg_text ctx 1 in
         ignore (Api.query ctx sql)));
  net

let is_query sql =
  let up = String.uppercase_ascii (String.trim sql) in
  let starts p =
    String.length up >= String.length p && String.sub up 0 (String.length p) = p
  in
  starts "SELECT" || starts "PROVENANCE"

(* --- sandbox ----------------------------------------------------------------- *)

(* One line per registered sys.* view: its name and column names, as
   node 0 of [net] serves them. *)
let print_views ~indent net =
  let catalog = Node_core.catalog (Brdb_node.Peer.core (B.peer net 0)) in
  List.iter
    (fun name ->
      match Brdb_storage.Catalog.virtual_schema catalog name with
      | None -> ()
      | Some schema ->
          Printf.printf "%s%-18s %s\n" indent name
            (String.concat ", "
               (Array.to_list
                  (Array.map
                     (fun c -> c.Brdb_storage.Schema.name)
                     schema.Brdb_storage.Schema.columns))))
    (Brdb_storage.Catalog.virtual_names catalog)

let sandbox flow_str block_size block_timeout =
  let flow =
    match flow_str with
    | "oe" -> Node_core.Order_execute
    | "eo" -> Node_core.Execute_order
    | "serial" -> Node_core.Serial_baseline
    | other -> failwith ("unknown flow: " ^ other)
  in
  let net = make_net ~flow ~block_size ~block_timeout () in
  (* The sandbox signs as org1's admin so DDL statements are allowed. *)
  let user = B.admin net "org1" in
  Printf.printf
    "brdb sandbox — 3 orgs, %s flow, block size %d, timeout %.2fs\n\
     Statements are submitted as signed blockchain transactions; SELECT and\n\
     PROVENANCE SELECT run read-only. \\sys lists the introspection views;\n\
     EXPLAIN ANALYZE <select> runs it sandboxed with actual row counts.\n\
     Ctrl-D to exit.\n%!"
    flow_str block_size block_timeout;
  let starts_upper line p =
    String.length line >= String.length p
    && String.uppercase_ascii (String.sub line 0 (String.length p)) = p
  in
  (try
     while true do
       print_string "brdb> ";
       let line = input_line stdin in
       let line = String.trim line in
       if line <> "" then
         if line = "\\sys" then print_views ~indent:"" net
         else if starts_upper line "EXPLAIN ANALYZE " then (
           let n = String.length "EXPLAIN ANALYZE " in
           let sql = String.sub line n (String.length line - n) in
           match B.explain_analyze net sql with
           | Ok (plan, _) -> print_string plan
           | Error e -> Printf.printf "error: %s\n" e)
         else if starts_upper line "EXPLAIN " then (
           let sql = String.sub line 8 (String.length line - 8) in
           match
             Brdb_engine.Exec.explain_sql
               (Node_core.catalog (Brdb_node.Peer.core (B.peer net 0)))
               sql
           with
           | Ok plan -> print_string plan
           | Error e -> Printf.printf "error: %s\n" e)
         else if is_query line then (
           match B.query net line with
           | Ok rs -> print_result rs
           | Error e -> Printf.printf "error: %s\n" e)
         else begin
           let id = B.submit net ~user ~contract:"__sql__" ~args:[ Value.Text line ] in
           B.settle net;
           match B.status net id with
           | Some B.Committed ->
               Printf.printf "committed (block height %d)\n"
                 (Node_core.height (Brdb_node.Peer.core (B.peer net 0)))
           | Some (B.Aborted r) -> Printf.printf "aborted: %s\n" r
           | Some (B.Rejected r) -> Printf.printf "rejected: %s\n" r
           | None -> print_endline "undecided?"
         end
     done
   with End_of_file -> print_newline ());
  `Ok ()

(* --- demo --------------------------------------------------------------------- *)

let demo () =
  let net = make_net ~flow:Node_core.Order_execute ~block_size:10 ~block_timeout:0.2 () in
  let user = B.admin net "org1" in
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  let exec sql =
    let id = B.submit net ~user ~contract:"__sql__" ~args:[ Value.Text sql ] in
    B.settle net;
    let status =
      match B.status net id with
      | Some B.Committed -> "committed"
      | Some (B.Aborted r) -> "aborted: " ^ r
      | Some (B.Rejected r) -> "rejected: " ^ r
      | None -> "undecided"
    in
    say "  %-64s -> %s" sql status
  in
  say "# DDL and DML go through consensus as signed transactions:";
  exec "CREATE TABLE t (id INT PRIMARY KEY, v INT)";
  exec "INSERT INTO t VALUES (1, 10), (2, 20)";
  exec "UPDATE t SET v = v + 1 WHERE id = 1";
  exec "INSERT INTO t VALUES (1, 99)";
  say "# Reads are local and identical on every replica:";
  (match B.query net ~node:2 "SELECT * FROM t ORDER BY id" with
  | Ok rs -> print_result rs
  | Error e -> say "error: %s" e);
  say "# Provenance (all versions ever committed, with block numbers):";
  (match
     B.query net "PROVENANCE SELECT id, v, creator, deleter FROM t ORDER BY creator, id"
   with
  | Ok rs -> print_result rs
  | Error e -> say "error: %s" e);
  say "# The transaction ledger itself is a table:";
  (match
     B.query net "SELECT txid, txuser, status FROM pgledger WHERE status IS NOT NULL ORDER BY txid"
   with
  | Ok rs -> print_result rs
  | Error e -> say "error: %s" e);
  `Ok ()

(* --- trace -------------------------------------------------------------------- *)

let trace flow_str out format tracing =
  let flow =
    match flow_str with
    | "oe" -> Node_core.Order_execute
    | "eo" -> Node_core.Execute_order
    | "serial" -> Node_core.Serial_baseline
    | other -> failwith ("unknown flow: " ^ other)
  in
  let net = make_net ~tracing ~flow ~block_size:4 ~block_timeout:0.2 () in
  (* Refuse up front rather than writing an empty trace file: a config
     with tracing off records no events, so there is nothing to export. *)
  if not (Brdb_obs.Obs.tracing (B.obs net)) then
    `Error
      ( false,
        "tracing is disabled in this deployment's configuration; nothing \
         would be recorded and no trace file was written. Re-run with \
         --tracing true (the default) to export a trace." )
  else begin
  let user = B.admin net "org1" in
  let exec sql = B.submit net ~user ~contract:"__sql__" ~args:[ Value.Text sql ] in
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  say "brdb trace — %s flow, scripted workload, tracing on" flow_str;
  ignore (exec "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)");
  B.settle net;
  ignore (exec "INSERT INTO acct VALUES (1, 100), (2, 200)");
  B.settle net;
  (* Two conflicting updates in flight at once: exactly one commits, the
     other aborts (ww first-in-block-wins under OE, rw/block-aware SSI
     under EO) — exercising the abort taxonomy. The duplicate-key insert
     exercises the uniqueness class. *)
  let a = exec "UPDATE acct SET bal = bal - 10 WHERE id = 1" in
  let b = exec "UPDATE acct SET bal = bal + 10 WHERE id = 1" in
  let c = exec "INSERT INTO acct VALUES (2, 999)" in
  B.settle net;
  List.iter
    (fun (label, id) ->
      say "  %-38s -> %s" label
        (match B.status net id with
        | Some B.Committed -> "committed"
        | Some (B.Aborted r) -> "aborted: " ^ r
        | Some (B.Rejected r) -> "rejected: " ^ r
        | None -> "undecided"))
    [ ("UPDATE bal - 10", a); ("UPDATE bal + 10", b); ("INSERT duplicate key", c) ];
  let events = B.trace_events net in
  let oc = open_out out in
  (match format with
  | "chrome" -> output_string oc (Brdb_obs.Export.chrome_string events)
  | "jsonl" -> output_string oc (Brdb_obs.Export.jsonl_string events)
  | other -> failwith ("unknown format: " ^ other));
  close_out oc;
  say "";
  say "wrote %d trace events to %s (%s)" (List.length events) out
    (if format = "chrome" then "open in chrome://tracing or ui.perfetto.dev"
     else "one JSON object per line");
  say "";
  say "metrics via SELECT ... FROM sys.metrics (txn/block counters, abort taxonomy):";
  (match
     B.query net
       "SELECT name, node, n FROM sys.metrics WHERE name = 'txn.committed' \
        OR name = 'txn.aborted' OR name = 'block.processed' \
        OR name = 'client.submitted' OR name = 'decided.committed' \
        OR name = 'decided.aborted' ORDER BY name, node"
   with
  | Ok rs -> print_result rs
  | Error e -> say "error: %s" e);
  say "";
  say "abort taxonomy via SELECT * FROM sys.aborts (Table 2 classes):";
  (match B.query net "SELECT * FROM sys.aborts WHERE n > 0" with
  | Ok rs -> print_result rs
  | Error e -> say "error: %s" e);
  say "";
  say "span attribution via SELECT * FROM sys.spans (node 0, flame order):";
  (match
     B.query net
       "SELECT path, events, total_ms, self_ms FROM sys.spans ORDER BY path"
   with
  | Ok rs -> print_result rs
  | Error e -> say "error: %s" e);
  `Ok ()
  end

(* --- sys ----------------------------------------------------------------------- *)

(* Scripted smoke run for the introspection layer (used by check.sh): a
   short workload, then each given statement — or a built-in sweep of every
   sys.* view plus EXPLAIN ANALYZE — against one replica. Exits nonzero if
   any statement fails, so the gate catches a broken provider. *)
let sys_smoke sql_args =
  let net = make_net ~flow:Node_core.Order_execute ~block_size:10 ~block_timeout:0.2 () in
  let user = B.admin net "org1" in
  let exec sql =
    ignore (B.submit net ~user ~contract:"__sql__" ~args:[ Value.Text sql ])
  in
  exec "CREATE TABLE smoke_kv (id INT PRIMARY KEY, v INT)";
  B.settle net;
  exec "INSERT INTO smoke_kv VALUES (1, 10), (2, 20), (3, 30)";
  exec "INSERT INTO smoke_kv VALUES (1, 99)";
  B.settle net;
  let stmts =
    match sql_args with
    | [] ->
        [
          "SELECT height, txs, committime, state_digest FROM sys.blocks";
          "SELECT gid, block, decision, abort_class FROM sys.transactions";
          "SELECT * FROM sys.aborts WHERE n > 0";
          "SELECT * FROM sys.tables";
          "SELECT * FROM sys.indexes";
          "SELECT node, height, inbox, blocks_rejected FROM sys.nodes";
          "SELECT name, node, n FROM sys.metrics WHERE name = 'block.processed'";
          "SELECT name, node, n FROM sys.metrics WHERE node = 'ordering'";
          "SELECT detector, severity, firing, fires, clears FROM sys.detectors";
          "SELECT seq, ts, transition, detector, subject FROM sys.alerts";
          "EXPLAIN ANALYZE SELECT * FROM smoke_kv WHERE id > 1";
        ]
    | args -> args
  in
  let failed = ref false in
  List.iter
    (fun sql ->
      Printf.printf "-- %s\n" sql;
      let n = String.length "EXPLAIN ANALYZE " in
      if
        String.length sql > n
        && String.uppercase_ascii (String.sub sql 0 n) = "EXPLAIN ANALYZE "
      then (
        match B.explain_analyze net (String.sub sql n (String.length sql - n)) with
        | Ok (plan, _) -> print_string plan
        | Error e ->
            failed := true;
            Printf.printf "error: %s\n" e)
      else
        match B.query net sql with
        | Ok rs -> print_result rs
        | Error e ->
            failed := true;
            Printf.printf "error: %s\n" e)
    stmts;
  if !failed then `Error (false, "a sys.* statement failed") else `Ok ()

(* --- snapshot ------------------------------------------------------------------ *)

(* Round-trip a §11 deterministic state snapshot on a demo chain:
   capture from one replica, chunk + manifest, verify every hop (plus a
   tamper-detection spot check), assemble, decode, install onto another
   replica, and confirm heights, state digests and query results agree.
   Exits nonzero on any mismatch — the check.sh smoke step. *)
let snapshot_cmd_impl mode chunk_size =
  let module Snapshot = Brdb_snapshot.Snapshot in
  let module Chunk = Brdb_snapshot.Chunk in
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  let fail fmt = Printf.ksprintf (fun m -> raise (Failure m)) fmt in
  try
    let compaction =
      match mode with
      | "archive" -> Snapshot.Archive
      | "pruned" -> Snapshot.Pruned
      | other -> fail "unknown compaction mode: %s (archive or pruned)" other
    in
    let net = make_net ~flow:Node_core.Order_execute ~block_size:10 ~block_timeout:0.2 () in
    let user = B.admin net "org1" in
    let exec sql =
      ignore (B.submit net ~user ~contract:"__sql__" ~args:[ Value.Text sql ])
    in
    exec "CREATE TABLE snap_kv (id INT PRIMARY KEY, v INT)";
    B.settle net;
    exec "INSERT INTO snap_kv VALUES (1, 10), (2, 20), (3, 30)";
    B.settle net;
    exec "UPDATE snap_kv SET v = 99 WHERE id = 2";
    exec "DELETE FROM snap_kv WHERE id = 3";
    B.settle net;
    let src = Brdb_node.Peer.core (B.peer net 0) in
    let dst = Brdb_node.Peer.core (B.peer net 2) in
    let h = Node_core.height src in
    let snap = Node_core.export_snapshot src ~compaction in
    let payload = Snapshot.encode snap in
    say "captured %s snapshot at height %d: %d bytes, %d resident versions"
      (Snapshot.compaction_to_string compaction)
      h (String.length payload)
      (Snapshot.resident_versions snap);
    let chunks = Chunk.split ~chunk_size payload in
    let manifest =
      Chunk.manifest_of_chunks ~height:snap.Snapshot.height
        ~state_digest:snap.Snapshot.state_digest ~chunk_size
        ~total_bytes:(String.length payload) chunks
    in
    if not (Chunk.verify_manifest manifest) then fail "manifest verification failed";
    Array.iter
      (fun c ->
        if not (Chunk.verify_chunk manifest c) then
          fail "chunk %d failed verification" c.Chunk.c_index)
      chunks;
    say "chunked into %d x %d B; manifest root %s... verified (all chunks)"
      (Array.length chunks) chunk_size
      (String.sub manifest.Chunk.m_root 0 12);
    (* tamper-detection spot check on the first chunk *)
    (let c0 = chunks.(0) in
     let bytes = Bytes.of_string c0.Chunk.c_payload in
     Bytes.set bytes 0 (Char.chr (Char.code (Bytes.get bytes 0) lxor 1));
     let mangled = { c0 with Chunk.c_payload = Bytes.to_string bytes } in
     if Chunk.verify_chunk manifest mangled then
       fail "tampered chunk was NOT rejected";
     say "tampered chunk rejected by content-hash verification");
    let parts = Array.map (fun c -> Some c.Chunk.c_payload) chunks in
    let assembled =
      match Chunk.assemble manifest parts with
      | Ok s -> s
      | Error e -> fail "assemble failed: %s" e
    in
    if not (String.equal assembled payload) then fail "assembled payload differs";
    let decoded =
      match Snapshot.decode assembled with
      | Ok s -> s
      | Error e -> fail "decode failed: %s" e
    in
    (match Node_core.install_snapshot dst decoded with
    | Ok () -> say "installed onto %s" (Brdb_node.Peer.name (B.peer net 2))
    | Error e -> fail "install failed: %s" e);
    if Node_core.height dst <> h then
      fail "height mismatch after install: %d vs %d" (Node_core.height dst) h;
    let digest core =
      match Node_core.state_digest core ~height:h with
      | Some d -> d
      | None -> fail "no state digest at %d" h
    in
    if not (String.equal (digest src) (digest dst)) then
      fail "state digest mismatch after install";
    say "state digest at height %d matches the source: %s..." h
      (String.sub (digest src) 0 12);
    (match B.query net ~node:2 "SELECT id, v FROM snap_kv ORDER BY id" with
    | Ok rs -> print_result rs
    | Error e -> fail "post-install query failed: %s" e);
    say "snapshot round-trip OK (%s mode)" (Snapshot.compaction_to_string compaction);
    `Ok ()
  with Failure m -> `Error (false, m)

(* Offline plan inspection: DDL statements build up a scratch catalog
   (tables + indexes, never committed anywhere), every other statement is
   rendered through [Exec.explain] — the workflow for vetting a contract's
   queries against the EO index-only restriction before deploying it. *)
let explain_cmd sql_args =
  let catalog = Brdb_storage.Catalog.create () in
  let manager = Brdb_txn.Manager.create catalog in
  let txn =
    match
      Brdb_txn.Manager.begin_txn manager ~global_id:"__explain__" ~client:"cli"
        ~snapshot_height:0 ()
    with
    | Ok txn -> txn
    | Error `Duplicate_txid -> assert false
  in
  let input =
    match sql_args with
    | [] ->
        let buf = Buffer.create 256 in
        (try
           while true do
             Buffer.add_channel buf stdin 1
           done
         with End_of_file -> ());
        Buffer.contents buf
    | args -> String.concat " ; " args
  in
  List.iter
    (fun sql ->
      let sql = String.trim sql in
      if sql <> "" then
        match Brdb_sql.Parser.parse sql with
        | Error e -> Printf.printf "-- %s\nerror: %s\n" sql e
        | Ok
            ((Brdb_sql.Ast.Create_table _ | Brdb_sql.Ast.Create_index _
             | Brdb_sql.Ast.Drop_table _) as stmt) -> (
            match Brdb_engine.Exec.execute catalog txn stmt with
            | Ok _ -> Printf.printf "-- %s\n  (applied to scratch catalog)\n" sql
            | Error e ->
                Printf.printf "-- %s\nerror: %s\n" sql
                  (Brdb_engine.Exec.error_to_string e))
        | Ok stmt -> (
            Printf.printf "-- %s\n" sql;
            match Brdb_engine.Exec.explain catalog stmt with
            | Ok plan -> print_string plan
            | Error e -> Printf.printf "error: %s\n" e))
    (String.split_on_char ';' input);
  `Ok ()

(* --- info --------------------------------------------------------------------- *)

let show_info () =
  print_endline
    "brdb — blockchain relational database (VLDB'19 reproduction)\n\n\
     components:\n\
    \  storage    MVCC heap: xmin/xmax + creator/deleter block per version\n\
    \  sql        lexer/parser/executor for the SQL subset\n\
    \  ssi        serializable snapshot isolation + block-aware variant (Table 2)\n\
    \  txn        transaction manager, ww first-in-block-wins, stale/phantom checks\n\
    \  contracts  deterministic procedural contracts + governance system contracts\n\
    \  consensus  solo / kafka / raft / pbft (with view changes) ordering services\n\
    \             over a simulated network; peers authenticate every delivered block\n\
    \  node       OE and EO transaction flows, recovery (§3.6), checkpointing\n\
    \  core       network façade: orgs, clients, signed submissions, queries\n\n\
     flows:\n\
    \  oe      order-then-execute  (§3.3)\n\
    \  eo      execute-order-in-parallel (§3.4, block-height SSI)\n\
    \  serial  Ethereum-style baseline (§5.1)\n\n\
     introspection (SELECT-able on every node; see DESIGN.md section 10):";
  (* Render the registered views from a live node so the listing can never
     drift from the code. *)
  print_views ~indent:"  "
    (make_net ~flow:Node_core.Order_execute ~block_size:10 ~block_timeout:0.2 ());
  print_endline
    "\nsee: dune exec bench/main.exe -- --list   for the evaluation experiments";
  `Ok ()

(* --- chaos --------------------------------------------------------------------- *)

(* Orderer-fault chaos smoke (the check.sh step): the ordering plane must
   survive losing whoever is in charge — a BFT primary crash forces a view
   change, a Raft leader crash forces a re-election — and in-flight block
   tampering must be rejected block-for-block, all while the cluster
   converges to identical chains. Exits nonzero on any violation. *)
let chaos_smoke () =
  let module Chaos = Brdb_core.Chaos in
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  let failed = ref false in
  let check what cond =
    if not cond then begin
      failed := true;
      say "FAIL: %s" what
    end
  in
  let report label (r : Chaos.report) =
    say "%-18s %s" label (Format.asprintf "%a" Chaos.pp_report r)
  in
  (* the catalogue's orderer-fault rows, over the default lossy links *)
  let lossy label =
    Chaos.run
      {
        (Chaos.scenario label) with
        Chaos.drop = Chaos.default_spec.Chaos.drop;
        duplicate = Chaos.default_spec.Chaos.duplicate;
      }
  in
  let bft = lossy "orderer_bft" in
  report "bft primary crash" bft;
  check "bft chaos converged" bft.Chaos.converged;
  check "bft view change entered" (bft.Chaos.view_changes >= 1);
  let raft = lossy "orderer_raft" in
  report "raft leader crash" raft;
  check "raft chaos converged" raft.Chaos.converged;
  check "raft re-election observed" (raft.Chaos.elections >= 1);
  let tamper = lossy "tamper" in
  report "block tampering" tamper;
  check "tamper chaos converged" tamper.Chaos.converged;
  check "tampered blocks rejected" (tamper.Chaos.blocks_rejected > 0);
  check "no decision mismatches" (tamper.Chaos.decision_mismatches = []);
  if !failed then `Error (false, "an orderer-fault invariant failed") else `Ok ()

(* --- alerts -------------------------------------------------------------------- *)

(* Health-plane smoke (the check.sh step): the ISSUE 9 fault→alert coverage
   matrix, end to end. Each Chaos.scenarios row injects its fault class and
   must raise one of its expected alerts (Chaos's coverage map) within the
   run; a fault-free run must stay completely silent. Prints every
   run's coverage rows and full alert stream; exits nonzero on any gap. *)
let alerts_smoke () =
  let module Chaos = Brdb_core.Chaos in
  let module Health = Brdb_obs.Health in
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  let failed = ref false in
  let check what cond =
    if not cond then begin
      failed := true;
      say "FAIL: %s" what
    end
  in
  let scenario label spec =
    let r = Chaos.run spec in
    say "== %s" label;
    check (label ^ " converged") r.Chaos.converged;
    List.iter
      (fun (d : Chaos.detection) ->
        match Chaos.detection_latency d with
        | Some (secs, blocks) ->
            let alert =
              match d.Chaos.det_alert with
              | Some a -> Health.detector_id a.Health.al_detector
              | None -> assert false
            in
            say "   %-19s -> %-20s in %.3fs / %d blocks"
              (Chaos.fault_id d.Chaos.det_fault)
              alert secs blocks
        | None ->
            check
              (Printf.sprintf "%s: %s detected" label
                 (Chaos.fault_id d.Chaos.det_fault))
              false)
      r.Chaos.fault_coverage;
    List.iter (fun a -> say "   %s" (Health.render_alert a)) r.Chaos.alerts;
    r
  in
  let clean = scenario "fault-free baseline" (Chaos.clean_spec 1) in
  check "fault-free run stays silent" (clean.Chaos.alerts = []);
  List.iter
    (fun (label, _, spec) -> ignore (scenario label spec))
    Chaos.scenarios;
  if !failed then `Error (false, "a fault class went undetected") else `Ok ()

(* --- verify -------------------------------------------------------------------- *)

(* Verifiable-read smoke (the check.sh step): a client session obtains an
   inclusion receipt and a provenance proof through the client plane
   (DESIGN.md section 16) and verifies both against hash anchors alone —
   no trust in the serving peer. Every single-byte tampering of the proof
   material must be rejected, and a session whose pinned read was
   superseded must fail at the client, before ordering ("Early Fail Tx").
   Last, a cross-node query (§3.5) must flag exactly the replica whose
   local rows were tampered with. Exits nonzero on any violation. *)
let verify_smoke () =
  let module Session = Brdb_client.Session in
  let module Proof = Brdb_client.Proof in
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  let failed = ref false in
  let check what cond =
    if cond then say "  ok: %s" what
    else begin
      failed := true;
      say "  FAIL: %s" what
    end
  in
  let flip s i =
    let b = Bytes.of_string s in
    let i = i mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  (* Pinned submissions ([submit_at]) execute at the session's snapshot,
     which only the EO flow supports (§3.4). *)
  let net = make_net ~flow:Node_core.Execute_order ~block_size:10 ~block_timeout:0.2 () in
  let user = B.admin net "org1" in
  let exec sql =
    ignore (B.submit net ~user ~contract:"__sql__" ~args:[ Value.Text sql ])
  in
  exec "CREATE TABLE audit_kv (id INT PRIMARY KEY, v INT)";
  B.settle net;
  exec "INSERT INTO audit_kv VALUES (1, 10), (2, 20)";
  B.settle net;
  let hub = Session.create_hub net in
  say "# inclusion receipt: signed payload + Merkle path + successor headers";
  let s1 = Session.begin_ hub ~user in
  ignore (Session.read s1 ~table:"audit_kv" ~key:(Value.Int 1));
  let tx_id =
    match
      Session.submit s1 ~contract:"__sql__"
        ~args:[ Value.Text "UPDATE audit_kv SET v = v + 1 WHERE id = 1" ]
    with
    | Session.Submitted id -> id
    | Session.Early_abort v ->
        failwith
          ("unexpected early abort: "
          ^ Brdb_client.Admission.violation_to_string v)
  in
  B.settle net;
  check "session transaction committed" (B.status net tx_id = Some B.Committed);
  (* Advance the chain past the receipt's block so the proof carries
     successor headers and the verifier actually walks the hash chain. *)
  exec "INSERT INTO audit_kv VALUES (3, 30)";
  B.settle net;
  (match Session.receipt s1 ~tx_id with
  | Error e -> check ("receipt built (" ^ e ^ ")") false
  | Ok (r, anchor) ->
      say "  %s" (Proof.describe_receipt r);
      check "receipt verifies against the tip block hash alone"
        (Proof.verify_receipt ~tip_hash:anchor r);
      check "tampered payload rejected"
        (not
           (Proof.verify_receipt ~tip_hash:anchor
              { r with Proof.rc_payload = flip r.Proof.rc_payload 0 }));
      check "tampered prev-hash rejected"
        (not
           (Proof.verify_receipt ~tip_hash:anchor
              { r with Proof.rc_prev_hash = flip r.Proof.rc_prev_hash 3 }));
      check "tampered successor header rejected"
        (match r.Proof.rc_chain with
        | [] -> not (Proof.verify_receipt ~tip_hash:(flip anchor 1) r)
        | h :: tl ->
            not
              (Proof.verify_receipt ~tip_hash:anchor
                 {
                   r with
                   Proof.rc_chain =
                     { h with Proof.h_tx_root = flip h.Proof.h_tx_root 2 } :: tl;
                 }));
      check "wrong anchor rejected"
        (not (Proof.verify_receipt ~tip_hash:(flip anchor 0) r)));
  say "# provenance proof: write entry + Merkle path + history path";
  let s2 = Session.begin_ hub ~user in
  (match Session.read_verified s2 ~table:"audit_kv" ~key:(Value.Int 1) with
  | Error e -> check ("verified read served (" ^ e ^ ")") false
  | Ok (row, p, anchor) ->
      say "  row: %s"
        (String.concat ", " (Array.to_list (Array.map Value.to_string row)));
      say "  %s" (Proof.describe_provenance p);
      check "provenance verifies against the history tree head alone"
        (Proof.verify_provenance ~tip_digest:anchor p);
      check "tampered write entry rejected"
        (not
           (Proof.verify_provenance ~tip_digest:anchor
              { p with Proof.pv_entry = flip p.Proof.pv_entry 1 }));
      check "tampered digest prefix rejected"
        (not
           (Proof.verify_provenance ~tip_digest:anchor
              { p with Proof.pv_prefix = flip p.Proof.pv_prefix 4 }));
      check "tampered history path rejected"
        (match p.Proof.pv_roots with
        | [] -> not (Proof.verify_provenance ~tip_digest:(flip anchor 2) p)
        | r0 :: rest ->
            not
              (Proof.verify_provenance ~tip_digest:anchor
                 { p with Proof.pv_roots = flip r0 5 :: rest }));
      let claims field f =
        check
          (Printf.sprintf "claimed %s +/- 1 rejected" field)
          (List.for_all
             (fun d -> not (Proof.verify_provenance ~tip_digest:anchor (f d)))
             [ -1; 1 ])
      in
      claims "height" (fun d -> { p with Proof.pv_height = p.Proof.pv_height + d });
      claims "tip" (fun d -> { p with Proof.pv_tip = p.Proof.pv_tip + d });
      check "wrong anchor rejected"
        (not (Proof.verify_provenance ~tip_digest:(flip anchor 0) p)));
  say "# Early Fail Tx (1): a superseded pin aborts at the client";
  let s3 = Session.begin_ hub ~user in
  ignore (Session.read s3 ~table:"audit_kv" ~key:(Value.Int 2));
  exec "UPDATE audit_kv SET v = v + 1 WHERE id = 2";
  B.settle net;
  (match
     Session.submit s3 ~contract:"__sql__"
       ~args:[ Value.Text "UPDATE audit_kv SET v = 0 WHERE id = 2" ]
   with
  | Session.Early_abort v ->
      say "  early abort: %s" (Brdb_client.Admission.violation_to_string v);
      check "doomed transaction failed at the client, before ordering" true
  | Session.Submitted _ ->
      check "doomed transaction failed at the client, before ordering" false);
  (match
     B.query net "SELECT session, user, status FROM sys.clients ORDER BY session"
   with
  | Ok rs ->
      say "# sys.clients:";
      print_result rs
  | Error e -> check ("sys.clients queried (" ^ e ^ ")") false);
  say "# verified query (section 3.5): every node answers, the majority wins";
  let cross_check () = B.verified_query net "SELECT id, v FROM audit_kv ORDER BY id" in
  (match cross_check () with
  | Ok (_, divergent) -> check "all nodes agree" (divergent = [])
  | Error e -> check ("verified query answered (" ^ e ^ ")") false);
  (* one replica rewrites its local copy of every row *)
  let victim = List.nth (B.peers net) (List.length (B.peers net) - 1) in
  let victim_name = Brdb_node.Peer.name victim in
  let catalog = Node_core.catalog (Brdb_node.Peer.core victim) in
  (match Brdb_storage.Catalog.find catalog "audit_kv" with
  | None -> check "victim holds audit_kv" false
  | Some table ->
      Brdb_storage.Table.iter_versions table (fun v ->
          v.Brdb_storage.Version.values.(1) <- Value.Int 666));
  (match cross_check () with
  | Ok (_, divergent) ->
      say "  divergent: %s" (String.concat ", " divergent);
      check
        ("only the tampered replica " ^ victim_name ^ " is flagged")
        (divergent = [ victim_name ])
  | Error e -> check ("verified query answered (" ^ e ^ ")") false);
  if !failed then `Error (false, "a verifiable-read invariant failed")
  else `Ok ()

(* --- cmdliner ------------------------------------------------------------------ *)

open Cmdliner

let flow_arg =
  Arg.(value & opt string "oe" & info [ "flow" ] ~docv:"FLOW" ~doc:"oe, eo or serial")

let bs_arg =
  Arg.(value & opt int 10 & info [ "block-size" ] ~docv:"N" ~doc:"block size cap")

let timeout_arg =
  Arg.(value & opt float 0.2 & info [ "block-timeout" ] ~docv:"S" ~doc:"block timeout (s)")

let sandbox_cmd =
  Cmd.v
    (Cmd.info "sandbox" ~doc:"interactive SQL over a 3-org blockchain network")
    Term.(ret (const sandbox $ flow_arg $ bs_arg $ timeout_arg))

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"scripted tour") Term.(ret (const demo $ const ()))

let out_arg =
  Arg.(
    value
    & opt string "brdb-trace.json"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"trace output file")

let format_arg =
  Arg.(
    value
    & opt string "chrome"
    & info [ "format" ] ~docv:"FMT" ~doc:"chrome (trace_event JSON) or jsonl")

let tracing_arg =
  Arg.(
    value
    & opt bool true
    & info [ "tracing" ] ~docv:"BOOL"
        ~doc:
          "enable tracing in the deployment config; with $(docv) false the \
           command refuses instead of writing an empty trace file")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "run a scripted workload with tracing on and export the \
          per-transaction lifecycle as a Chrome trace or JSONL")
    Term.(ret (const trace $ flow_arg $ out_arg $ format_arg $ tracing_arg))

let sql_args =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SQL"
        ~doc:
          "semicolon-separated statements (read from stdin when omitted); \
           DDL builds a scratch catalog, everything else is explained")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "print the access plan (scans, join strategy, aggregation and \
          ordering operators) the executor would choose for each statement")
    Term.(ret (const explain_cmd $ sql_args))

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"component summary")
    Term.(ret (const show_info $ const ()))

let sys_sql_args =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SQL"
        ~doc:
          "statements to run against the sys.* views after a scripted \
           workload (a built-in sweep of every view when omitted)")

let sys_cmd =
  Cmd.v
    (Cmd.info "sys"
       ~doc:
         "run a scripted workload and query the sys.* introspection views \
          (nonzero exit if any statement fails — the check.sh smoke step)")
    Term.(ret (const sys_smoke $ sys_sql_args))

let compaction_arg =
  Arg.(
    value & opt string "archive"
    & info [ "compaction" ] ~docv:"MODE"
        ~doc:"archive (keep dead version chains) or pruned (drop them)")

let chunk_arg =
  Arg.(
    value & opt int 1024
    & info [ "chunk-size" ] ~docv:"BYTES" ~doc:"snapshot transfer chunk size")

let snapshot_cmd =
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "capture a deterministic state snapshot of a demo chain, chunk and \
          verify it, install it onto another replica and check digests agree \
          (nonzero exit on any mismatch — the check.sh smoke step)")
    Term.(ret (const snapshot_cmd_impl $ compaction_arg $ chunk_arg))

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "orderer-fault chaos smoke: BFT primary crash (view change), Raft \
          leader crash (re-election) and in-flight block tampering must all \
          converge (nonzero exit otherwise — the check.sh smoke step)")
    Term.(ret (const chaos_smoke $ const ()))

let alerts_cmd =
  Cmd.v
    (Cmd.info "alerts"
       ~doc:
         "health-plane smoke: inject every chaos fault class under a tuned \
          spec and require a matching alert (the fault→alert coverage \
          matrix), with a silent fault-free baseline (nonzero exit on any \
          gap — the check.sh smoke step)")
    Term.(ret (const alerts_smoke $ const ()))

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "verifiable-read smoke: obtain an inclusion receipt and a \
          provenance proof through a client session, verify both against \
          hash anchors alone, reject every tampered variant, fail a \
          doomed transaction at the client before ordering, and flag the \
          one replica whose rows were tampered with in a cross-node query \
          (nonzero exit on any violation — the check.sh smoke step)")
    Term.(ret (const verify_smoke $ const ()))

let main =
  Cmd.group
    (Cmd.info "brdb" ~version:"1.0.0"
       ~doc:"decentralized replicated relational database with blockchain properties")
    [
      sandbox_cmd;
      demo_cmd;
      trace_cmd;
      explain_cmd;
      info_cmd;
      sys_cmd;
      snapshot_cmd;
      chaos_cmd;
      alerts_cmd;
      verify_cmd;
    ]

let () = exit (Cmd.eval main)
