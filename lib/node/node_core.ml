open Brdb_storage
module Txn = Brdb_txn.Txn
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec
module Block = Brdb_ledger.Block
module Block_store = Brdb_ledger.Block_store
module Ledger_table = Brdb_ledger.Ledger_table
module Identity = Brdb_crypto.Identity
module Api = Brdb_contracts.Api
module Registry = Brdb_contracts.Registry
module Procedural = Brdb_contracts.Procedural
module Determinism = Brdb_contracts.Determinism
module System = Brdb_contracts.System
module Rules = Brdb_ssi.Rules
module Detect = Brdb_ssi.Detect
module Trace = Brdb_obs.Trace

type flow = Order_execute | Execute_order | Serial_baseline

type config = {
  name : string;
  org : string;
  flow : flow;
  orgs : string list;
  atomic_commit : bool;
}

let make_config ~name ~org ~flow ?(atomic_commit = false) ~orgs () =
  { name; org; flow; orgs; atomic_commit }

type tx_status = S_committed | S_aborted of Txn.abort_reason | S_rejected of string

let tx_status_to_string = function
  | S_committed -> "committed"
  | S_aborted r -> "aborted: " ^ Txn.abort_reason_to_string r
  | S_rejected r -> "rejected: " ^ r

type block_result = {
  br_height : int;
  br_statuses : (string * tx_status) list;
  br_write_set_hash : string;
  br_missing : int;
  br_waves : int array;
  br_fresh : bool array;
}

(* One sys.transactions row (DESIGN.md §10): everything the view shows
   about a transaction, recorded when its block is processed and replaced
   wholesale when §3.6 recovery re-executes the block. *)
type tx_record = {
  r_pos : int;
  r_gid : string;
  r_user : string;
  r_contract : string;
  r_status : tx_status;
}

(* Per-block critical-path analysis backing sys.critical_path and the
   bench profiler: the block's dependency DAG weighed with the calibrated
   cost model, so every node that processed the block computes it alike. *)
type cp_entry = {
  cp_txs : int;
  cp_edge_count : int;
  cp_result : Brdb_obs.Critical_path.result;
}

(* What the commit phase leaves behind for one height (§3.3.4, §3.6):
   sys.transactions rows, the write-set root and the chained state digest
   sys.blocks publishes, the Merkle leaves and tree proofs are served
   from, and the critical-path entry. A stored block whose processing was
   interrupted has no record until recovery writes one. *)
type block_record = {
  b_txs : tx_record list;  (* block order *)
  b_root : string;
  b_digest : string;
  (* the leaves and the bucketed tree they were hashed into, so a proof
     rehashes one bucket; [None] below the proof floor (installed heights) *)
  b_tree : (string list * Brdb_crypto.Merkle.tree) option;
  (* [None] where the block's dependency graph is unknown: installed
     heights and §3.6 case (a) *)
  b_cp : cp_entry option;
}

type t = {
  config : config;
  registry : Identity.Registry.t;
  catalog : Catalog.t;
  manager : Manager.t;
  contracts : Registry.t;
  store : Block_store.t;
  wal : Wal.t;
  (* txid -> (contract, version at execution): §3.7 update-conflict check *)
  exec_versions : (int, string * int) Hashtbl.t;
  mutable bootstrapped : bool;
  mutable trace : Trace.t;
  (* cumulative per-operator executor counters across all contract runs;
     deterministic, so peers surface them as registry metrics *)
  exec_totals : Exec.stats;
  (* modelled base execution time (seconds) per contract name, installed by
     the peer from the calibrated cost model; backs sys.transactions.tet_ms *)
  mutable tet_model : string -> float;
  (* height -> the block's record: written only by [store_record], reset
     only by [forget_records] *)
  records : (int, block_record) Hashtbl.t;
  (* leaf [h - 1] is the chained state digest of height [h], for every
     recorded height; same writer and reset as [records] *)
  history : Brdb_crypto.Merkle.history;
}

let create config ~registry =
  let catalog = Catalog.create () in
  {
    config;
    registry;
    catalog;
    manager = Manager.create catalog;
    contracts = Registry.create ();
    store = Block_store.create ();
    wal = Wal.create ();
    exec_versions = Hashtbl.create 256;
    bootstrapped = false;
    trace = Trace.null;
    exec_totals = Exec.new_stats ();
    tet_model = (fun _ -> 0.);
    records = Hashtbl.create 64;
    history = Brdb_crypto.Merkle.history ();
  }

let record_at t ~height = Hashtbl.find_opt t.records height

let critical_path t ~height = Option.bind (record_at t ~height) (fun r -> r.b_cp)

let set_trace t trace = t.trace <- trace

let set_tet_model t f = t.tet_model <- f

let exec_totals t = t.exec_totals

(* Chained state digest: a running hash over every block's write-set
   root. Cumulative on purpose — once two nodes diverge at block d their
   chained digests differ at every height >= d, which is the monotonicity
   SQL bisection over sys.blocks relies on. *)
let chain prev ws = Brdb_util.Hex.encode (Brdb_crypto.Sha256.digest_concat [ prev; ws ])

let state_digest t ~height = Option.map (fun r -> r.b_digest) (record_at t ~height)

let write_set_hash t ~height = Option.map (fun r -> r.b_root) (record_at t ~height)

(* The one writer of the per-height records: store [height]'s record
   with [root] chained onto the digest below. Blocks are recorded in
   height order (recovery finishes an interrupted top block before the
   next one is processed), so the height below is always recorded.
   Replace, not add: recovery overwrites a partial attempt, and the
   history drops every leaf from [height] up before taking the new
   digest (a re-chain rewrites each height above in turn). *)
let store_record t ~height ~txs ~root ~tree ~cp =
  let prev =
    if height = 1 then Block.genesis_hash
    else
      match state_digest t ~height:(height - 1) with
      | Some d -> d
      | None -> invalid_arg "Node_core.store_record: height below unrecorded"
  in
  let digest = chain prev root in
  Hashtbl.replace t.records height
    { b_txs = txs; b_root = root; b_digest = digest; b_tree = tree; b_cp = cp };
  Brdb_crypto.Merkle.history_truncate t.history (height - 1);
  Brdb_crypto.Merkle.history_append t.history digest

(* The one reset: every per-height record, the history over their
   digests and §3.7 execution version. *)
let forget_records t =
  Hashtbl.reset t.records;
  Brdb_crypto.Merkle.history_reset t.history;
  Hashtbl.reset t.exec_versions

let history_size t = Brdb_crypto.Merkle.history_size t.history

let history_root t = Brdb_crypto.Merkle.history_root t.history

let history_path t ~height = Brdb_crypto.Merkle.history_path t.history (height - 1)

let write_set_tree_at t ~height = Option.bind (record_at t ~height) (fun r -> r.b_tree)

let write_set_entries_at t ~height = Option.map fst (write_set_tree_at t ~height)

let catalog t = t.catalog

let manager t = t.manager

let block_store t = t.store

let identity_registry t = t.registry

let height t = Block_store.height t.store

(* --- sys.* introspection views (DESIGN.md §10) ------------------------------- *)

let decision_of = function
  | S_committed -> "committed"
  | S_aborted _ -> "aborted"
  | S_rejected _ -> "rejected"

let abort_class_of = function
  | S_aborted r -> Brdb_obs.Abort_class.(to_string (of_reason r))
  | S_committed | S_rejected _ -> ""

let detail_of = function
  | S_committed -> ""
  | S_aborted r -> Txn.abort_reason_to_string r
  | S_rejected r -> r

(* [(h, record)] for every recorded height up to [height], ascending. *)
let records_upto t ~height =
  List.filter_map (fun h -> Option.map (fun r -> (h, r)) (record_at t ~height:h))
    (List.init height succ)

(* Transaction records of all blocks up to [height], in (block, pos)
   order. *)
let tx_records_upto t ~height =
  List.concat_map (fun (h, r) -> List.map (fun x -> (h, x)) r.b_txs) (records_upto t ~height)

(* The node-level virtual tables. Everything each provider renders is a
   pure function of the block stream and contract registry at the
   requested height (the sys.* determinism contract); node-only facts
   (metrics, peer gossip state) live in the views the peer layer
   registers. *)
let register_sys_views t =
  let module Cp = Brdb_obs.Critical_path in
  let cp f (_, e) = f e.cp_result in
  Catalog.(
    register_virtual t.catalog ~name:"sys.blocks"
      [
        int ~pk:true "height" (fun b -> b.Block.height);
        int "txs" (fun b -> List.length b.Block.txs);
        text "hash" (fun b -> b.Block.hash);
        text "prev_hash" (fun b -> b.Block.prev_hash);
        int "committime" (fun b -> b.Block.height);
        text "state_digest" (fun b ->
            Option.value (state_digest t ~height:b.Block.height) ~default:"");
      ]
      (fun ~height ->
        List.filter_map (Block_store.get t.store) (List.init height succ));
    register_virtual t.catalog ~name:"sys.transactions"
      [
        text "gid" (fun (_, r) -> r.r_gid);
        int "block" fst;
        int "pos" (fun (_, r) -> r.r_pos);
        text "txuser" (fun (_, r) -> r.r_user);
        text "contract" (fun (_, r) -> r.r_contract);
        text "decision" (fun (_, r) -> decision_of r.r_status);
        text "abort_class" (fun (_, r) -> abort_class_of r.r_status);
        text "detail" (fun (_, r) -> detail_of r.r_status);
        float "tet_ms" (fun (_, r) -> t.tet_model r.r_contract *. 1000.);
      ]
      (fun ~height -> tx_records_upto t ~height);
    register_virtual t.catalog ~name:"sys.aborts"
      [ text ~pk:true "class" fst; int "n" snd ]
      (fun ~height ->
        let records = tx_records_upto t ~height in
        List.map
          (fun cls ->
            let name = Brdb_obs.Abort_class.to_string cls in
            ( name,
              List.length
                (List.filter (fun (_, r) -> abort_class_of r.r_status = name) records)
            ))
          Brdb_obs.Abort_class.all);
    register_virtual t.catalog ~name:"sys.critical_path"
      [
        int ~pk:true "height" fst;
        int "txs" (fun (_, e) -> e.cp_txs);
        int "edges" (fun (_, e) -> e.cp_edge_count);
        float "serial_ms" (cp (fun r -> r.Cp.serial_s *. 1000.));
        float "critical_ms" (cp (fun r -> r.Cp.critical_s *. 1000.));
        float "headroom" (cp (fun r -> r.Cp.headroom));
        int "waves" (cp (fun r -> r.Cp.waves));
      ]
      (fun ~height ->
        List.filter_map (fun (h, r) -> Option.map (fun e -> (h, e)) r.b_cp)
          (records_upto t ~height));
    register_virtual t.catalog ~name:"sys.tables"
      [
        text ~pk:true "name" fst;
        int "columns" (fun (_, tbl) -> Schema.arity (Table.schema tbl));
        int "versions" (fun (_, tbl) -> Table.version_count tbl);
        int "live" (fun (_, tbl) -> Table.live_count tbl);
        int "pruned" (fun (_, tbl) -> Table.pruned_total tbl);
        int "indexes" (fun (_, tbl) -> List.length (Table.indexed_columns tbl));
      ]
      (fun ~height:_ ->
        List.filter_map
          (fun name -> Option.map (fun tbl -> (name, tbl)) (find t.catalog name))
          (table_names t.catalog));
    register_virtual t.catalog ~name:"sys.indexes"
      [
        text "table_name" (fun (name, _, _) -> name);
        text "column_name" (fun (_, column, _) -> column);
        bool "is_unique" (fun (_, _, unique) -> unique);
      ]
      (fun ~height:_ ->
        List.concat_map
          (fun name ->
            match find t.catalog name with
            | None -> []
            | Some table ->
                let schema = Table.schema table in
                let uniques = Table.unique_columns table in
                List.map
                  (fun c ->
                    ( name,
                      schema.Schema.columns.(c).Schema.name,
                      List.mem c uniques ))
                  (Table.indexed_columns table))
          (table_names t.catalog)))

(* --- bootstrap -------------------------------------------------------------- *)

let bootstrap t =
  if not t.bootstrapped then begin
    t.bootstrapped <- true;
    register_sys_views t;
    System.register_all t.contracts;
    match
      Manager.begin_txn t.manager ~global_id:"__bootstrap__" ~client:"system"
        ~description:"bootstrap" ~snapshot_height:(-1) ()
    with
    | Error `Duplicate_txid -> failwith "bootstrap ran twice"
    | Ok txn ->
        List.iter
          (fun sql ->
            match Exec.execute_sql t.catalog txn sql with
            | Ok _ -> ()
            | Error e ->
                failwith
                  (Printf.sprintf "bootstrap statement failed (%s): %s" sql
                     (Exec.error_to_string e)))
          (System.bootstrap_statements ~orgs:t.config.orgs);
        Manager.commit t.manager txn ~height:0
  end

let install_contract t ~name body = ignore (Registry.deploy t.contracts ~name body)

(* --- contract hooks ---------------------------------------------------------- *)

let system_contract_names =
  [
    "create_deploytx"; "approve_deploytx"; "reject_deploytx"; "comment_deploytx";
    "submit_deploytx"; "create_user"; "update_user"; "delete_user";
  ]

(* Governance side effects are validated during execution but take effect
   only when the transaction commits, so every node's registry reflects
   exactly the committed history. *)
let hooks_for t txn =
  {
    Api.deploy =
      (fun ~kind ~name ~body ->
        if List.mem name system_contract_names then
          Error "system contracts cannot be modified"
        else
          match kind with
          | "drop" ->
              if Registry.find t.contracts name = None then
                Error (Printf.sprintf "contract %s does not exist" name)
              else begin
                Txn.add_on_commit txn (fun () ->
                    ignore (Registry.drop t.contracts ~name));
                Ok ()
              end
          | "create" | "replace" -> (
              match Determinism.parse_program body with
              | Error (`Syntax e | `Nondeterministic e) -> Error e
              | Ok program ->
                  Txn.add_on_commit txn (fun () ->
                      ignore
                        (Registry.deploy t.contracts ~name (Registry.Procedural program)));
                  Ok ())
          | k -> Error (Printf.sprintf "unknown deployment kind %s" k));
    Api.set_user =
      (fun ~name ~pubkey ->
        match pubkey with
        | None ->
            Txn.add_on_commit txn (fun () -> Identity.Registry.remove t.registry name);
            Ok ()
        | Some hex -> (
            match Int64.of_string_opt ("0x" ^ hex) with
            | None -> Error "public key must be hexadecimal"
            | Some pk ->
                Txn.add_on_commit txn (fun () ->
                    Identity.Registry.set t.registry ~name pk);
                Ok ()));
  }

(* --- contract execution -------------------------------------------------------- *)

let describe_tx (tx : Block.tx) =
  String.concat ""
    [
      tx.Block.tx_contract;
      "(";
      String.concat ", " (List.map Value.to_string tx.Block.tx_args);
      ")";
    ]

let run_contract t txn (tx : Block.tx) =
  match Registry.find t.contracts tx.Block.tx_contract with
  | None ->
      Txn.mark_abort txn
        (Txn.Contract_error (Printf.sprintf "unknown contract %s" tx.Block.tx_contract))
  | Some contract -> (
      Hashtbl.replace t.exec_versions txn.Txn.txid
        (tx.Block.tx_contract, contract.Registry.version);
      let allow_ddl = System.admin_org txn.Txn.client <> None in
      (* System contracts are trusted node software; the EO index-only
         restriction applies to user contracts. *)
      let is_system = List.mem tx.Block.tx_contract system_contract_names in
      (* Counters accumulate straight into the node totals; a per-run
         snapshot is only needed when tracing wants per-contract deltas. *)
      let tracing = Trace.enabled t.trace in
      let stats =
        Some (if tracing then Exec.new_stats () else t.exec_totals)
      in
      let mode =
        {
          Exec.require_index =
            (not is_system) && t.config.flow = Execute_order;
          allow_ddl;
          (* Contracts must stay pure functions of (block stream, contract
             registry); node-local sys.* views are for clients only. *)
          allow_sys = false;
          stats;
        }
      in
      let ctx =
        Api.make ~catalog:t.catalog ~txn ~args:(Array.of_list tx.Block.tx_args)
          ~mode ~hooks:(hooks_for t txn) ()
      in
      let mark e =
        Txn.mark_abort txn
          (match e with
          | Exec.Missing_index w -> Txn.Missing_index w
          | Exec.Blind_update w -> Txn.Blind_update w
          | Exec.Sql_error m -> Txn.Contract_error m)
      in
      let emit_exec_stats () =
        match stats with
        | None -> ()
        | Some s ->
            if tracing then begin
              Exec.merge_stats ~into:t.exec_totals s;
              let scans =
                Exec.scan_counts s
                |> List.map (fun (op, table, rows) ->
                       Printf.sprintf "%s(%s)=%d" op table rows)
                |> String.concat ","
              in
              Trace.instant t.trace ~node:t.config.name ~track:"exec"
                ~cat:"exec" ~name:"contract"
                ~args:
                  [
                    ("tx", Trace.S tx.Block.tx_id);
                    ("contract", Trace.S tx.Block.tx_contract);
                    ("stmts", Trace.I s.Exec.stmts);
                    ("rows_out", Trace.I s.Exec.rows_out);
                    ("affected", Trace.I s.Exec.stats_affected);
                    ("scans", Trace.S scans);
                  ]
                ()
            end
      in
      match
        match contract.Registry.body with
        | Registry.Native f -> f ctx
        | Registry.Procedural p -> Procedural.run p ctx
      with
      | () -> emit_exec_stats ()
      | exception Api.Failed e ->
          mark e;
          emit_exec_stats ()
      | exception Brdb_engine.Eval.Error m ->
          Txn.mark_abort txn (Txn.Contract_error m);
          emit_exec_stats ())

(* --- acquiring transactions for a block ------------------------------------------ *)

type slot = Run of Txn.t * Block.tx | Rejected of Block.tx * string

let fresh_execute t ~snapshot (tx : Block.tx) =
  match
    Manager.begin_txn t.manager ~global_id:tx.Block.tx_id ~client:tx.Block.tx_user
      ~description:(describe_tx tx) ~snapshot_height:snapshot ()
  with
  | Error `Duplicate_txid -> Rejected (tx, "duplicate transaction identifier")
  | Ok txn ->
      run_contract t txn tx;
      (* The read sets wait for the block sorted, deduplicated and
         trimmed; SSI detection in the block pipeline only iterates them. *)
      Txn.seal txn;
      Run (txn, tx)

(* EO §3.4.1: execute on arrival at the client-specified snapshot. *)
let pre_execute t (tx : Block.tx) =
  if t.config.flow <> Execute_order then Error "pre-execution only in the EO flow"
  else if not (Block.verify_tx t.registry tx) then Error "invalid client signature"
  else
    let snapshot = Option.value tx.Block.tx_snapshot ~default:(height t) in
    if snapshot > height t then Error "snapshot height not reached yet"
    else
      match fresh_execute t ~snapshot tx with
      | Run _ -> Ok ()
      | Rejected (_, reason) -> Error reason

(* [signed] carries the payload the block's [Block.check_hash] hashed. *)
let acquire t ~block_height ~missing ({ Block.tx; _ } as signed : Block.signed_tx) =
  let effective_snapshot =
    match (t.config.flow, tx.Block.tx_snapshot) with
    | Serial_baseline, _ ->
        (* Each serial transaction sees its predecessors in the block. *)
        block_height
    | _, None -> block_height - 1
    | _, Some s -> min s (block_height - 1)
  in
  match Manager.find_by_global t.manager tx.Block.tx_id with
  | Some txn when Txn.is_pending txn && t.config.flow = Execute_order ->
      if txn.Txn.snapshot_height = effective_snapshot then Run (txn, tx)
      else begin
        (* Pre-executed at a snapshot that ordering overtook: discard and
           re-execute at the deterministic effective snapshot. *)
        Manager.abort t.manager txn (Txn.Contract_error "snapshot clamped by ordering");
        Manager.release t.manager txn;
        incr missing;
        fresh_execute t ~snapshot:effective_snapshot tx
      end
  | Some _ -> Rejected (tx, "duplicate transaction identifier")
  | None ->
      if not (Block.verify_signed t.registry signed) then
        Rejected (tx, "invalid client signature")
      else begin
        if t.config.flow = Execute_order then incr missing;
        fresh_execute t ~snapshot:effective_snapshot tx
      end

(* --- commit phase ------------------------------------------------------------------ *)

let rules_view t txid =
  match Manager.find t.manager txid with
  | None -> { Rules.status = Rules.S_aborted; block = None; pos = None }
  | Some txn ->
      let status =
        match txn.Txn.status with
        | Txn.Pending -> Rules.S_pending
        | Txn.Committed _ -> Rules.S_committed
        | Txn.Aborted _ -> Rules.S_aborted
      in
      { Rules.status; block = txn.Txn.block; pos = txn.Txn.block_pos }

let deploy_conflict t txn =
  match Hashtbl.find_opt t.exec_versions txn.Txn.txid with
  | None -> None
  | Some (name, version) -> (
      match Registry.find t.contracts name with
      | Some c when c.Registry.version = version -> None
      | _ -> Some Txn.Update_conflict_on_deploy)

let decide t ~block_height ~graph txn =
  match txn.Txn.marked with
  | Some reason -> Some reason
  | None -> (
      match deploy_conflict t txn with
      | Some r -> Some r
      | None -> (
          match Manager.check_lost_update t.manager txn with
          | Some r -> Some r
          | None -> (
              match
                if t.config.flow = Execute_order then
                  Manager.check_stale_phantom t.manager txn
                    ~upto_height:(block_height - 1)
                else None
              with
              | Some r -> Some r
              | None -> (
                  match Manager.check_unique t.manager txn ~height:block_height with
                  | Some r -> Some r
                  | None ->
                      let decision =
                        match t.config.flow with
                        | Order_execute ->
                            Rules.decide_plain graph (rules_view t) ~me:txn.Txn.txid
                        | Execute_order ->
                            Rules.decide_block_aware graph (rules_view t)
                              ~me:txn.Txn.txid ~my_block:block_height
                        | Serial_baseline -> Rules.no_op
                      in
                      List.iter
                        (fun (victim, rule) ->
                          match Manager.find t.manager victim with
                          | Some v -> Txn.mark_abort v (Txn.Ssi_conflict rule)
                          | None -> ())
                        decision.Rules.abort_others;
                      Option.map
                        (fun rule -> Txn.Ssi_conflict rule)
                        decision.Rules.abort_self))))

(* Apply half of the commit step: takes a decision computed by [decide]
   and mutates state accordingly. Split from the decide half so the wave
   loop can decide a whole wave against pre-wave state before any
   member's effects become visible (DESIGN.md §14). *)
let apply_one t ~block_height slot decision =
  match (slot, decision) with
  | Rejected _, _ -> ()
  | Run (txn, _), Some reason ->
      Manager.abort t.manager txn reason;
      Wal.append t.wal ~txid:txn.Txn.txid ~height:block_height (Wal.Aborted reason)
  | Run (txn, _), None ->
      (* First committer in block order wins every ww conflict. *)
      List.iter
        (fun other -> Txn.mark_abort other (Txn.Ww_conflict txn.Txn.txid))
        (Manager.other_claimants t.manager txn);
      Manager.commit t.manager txn ~height:block_height;
      Wal.append t.wal ~txid:txn.Txn.txid ~height:block_height Wal.Committed

let slot_result slot decision =
  match (slot, decision) with
  | Rejected (tx, reason), _ -> (tx.Block.tx_id, S_rejected reason, None)
  | Run (txn, tx), Some reason -> (tx.Block.tx_id, S_aborted reason, Some txn)
  | Run (txn, tx), None -> (tx.Block.tx_id, S_committed, Some txn)

type crash_point =
  | Crash_after_ledger_entries
  | Crash_mid_commit of int
  | Crash_before_status_step

(* Raised where an injected crash point stops block processing. *)
exception Crashed

(* The one commit loop (DESIGN.md §14): waves run in ascending index
   order. Within a wave every decision is computed against pre-wave state
   only — the schedule separates any two positions one of whose decisions
   could read the other's status (direct dependency or two rw hops, per
   Rules.decide_*'s far/near structure) — then the merge barrier applies
   the wave's commits/aborts in block order before the next wave decides.
   Decisions are evaluated in position order, so in-wave abort marks
   propagate exactly as they do one transaction at a time: every valid
   schedule, one position per wave included, gives identical decisions
   (the schedule-independence property in test/test_properties.ml).
   [apply_limit] raises [Crashed] before the apply after that many. *)
let commit_waves ?(apply_limit = max_int) t ~block_height ~graph ~waves slots =
  let arr = Array.of_list slots in
  let n = Array.length arr in
  if Array.length waves <> n then
    invalid_arg "Node_core.commit_waves: waves length mismatch";
  let members = Array.make (Array.fold_left (fun acc w -> max acc (w + 1)) 0 waves) [] in
  for i = n - 1 downto 0 do
    members.(waves.(i)) <- i :: members.(waves.(i))
  done;
  let decisions = Array.make n None and applied = ref 0 in
  Array.iter
    (fun wave ->
      List.iter
        (fun i ->
          decisions.(i) <-
            (match arr.(i) with
            | Rejected _ -> None
            | Run (txn, _) -> decide t ~block_height ~graph txn))
        wave;
      List.iter
        (fun i ->
          if !applied >= apply_limit then raise Crashed;
          incr applied;
          apply_one t ~block_height arr.(i) decisions.(i))
        wave)
    members;
  List.mapi (fun i slot -> slot_result slot decisions.(i)) slots

(* --- block processing ------------------------------------------------------------- *)

let place ~block_height pos = function
  | Run (txn, _) ->
      txn.Txn.block <- Some block_height;
      txn.Txn.block_pos <- Some pos
  | Rejected _ -> ()

(* Per-position facts for the dependency-graph builder, read off the
   executed transactions before any of them commits. A unique key counts
   for every version a position creates or claims: check_unique sees
   same-block commits both ways (DESIGN.md §14). *)
let deps_input t ~graph slots =
  let pos_of = Hashtbl.create 16 in
  List.iteri
    (fun pos -> function
      | Run (txn, _) -> Hashtbl.replace pos_of txn.Txn.txid pos
      | Rejected _ -> ())
    slots;
  let unique_keys (table_name, vid) =
    match Catalog.find t.catalog table_name with
    | None -> []
    | Some table ->
        List.filter_map
          (fun col ->
            let key = (Table.get_version table vid).Version.values.(col) in
            if Value.is_null key then None
            else Some (table_name, col, Value.encode key))
          (Table.unique_columns table)
  in
  List.map
    (function
      | Rejected _ -> None
      | Run (txn, _) ->
          Some
            {
              Block_deps.rw_out =
                List.filter_map (Hashtbl.find_opt pos_of)
                  (Brdb_ssi.Graph.out_conflicts graph txn.Txn.txid);
              claims = Txn.claimed txn;
              unique_keys =
                List.concat_map unique_keys (Txn.created txn @ Txn.claimed txn);
              barrier = txn.Txn.on_commit <> [];
            })
    slots

(* §5.1 Ethereum-style baseline: execute + commit one at a time, so later
   transactions see earlier ones. Every transaction depends on its
   predecessor: the critical path IS the serial path (headroom 1.0). *)
let process_serial t ~block_height ~missing txs =
  let results =
    List.map
      (fun tx ->
        let slot = acquire t ~block_height ~missing tx in
        place ~block_height 0 slot;
        List.hd
          (commit_waves t ~block_height ~graph:(Brdb_ssi.Graph.create ())
             ~waves:[| 0 |] [ slot ]))
      txs
  in
  let n = List.length results in
  let chain = List.init (max 0 (n - 1)) (fun i -> (i, i + 1)) in
  ( results,
    { Block_deps.edges = chain; sched_edges = chain; waves = Array.init n Fun.id },
    Array.of_list
      (List.map
         (fun (_, status, _) -> match status with S_rejected _ -> false | _ -> true)
         results) )

(* §3.3/§3.4: execute everything (logically concurrent), record ledger
   step 1, then commit wave by wave over the block's dependency graph.
   [fresh] marks positions whose contract body ran during block
   processing (OE: every accepted transaction; EO: only the
   missing/re-executed ones) — the peer charges tet for exactly those
   when modelling wave execution time. *)
let process_concurrent ?crash ?schedule t ~block_height ~missing txs =
  let slots_fresh =
    List.map
      (fun tx ->
        let before = !missing in
        let slot = acquire t ~block_height ~missing tx in
        let fresh =
          match slot with
          | Rejected _ -> false
          | Run _ -> t.config.flow = Order_execute || !missing > before
        in
        (slot, fresh))
      txs
  in
  let slots = List.map fst slots_fresh in
  List.iteri (place ~block_height) slots;
  let block_txns =
    List.filter_map (function Run (txn, _) -> Some txn | Rejected _ -> None) slots
  in
  let graph_txns =
    match t.config.flow with
    | Execute_order ->
        (* Conflicts may involve in-flight transactions of other blocks
           (Table 2's cross-block rows): every pending transaction not
           just placed at this height. *)
        block_txns
        @ List.filter
            (fun txn -> txn.Txn.block <> Some block_height)
            (Manager.pending t.manager)
    | _ -> block_txns
  in
  let graph = Detect.compute t.catalog graph_txns in
  (* Ledger step 1: record the block's transactions (NULL status). *)
  let entries =
    List.filter_map
      (function
        | Run (txn, tx) ->
            Some
              {
                Ledger_table.e_txid = txn.Txn.txid;
                e_gid = tx.Block.tx_id;
                e_user = tx.Block.tx_user;
                e_query = txn.Txn.description;
              }
        | Rejected _ -> None)
      slots
  in
  Ledger_table.record_txs t.catalog ~height:block_height ~time:block_height entries;
  if crash = Some Crash_after_ledger_entries then raise Crashed;
  (* Dependencies are extracted before the commit loop mutates
     transaction state. *)
  let deps = Block_deps.build (deps_input t ~graph slots) in
  let deps =
    match schedule with
    | None -> deps
    | Some f -> { deps with Block_deps.waves = f deps }
  in
  let apply_limit =
    match crash with Some (Crash_mid_commit n) -> n | _ -> max_int
  in
  ( commit_waves ~apply_limit t ~block_height ~graph ~waves:deps.Block_deps.waves slots,
    deps,
    Array.of_list (List.map snd slots_fresh) )

(* The record of a decided block: per-tx records (block order), the
   write-set root, its leaves and tree, and the critical-path entry [cp].
   Returns the write-set root. *)
let record_block t (block : Block.t) statuses committed ~cp =
  let height = block.Block.height in
  let ws_leaves = Manager.write_set_entries t.manager committed in
  let tree = Brdb_crypto.Merkle.tree ws_leaves in
  let root = Brdb_crypto.Merkle.tree_root tree in
  store_record t ~height ~root ~tree:(Some (ws_leaves, tree)) ~cp
    ~txs:
      (List.mapi
         (fun pos ((tx : Block.tx), r_status) ->
           {
             r_pos = pos;
             r_gid = tx.Block.tx_id;
             r_user = tx.Block.tx_user;
             r_contract = tx.Block.tx_contract;
             r_status;
           })
         (List.combine block.Block.txs statuses));
  root

let process_appended ?crash ?schedule t ({ Block.block; signed = txs; _ } : Block.checked) =
  bootstrap t;
  let block_height = block.Block.height in
  let missing = ref 0 in
  let results, deps, br_fresh =
    match t.config.flow with
    | Serial_baseline -> process_serial t ~block_height ~missing txs
    | Order_execute | Execute_order ->
        process_concurrent ?crash ?schedule t ~block_height ~missing txs
  in
  (* Every crash point still pending stops here, before the status step:
     the serial baseline has no ledger step 1 and commits as it executes. *)
  if crash <> None then raise Crashed;
  let dep_edges = deps.Block_deps.edges in
  (* Critical-path analysis (sys.critical_path / bench profiler): weights
     come from the calibrated cost model; rejected transactions never
     execute and weigh nothing. *)
  let cp =
    let weights =
      Array.of_list
        (List.map2
           (fun (tx : Block.tx) (_, status, _) ->
             match status with
             | S_rejected _ -> 0.
             | S_committed | S_aborted _ -> t.tet_model tx.Block.tx_contract)
           block.Block.txs results)
    in
    let n = Array.length weights in
    let cp_result =
      Brdb_obs.Critical_path.analyze
        { Brdb_obs.Critical_path.n; weights; edges = dep_edges }
    in
    { cp_txs = n; cp_edge_count = List.length dep_edges; cp_result }
  in
  (* Ledger step 2: statuses, written atomically after all commits. *)
  let statuses =
    List.filter_map
      (fun (_, status, txn) ->
        Option.map (fun txn -> (txn.Txn.txid, tx_status_to_string status)) txn)
      results
  in
  Ledger_table.record_statuses t.catalog ~height:block_height statuses;
  let committed_txns =
    List.filter_map
      (fun (_, status, txn) -> match status with S_committed -> txn | _ -> None)
      results
  in
  let result =
    {
      br_height = block_height;
      br_statuses = List.map (fun (gid, status, _) -> (gid, status)) results;
      br_write_set_hash =
        record_block t block
          (List.map (fun (_, s, _) -> s) results)
          committed_txns ~cp:(Some cp);
      br_missing = !missing;
      br_waves = deps.Block_deps.waves;
      br_fresh;
    }
  in
  (* Garbage-collect bookkeeping for long-finished transactions (their
     effects live on in the heap; duplicate-id detection is preserved).
     A window of a few blocks keeps everything §3.6 recovery inspects. *)
  List.iter
    (fun (_, _, txn) ->
      match txn with
      | Some txn -> Hashtbl.remove t.exec_versions txn.Txn.txid
      | None -> ())
    results;
  Manager.forget_finished t.manager ~below_height:(block_height - 4);
  result

(* Nothing is hashed again: the store checks sequence and chain, and
   [acquire] reuses [Block.check_hash]'s payloads. The orderer signatures
   are checked against the registry as it stands now, since a block
   committed after this one's admission may have revoked its orderer. *)
let append t (c : Block.checked) =
  if not (Block.orderer_signed t.registry c.Block.block) then
    Error "invalid block (hash or signatures)"
  else
    match Block_store.append t.store c with
    | Error `Out_of_sequence ->
        Error
          (Printf.sprintf "block %d out of sequence (at height %d)"
             c.Block.block.Block.height (height t))
    | Error `Broken_chain -> Error "broken hash chain"
    | Ok () -> Ok ()

let run ?schedule t c = Result.map (fun () -> process_appended ?schedule t c) (append t c)

let process_checked t c = run t c

let process_block t block = Result.bind (Block.check_hash block) (run t)

(* --- client reads at a committed height --------------------------------------------- *)

(* One SELECT (or PROVENANCE SELECT) on an untracked snapshot reader at
   the committed height. Every transaction at or below that height is
   decided, so nothing is recorded for SSI, no txid is drawn and the
   Manager never sees the read. Any other statement is refused with
   [reject] before it runs, so a client read leaves no node-local residue. *)
let read_committed t ~reject ~params ~mode sql =
  bootstrap t;
  match Brdb_sql.Parser.parse sql with
  | Error e -> Error e
  | Ok (Brdb_sql.Ast.Select _ as stmt) ->
      Exec.execute t.catalog (Txn.reader ~snapshot_height:(height t)) ~params ~mode stmt
      |> Result.map_error Exec.error_to_string
      |> Result.map (fun rs -> (stmt, rs))
  | Ok _ -> Error reject

let query t ?(params = [||]) sql =
  read_committed t ~reject:"read-only queries cannot modify state" ~params
    ~mode:Exec.default_mode sql
  |> Result.map snd

let explain_analyze t ?(params = [||]) ~row_cost sql =
  (* A private stats record, never merged into [exec_totals]: the run
     must leave no residue in any counter a later query or hash could
     observe. *)
  let stats = Exec.new_stats () in
  let mode = { Exec.default_mode with Exec.stats = Some stats } in
  match
    read_committed t ~reject:"EXPLAIN ANALYZE supports SELECT statements only"
      ~params ~mode sql
  with
  | Error e -> Error e
  | Ok (stmt, _) ->
      let op_ms ~op:_ ~visited = float_of_int visited *. row_cost *. 1000. in
      Result.map
        (fun plan -> (plan, stats))
        (Exec.explain_analyzed t.catalog stats ~op_ms stmt)

(* --- crash & recovery (§3.6) ------------------------------------------------------------ *)

(* Crash injection runs the one block pipeline up to the crash point
   (DESIGN.md §14). [Crash_mid_commit n] stops after the first [n]
   applies in commit order. With atomic block commit, a crash mid-block
   means the group commit never reached disk: physically none of it
   happened. *)
let process_block_with_crash t ({ Block.block; _ } as c : Block.checked) ~crash =
  (match append t c with Error e -> failwith e | Ok () -> ());
  try ignore (process_appended ~crash t c)
  with Crashed ->
    if t.config.atomic_commit then begin
      let height = block.Block.height in
      List.iter
        (fun (tx : Block.tx) ->
          match Manager.find_by_global t.manager tx.Block.tx_id with
          | Some ({ Txn.status = Txn.Committed h; _ } as txn) when h = height ->
              Manager.rollback_committed t.manager txn
          | _ -> ())
        block.Block.txs;
      Wal.erase_block t.wal ~height
    end

(* A crash between [Wal.begin_install] and [Wal.complete_install] leaves
   the node half-swapped between its old state and the snapshot's. The
   snapshot transfer is idempotent, so the cheapest correct recovery is a
   clean bootstrap slate and a fresh fetch (DESIGN.md §11): discard every
   table, block, procedural contract and per-height record, then re-run
   bootstrap. State and sys.* views are then a freshly created node's; its
   native contracts, tracer, cost model and executor counters stay. *)
let reset_half_installed t =
  Catalog.reset t.catalog;
  (match Block_store.restore t.store [] with
  | Ok () -> ()
  | Error _ -> assert false);
  List.iter
    (fun (name, _, _) -> ignore (Registry.drop t.contracts ~name))
    (Registry.export_procedural t.contracts);
  Manager.restore_globals t.manager ~next_txid:1 [];
  forget_records t;
  Wal.restore t.wal [];
  t.bootstrapped <- false;
  bootstrap t

(* Roll back what an interrupted attempt at [height] committed, forget
   its transactions and log records, and re-execute the block from the
   store. *)
let reexecute t ~height txns =
  List.iter
    (fun txn ->
      (match txn.Txn.status with
      | Txn.Committed _ -> Manager.rollback_committed t.manager txn
      | Txn.Pending -> Manager.abort t.manager txn (Txn.Contract_error "crash rollback")
      | Txn.Aborted _ -> ());
      Manager.release t.manager txn)
    txns;
  Wal.erase_block t.wal ~height;
  Ledger_table.erase_block t.catalog ~height;
  match Block_store.get t.store height with
  | None -> Error (Printf.sprintf "block %d missing from the block store" height)
  | Some block ->
      (* The stored block passed the orderer-signature check when it was
         appended; only its payloads are recomputed. *)
      Result.map (fun c -> Some (process_appended t c)) (Block.check_hash block)

(* A block interrupted before any ledger step 1 entry shows only as a
   stored top block without a write-set digest: every serial-baseline
   block (it commits as it executes and writes no ledger step 1), and a
   concurrent-flow block with no transaction to record (empty, or every
   transaction rejected). Returns that block's own transactions. *)
let interrupted_unlogged_block t =
  let h = height t in
  if h = 0 || Hashtbl.mem t.records h || Ledger_table.block_txs t.catalog ~height:h <> []
  then None
  else
    Option.map
      (fun (block : Block.t) ->
        List.fold_left
          (fun acc (tx : Block.tx) ->
            match Manager.find_by_global t.manager tx.Block.tx_id with
            | Some txn when txn.Txn.block = Some h && not (List.memq txn acc) ->
                txn :: acc
            | _ -> acc)
          [] block.Block.txs
        |> List.rev)
      (Block_store.get t.store h)

let recover_from_ledger t =
  let h = Ledger_table.last_recorded_block t.catalog in
  if h = 0 then Ok None
  else
    let entries = Ledger_table.block_txs t.catalog ~height:h in
    if entries = [] || List.for_all (fun (_, s) -> s <> None) entries then Ok None
    else
      let wal_statuses =
        List.map (fun (txid, _) -> (txid, Wal.find t.wal ~txid)) entries
      in
      if List.for_all (fun (_, s) -> s <> None) wal_statuses then begin
        (* Case (a): every transaction committed/aborted (per the
           transaction log); only the ledger status step was lost. *)
        let statuses =
          List.map
            (fun (txid, s) ->
              match s with
              | Some Wal.Committed -> (txid, S_committed)
              | Some (Wal.Aborted r) -> (txid, S_aborted r)
              | None -> assert false)
            wal_statuses
        in
        Ledger_table.record_statuses t.catalog ~height:h
          (List.map (fun (txid, s) -> (txid, tx_status_to_string s)) statuses);
        let br_statuses =
          List.map
            (fun (txid, s) ->
              match Manager.find t.manager txid with
              | Some txn -> (txn.Txn.global_id, s)
              | None -> (string_of_int txid, s))
            statuses
        in
        let committed =
          List.filter_map
            (fun (txid, s) -> if s = S_committed then Manager.find t.manager txid else None)
            statuses
        in
        match Block_store.get t.store h with
        | None -> Error (Printf.sprintf "block %d missing from the block store" h)
        | Some block ->
            (* Rebuild the sys.* records the interrupted processing never
               wrote. Transactions absent from the WAL were rejected before
               reaching it (duplicate ids); the exact reject reason is not
               recoverable, but the decision — all the cross-node
               invariants cover — is. *)
            let tx_statuses =
              List.map
                (fun (tx : Block.tx) ->
                  match List.assoc_opt tx.Block.tx_id br_statuses with
                  | Some s -> s
                  | None -> S_rejected "duplicate transaction identifier")
                block.Block.txs
            in
            Ok
              (Some
                 {
                   br_height = h;
                   br_statuses;
                   br_write_set_hash = record_block t block tx_statuses committed ~cp:None;
                   br_missing = 0;
                   (* The schedule of the interrupted run is not recoverable
                      from the WAL; restart never models validation time, so
                      empty arrays are fine (the peer falls back to serial
                      timing). *)
                   br_waves = [||];
                   br_fresh = [||];
                 })
      end
      else begin
        (* Case (b): some transactions never reached the log. Roll back
           the ones that committed, then re-execute the whole block. *)
        reexecute t ~height:h
          (List.filter_map (fun (txid, _) -> Manager.find t.manager txid) entries)
      end

let recover t =
  match Wal.installing t.wal with
  | Some _ ->
      reset_half_installed t;
      Ok None
  | None -> (
      match interrupted_unlogged_block t with
      | Some txns -> reexecute t ~height:(height t) txns
      | None -> recover_from_ledger t)

(* --- pruning ------------------------------------------------------------------------------ *)

let prune t ?before () =
  let keep (v : Version.t) =
    (not v.Version.xmin_aborted)
    &&
    match before with
    | None -> true
    | Some h -> v.Version.deleter_block > h
  in
  List.fold_left
    (fun acc name ->
      match Catalog.find t.catalog name with
      | Some table when name <> Catalog.ledger_table -> acc + Table.prune table ~keep
      | _ -> acc)
    0 (Catalog.table_names t.catalog)

(* --- state snapshots (DESIGN.md §11) ------------------------------------------------------ *)

module Snapshot = Brdb_snapshot.Snapshot
module Scodec = Brdb_snapshot.Codec

(* The storage layers travel as Snapshot.t proper; the node-layer
   bookkeeping that backs sys.* and the WAL tail rides in named [extra]
   sections, each canonically encoded with the snapshot codec. *)

let status_tag = function
  | S_committed -> "C"
  | S_aborted r -> "A" ^ Txn.abort_reason_encode r
  | S_rejected reason -> "R" ^ reason

let status_of_tag s =
  if String.length s = 0 then Scodec.fail "empty status tag"
  else
    let rest = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'C' when rest = "" -> S_committed
    | 'A' -> (
        match Txn.abort_reason_decode rest with
        | Some r -> S_aborted r
        | None -> Scodec.fail (Printf.sprintf "bad abort reason tag %S" rest))
    | 'R' -> S_rejected rest
    | _ -> Scodec.fail (Printf.sprintf "bad status tag %S" s)

let wal_status_tag = function
  | Wal.Committed -> status_tag S_committed
  | Wal.Aborted r -> status_tag (S_aborted r)

let wal_status_of_tag s =
  match status_of_tag s with
  | S_committed -> Wal.Committed
  | S_aborted r -> Wal.Aborted r
  | S_rejected _ -> Scodec.fail (Printf.sprintf "bad wal status tag %S" s)

let digests_extra t ~height =
  let w = Scodec.writer () in
  Scodec.list w
    (fun w h ->
      Scodec.str w (Option.value (write_set_hash t ~height:h) ~default:""))
    (List.init height succ);
  Scodec.contents w

let decode_digests payload = Scodec.decode payload (fun r -> Scodec.r_list r Scodec.r_str)

let tx_log_extra t ~height =
  let w = Scodec.writer () in
  Scodec.list w
    (fun w (h, r) ->
      Scodec.int w h;
      Scodec.list w
        (fun w rec_ ->
          Scodec.int w rec_.r_pos;
          Scodec.str w rec_.r_gid;
          Scodec.str w rec_.r_user;
          Scodec.str w rec_.r_contract;
          Scodec.str w (status_tag rec_.r_status))
        r.b_txs)
    (records_upto t ~height);
  Scodec.contents w

let decode_tx_log payload =
  Scodec.decode payload (fun r ->
      Scodec.r_list r (fun r ->
          let h = Scodec.r_int r in
          let records =
            Scodec.r_list r (fun r ->
                let r_pos = Scodec.r_int r in
                let r_gid = Scodec.r_str r in
                let r_user = Scodec.r_str r in
                let r_contract = Scodec.r_str r in
                let r_status = status_of_tag (Scodec.r_str r) in
                { r_pos; r_gid; r_user; r_contract; r_status })
          in
          (h, records)))

let wal_extra t ~height =
  let w = Scodec.writer () in
  Scodec.list w
    (fun w (txid, h, status) ->
      Scodec.int w txid;
      Scodec.int w h;
      Scodec.str w (wal_status_tag status))
    (Wal.export t.wal ~above:(height - 4));
  Scodec.contents w

let decode_wal payload =
  Scodec.decode payload (fun r ->
      Scodec.r_list r (fun r ->
          let txid = Scodec.r_int r in
          let h = Scodec.r_int r in
          let status = wal_status_of_tag (Scodec.r_str r) in
          (txid, h, status)))

let export_snapshot t ~compaction =
  bootstrap t;
  let height = height t in
  Snapshot.capture ~catalog:t.catalog ~store:t.store ~contracts:t.contracts
    ~manager:t.manager ~height
    ~state_digest:(Option.value (state_digest t ~height) ~default:Block.genesis_hash)
    ~compaction
    ~extra:
      [
        ("digests", digests_extra t ~height);
        ("txlog", tx_log_extra t ~height);
        ("wal", wal_extra t ~height);
      ]
    ()

let require_extra snap name =
  match Snapshot.find_extra snap name with
  | Some payload -> Ok payload
  | None -> Error (Printf.sprintf "snapshot lacks the %s section" name)

let install_snapshot ?(crash_after_tables = false) t (snap : Snapshot.t) =
  let ( let* ) = Result.bind in
  (* Validate every node-layer section before touching any state. *)
  let* digests = Result.bind (require_extra snap "digests") decode_digests in
  let* tx_log = Result.bind (require_extra snap "txlog") decode_tx_log in
  let* wal_entries = Result.bind (require_extra snap "wal") decode_wal in
  if List.length digests <> snap.Snapshot.height then
    Error "snapshot digest section does not cover every height"
  else
    let chained = List.fold_left chain Block.genesis_hash digests in
    if not (String.equal chained snap.Snapshot.state_digest) then
      Error "snapshot per-block digests do not chain to the claimed state digest"
    else if List.map fst tx_log <> List.init snap.Snapshot.height succ then
      (* One record per height: the txlog names each height once, in order. *)
      Error "snapshot txlog section does not cover every height"
    else begin
      (* The target node must be bootstrapped (sys.* views, native system
         contracts) before the storage swap; install then replaces the
         bootstrap-created tables wholesale. *)
      bootstrap t;
      Wal.begin_install t.wal ~height:snap.Snapshot.height;
      match
        Snapshot.install ~catalog:t.catalog ~store:t.store ~contracts:t.contracts
          ~manager:t.manager ~identities:t.registry snap
      with
      | Error _ as e ->
          (* Phase 1 failed: nothing was mutated, so just drop the guard. *)
          Wal.complete_install t.wal;
          e
      | Ok () when crash_after_tables ->
          (* Test hook: storage swapped, node bookkeeping not — the guard
             stays set, exactly the window §11 recovery must handle. *)
          Ok ()
      | Ok () ->
          forget_records t;
          (* Snapshots carry the per-block roots, not the underlying write
             entries or dependency graphs — installed heights sit below the
             provenance-proof floor (DESIGN.md §16) and have no critical path. *)
          List.iter2
            (fun root (height, txs) -> store_record t ~height ~txs ~root ~tree:None ~cp:None)
            digests tx_log;
          Wal.restore t.wal wal_entries;
          Wal.complete_install t.wal;
          Ok ()
    end

module Testing = struct
  let describe_tx = describe_tx

  (* For the schedule-independence property: commit the block over the
     waves [schedule] picks from its dependency graph instead of the
     default levelization. *)
  let process_block_scheduled t block ~schedule =
    Result.bind (Block.check_hash block) (run ~schedule t)

  (* For the divergence monitor: corrupt this node's recorded write-set
     hash at [height], which poisons the published chained digest from
     [height] onwards — exactly the shape of a real state divergence, so
     SQL bisection over sys.blocks has something to find. Only sys.blocks
     is affected; checkpoints already gossiped are not rewritten. *)
  let tamper_digest t ~height =
    let rec rechain h root_of =
      match record_at t ~height:h with
      | None -> ()
      | Some r ->
          store_record t ~height:h ~txs:r.b_txs ~root:(root_of r.b_root) ~tree:r.b_tree
            ~cp:r.b_cp;
          rechain (h + 1) Fun.id
    in
    rechain height (fun ws -> "tampered:" ^ ws)
end
