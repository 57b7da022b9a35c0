module Msg = Brdb_consensus.Msg
module Block = Brdb_ledger.Block
module Block_store = Brdb_ledger.Block_store
module Checkpoint = Brdb_ledger.Checkpoint
module Snapshot = Brdb_snapshot.Snapshot
module Chunk = Brdb_snapshot.Chunk
module Clock = Brdb_sim.Clock
module Cpu = Brdb_sim.Cpu
module Cost_model = Brdb_sim.Cost_model
module Obs = Brdb_obs.Obs
module Reg = Brdb_obs.Registry
module Trace = Brdb_obs.Trace
module Abort_class = Brdb_obs.Abort_class

type config = {
  core : Node_core.config;
  contract_class_of : string -> Cost_model.contract_class;
  orderer_target : string;
  peer_names : string list;
  forward_delay_mean : float;
  checkpoint_interval : int;
  sync_interval : float;
  snapshot_threshold : int;
  snapshot_chunk_size : int;
  compaction : Snapshot.compaction;
  parallel_validation : bool;
}

(* Every peer charges the calibrated Tables 4/5 cost model. *)
let cost = Cost_model.default

(* Base retry timeout of §3.6 block catch-up and §11 snapshot transfer
   requests (s); each fruitless attempt doubles it, capped at 8x. *)
let fetch_timeout = 0.05

let inbox_window = 64

(* Blocks returned per {!Msg.Fetch_blocks} request. *)
let fetch_batch = 32

(* Outstanding {!Msg.Snapshot_chunk_request}s per source (DESIGN.md §11). *)
let snap_window = 8

(* Blocks of history every compaction pass keeps above the prune horizon:
   covers the §3.6 recovery window (Manager.forget_finished keeps 4) plus
   the EO stale-snapshot lag the middleware forwarding delay can cause. *)
let compaction_margin = 8

(* A retry session of §3.6 block catch-up or §11 snapshot transfer: one
   at a time per kind; [seq] invalidates stale scheduled ticks, each tick
   asks the next source in rotation and doubles [backoff] (capped at 8x
   [fetch_timeout]), and the session gives up after 2x|other peers|
   fruitless attempts. [rotation] persists across sessions. *)
type retry = {
  mutable armed : bool;
  mutable seq : int;
  mutable backoff : float;
  mutable attempts : int;
  mutable rotation : int;
}

let new_retry () =
  { armed = false; seq = 0; backoff = fetch_timeout; attempts = 0; rotation = 0 }

let cancel_retry r =
  r.seq <- r.seq + 1;
  r.armed <- false

(* Fresh attempt budget and a new [seq] (which it returns): a session
   starting, or one whose progress restarts its inactivity timer. *)
let restart_retry r =
  r.seq <- r.seq + 1;
  r.attempts <- 0;
  r.backoff <- fetch_timeout;
  r.seq

let arm_retry r =
  r.armed <- true;
  restart_retry r

let retry_live r seq ~crashed = r.seq = seq && r.armed && not crashed

(* The next source to ask, or [None] once the attempt budget is spent. *)
let next_source r others =
  let n = List.length others in
  if n = 0 || r.attempts >= 2 * n then None
  else begin
    let dst = List.nth others (r.rotation mod n) in
    r.rotation <- r.rotation + 1;
    r.attempts <- r.attempts + 1;
    Some dst
  end

(* Schedule [tick] after the current backoff, then double the backoff. *)
let schedule_retry r clock tick =
  let delay = r.backoff in
  r.backoff <- Float.min (r.backoff *. 2.) (fetch_timeout *. 8.);
  Clock.schedule clock ~delay tick

(* One snapshot install — a row of sys.snapshots. *)
type snap_install = {
  si_height : int;
  si_chunks : int;
  si_bytes : int;
  si_root : string;
  si_source : string;
  si_duration : float;
}

(* One wave-validated block — a row of sys.validation (ISSUE 8).
   Node-local, cost-model-derived timing (s); never enters digests. *)
type wave_report = {
  wr_height : int;
  wr_txs : int;
  wr_waves : int;
  wr_serial_bet : float;
  wr_bet : float;
  wr_occupancy : float;
}

type t = {
  config : config;
  net : Msg.Net.net;
  clock : Clock.t;
  rng : Brdb_sim.Rng.t;
  cpu : Cpu.t;
  core : Node_core.t;
  obs : Obs.t;
  checkpoints : Checkpoint.t;
  (* admitted blocks waiting their turn (height -> checked block) *)
  inbox : (int, Block.checked) Hashtbl.t;
  (* EO transactions whose snapshot is above our height *)
  mutable deferred : Block.tx list;
  mutable listeners : (tx_id:string -> status:Node_core.tx_status -> unit) list;
  mutable crashed : bool;
  mutable processing : bool;
  (* write-set hashes accumulated since the last checkpoint *)
  mutable pending_hashes : string list;
  (* §3.6 catch-up: highest block height evidenced anywhere in the
     cluster (deliveries, fetch replies, checkpoint gossip) *)
  mutable known_height : int;
  fetch : retry;
  (* a crash point to inject into the next block (§3.6 testing) *)
  mutable pending_crash : Node_core.crash_point option;
  (* executor counter values already pushed to the registry, so each
     [finish_block] publishes only the delta since the last one *)
  mutable exec_published : (string * int) list;
  (* §11 snapshot bootstrap: one transfer session at a time *)
  snap : retry;
  mutable snap_manifest : Chunk.manifest option;
  (* verified chunk payloads of the active transfer, by index *)
  mutable snap_parts : string option array;
  mutable snap_received : int;
  mutable snap_next_req : int;
  mutable snap_src : string;
  mutable snap_started : float;
  (* installs performed, newest first *)
  mutable snap_log : snap_install list;
  (* wave-validation log, newest first *)
  mutable val_log : wave_report list;
  (* snapshot served to joining peers, rebuilt when our height moves *)
  mutable serve_cache : (int * Chunk.manifest * Chunk.chunk array) option;
}

let name t = t.config.core.Node_core.name

let core t = t.core

let obs t = t.obs

let reg t = Obs.metrics t.obs

let tracer t = Obs.trace t.obs

(* registry shorthands: every metric this peer records is keyed by its
   own node name, giving the per-node view for free *)
let mincr ?by t m = Reg.incr ?by (reg t) ~node:(name t) m

let mobserve t m v = Reg.observe (reg t) ~node:(name t) m v

let checkpoints t = t.checkpoints

let mcounter t m = Reg.counter (reg t) ~node:(name t) m

let fetch_requests t = mcounter t "fetch.requests"

let fetched_blocks t = mcounter t "fetch.blocks"

let blocks_rejected t = mcounter t "block.rejected"

let inbox_size t = Hashtbl.length t.inbox

let snapshots_installed t = List.length t.snap_log

let is_crashed t = t.crashed

let on_final t f = t.listeners <- f :: t.listeners

let notify t tx_id status =
  List.iter (fun f -> f ~tx_id ~status) t.listeners

let other_peers t =
  List.filter (fun p -> not (String.equal p (name t))) t.config.peer_names

let send t dst msg =
  ignore (Msg.Net.send t.net ~src:(name t) ~dst ~size_bytes:(Msg.size msg) msg)

let tet_of t (tx : Block.tx) =
  Cost_model.tet cost (t.config.contract_class_of tx.Block.tx_contract)

(* --- EO execution phase -------------------------------------------------- *)

let try_pre_execute t (tx : Block.tx) =
  match Node_core.pre_execute t.core tx with
  | Ok () ->
      let active = Brdb_txn.Manager.pending_count (Node_core.manager t.core) in
      let tet = Cost_model.eo_tet cost ~tet:(tet_of t tx) ~active in
      mincr t "eo.pre_executed";
      mobserve t "phase.tet_ms" (tet *. 1000.);
      `Executed
  | Error "snapshot height not reached yet" -> `Defer
  | Error reason -> `Rejected reason

let handle_client_tx t ~src (tx : Block.tx) =
  if t.config.core.Node_core.flow = Node_core.Execute_order then begin
    let from_client = not (List.mem src t.config.peer_names) in
    (match try_pre_execute t tx with
    | `Executed | `Rejected _ -> ()
    | `Defer ->
        mincr t "eo.deferred";
        t.deferred <- tx :: t.deferred);
    (* The entry peer forwards to the other peers and the ordering
       service in the background (§3.4.1). Replication to peers goes
       through the middleware queue, whose delay is what makes some
       transactions arrive after their block (the mt metric). *)
    if from_client then begin
      send t t.config.orderer_target (Msg.Client_tx tx);
      List.iter
        (fun p ->
          let delay =
            if t.config.forward_delay_mean <= 0. then 0.
            else Brdb_sim.Rng.exponential t.rng ~mean:t.config.forward_delay_mean
          in
          Clock.schedule t.clock ~delay (fun () -> send t p (Msg.Client_tx tx)))
        (other_peers t)
    end
  end

let drain_deferred t =
  let pending = List.rev t.deferred in
  t.deferred <- [];
  List.iter
    (fun tx ->
      match try_pre_execute t tx with
      | `Executed | `Rejected _ -> ()
      | `Defer -> t.deferred <- tx :: t.deferred)
    pending

(* --- §3.6 catch-up: fetch missed blocks from other peers ------------------ *)

let note_height t h = if h > t.known_height then t.known_height <- h

(* There is evidence of a block we neither hold nor have buffered. *)
let needs_fetch t =
  t.known_height > Node_core.height t.core
  && not (Hashtbl.mem t.inbox (Node_core.height t.core + 1))

let cancel_fetch t = cancel_retry t.fetch

let reset_fetch t =
  cancel_fetch t;
  t.fetch.backoff <- fetch_timeout;
  t.fetch.attempts <- 0

(* One retry tick of the active fetch session: ask a rotating source peer
   for everything above our height, then re-arm with exponential backoff.
   The session ends when a reply brings progress (see
   [handle_blocks_reply]), when the gap closes by itself, or after
   2x|other peers| fruitless attempts (new evidence re-arms it). *)
let rec fetch_tick t seq ~blind =
  if retry_live t.fetch seq ~crashed:t.crashed then begin
    if (blind && t.fetch.attempts = 0) || needs_fetch t then begin
      match next_source t.fetch (other_peers t) with
      | None -> t.fetch.armed <- false
      | Some dst ->
          mincr t "fetch.requests";
          Trace.instant (tracer t) ~node:(name t) ~track:"fetch" ~cat:"fetch"
            ~name:"fetch.request"
            ~args:
              [
                ("dst", Trace.S dst);
                ("from", Trace.I (Node_core.height t.core + 1));
                ("attempt", Trace.I t.fetch.attempts);
                ("backoff_s", Trace.F t.fetch.backoff);
              ]
            ();
          send t dst (Msg.Fetch_blocks { from_height = Node_core.height t.core + 1 });
          schedule_retry t.fetch t.clock (fun () -> fetch_tick t seq ~blind)
    end
    else t.fetch.armed <- false
  end

(* Start a fetch session. [blind] probes once even without evidence of a
   missed block (restart / periodic anti-entropy); [delay] defers the
   first tick so in-flight deliveries can close the gap silently. *)
let arm_fetch ?(blind = false) ?(delay = 0.) t =
  if (not t.fetch.armed) && not t.crashed then begin
    let seq = arm_retry t.fetch in
    if delay <= 0. then fetch_tick t seq ~blind
    else Clock.schedule t.clock ~delay (fun () -> fetch_tick t seq ~blind)
  end

(* --- §4.4 authenticated block delivery ------------------------------------ *)

(* A block is admitted into the inbox only if {!Block.check} accepts it
   (hash and orderer signatures), and if no differently-hashed valid block
   already occupies the height — in the store or in the inbox
   (equivocation: keep the first admitted block). Append reuses the
   checked value; it re-checks only the signatures (the signer may have
   been revoked meanwhile) and the chain. A rejection is evidence the
   delivering link is tampering or the source equivocating, so catch-up
   is armed to pull the height from a rotating honest source (§3.6). *)
let reject_block t ~why =
  mincr t "block.rejected";
  mincr t ("block.rejected." ^ why);
  Trace.instant (tracer t) ~node:(name t) ~track:"block" ~cat:"chaos"
    ~name:"block.rejected"
    ~args:[ ("why", Trace.S why) ]
    ();
  arm_fetch t ~blind:true ~delay:fetch_timeout

let admit_block t (block : Block.t) =
  match Block.check (Node_core.identity_registry t.core) block with
  | Error _ ->
      reject_block t ~why:"auth";
      None
  | Ok checked -> (
      let held =
        match Hashtbl.find_opt t.inbox block.Block.height with
        | Some c -> Some c.Block.block
        | None -> Block_store.get (Node_core.block_store t.core) block.Block.height
      in
      match held with
      | Some held when not (String.equal held.Block.hash block.Block.hash) ->
          reject_block t ~why:"equivocation";
          None
      | _ -> Some checked)

(* --- §11 snapshot bootstrap: session management --------------------------- *)

(* The catch-up path a height gap takes: chunked state transfer only when
   snapshots are enabled and the gap strictly exceeds the threshold; a gap
   equal to the threshold replays blocks. *)
let snapshot_decision t ~gap =
  if t.config.snapshot_threshold > 0 && gap > t.config.snapshot_threshold then
    `Snapshot
  else `Replay

let wants_snapshot t =
  snapshot_decision t ~gap:(t.known_height - Node_core.height t.core)
  = `Snapshot

let cancel_snapshot t =
  cancel_retry t.snap;
  t.snap_manifest <- None;
  t.snap_parts <- [||];
  t.snap_received <- 0;
  t.snap_next_req <- 0

(* One retry tick: before the manifest arrives, ask a rotating source for
   one; after it, re-request a window of still-missing chunks (same
   rotation — a source that keeps sending corrupt or no chunks is walked
   away from). Chunk progress restarts the timer ([snap_progress]); after
   2x|other peers| fruitless ticks the session gives up and falls back to
   block replay, which always converges. *)
let rec snap_tick t seq =
  if retry_live t.snap seq ~crashed:t.crashed then begin
    match next_source t.snap (other_peers t) with
    | None ->
        cancel_snapshot t;
        mincr t "snapshot.sessions_failed";
        arm_fetch t ~blind:true
    | Some dst ->
        t.snap_src <- dst;
        (match t.snap_manifest with
        | None ->
            mincr t "snapshot.requests";
            Trace.instant (tracer t) ~node:(name t) ~track:"snapshot"
              ~cat:"snapshot" ~name:"snapshot.request"
              ~args:
                [ ("dst", Trace.S dst); ("attempt", Trace.I t.snap.attempts) ]
              ();
            send t dst
              (Msg.Snapshot_request { min_height = Node_core.height t.core + 1 })
        | Some m ->
            let h = m.Chunk.m_height in
            let resent = ref 0 in
            Array.iteri
              (fun index part ->
                if part = None && !resent < snap_window then begin
                  incr resent;
                  send t dst (Msg.Snapshot_chunk_request { height = h; index })
                end)
              t.snap_parts;
            if !resent > 0 then mincr t "snapshot.chunks_retried" ~by:!resent);
        schedule_retry t.snap t.clock (fun () -> snap_tick t seq)
  end

(* Progress arrived: reset the attempt budget and restart the inactivity
   timer (the pending tick is invalidated through its [seq]). *)
let snap_progress t =
  let seq = restart_retry t.snap in
  Clock.schedule t.clock ~delay:t.snap.backoff (fun () -> snap_tick t seq)

let arm_snapshot t =
  if
    (not t.snap.armed) && (not t.crashed) && t.config.snapshot_threshold > 0
  then begin
    (* the snapshot covers everything a block fetch would bring *)
    cancel_fetch t;
    let seq = arm_retry t.snap in
    t.snap_manifest <- None;
    t.snap_parts <- [||];
    t.snap_received <- 0;
    t.snap_next_req <- 0;
    t.snap_started <- Clock.now t.clock;
    mincr t "snapshot.sessions";
    snap_tick t seq
  end

let maybe_arm_fetch t =
  if wants_snapshot t then arm_snapshot t
  else if needs_fetch t then arm_fetch t ~delay:fetch_timeout

(* Serve a catch-up request from our block store (bounded batch). *)
let serve_fetch t ~src ~from_height =
  let store = Node_core.block_store t.core in
  let top = Block_store.height store in
  if from_height >= 1 && top >= from_height && List.mem src t.config.peer_names
  then begin
    let upto = min top (from_height + fetch_batch - 1) in
    let rec collect h acc =
      if h < from_height then acc
      else
        match Block_store.get store h with
        | Some b -> collect (h - 1) (b :: acc)
        | None -> acc
    in
    match collect upto [] with
    | [] -> ()
    | blocks ->
        mincr t "fetch.served" ~by:(List.length blocks);
        send t src (Msg.Blocks_reply { blocks })
  end

(* --- block pipeline ------------------------------------------------------- *)

let block_times t (block : Block.t) ~missing =
  let n = List.length block.Block.txs in
  let tet_avg =
    match block.Block.txs with
    | [] -> 0.
    | txs ->
        List.fold_left (fun acc tx -> acc +. tet_of t tx) 0. txs
        /. float_of_int (List.length txs)
  in
  let auth = float_of_int n *. cost.Cost_model.auth_cost in
  match t.config.core.Node_core.flow with
  | Node_core.Order_execute ->
      let bet = Cost_model.oe_bet cost ~n ~tet:tet_avg +. auth in
      let bct = Cost_model.oe_bct cost ~n in
      (bet, bct)
  | Node_core.Execute_order ->
      let bet = Cost_model.eo_bet cost ~n ~missing ~tet:tet_avg in
      let bct = Cost_model.eo_bct cost ~n in
      (bet, bct)
  | Node_core.Serial_baseline ->
      let bpt = Cost_model.serial_bpt cost ~n ~tet:tet_avg +. auth in
      (bpt, 0.)

(* Per-position wave-execution costs (ISSUE 8, DESIGN.md §14): under wave
   scheduling the whole per-transaction validation pipeline — signature
   check, backend dispatch / commit-entry check, contract execution — runs
   on the assigned core, so the closed-form model's serial n*oe_start /
   n*eo_check prefixes move into the per-position job. Positions that never
   ran (rejects) cost nothing; EO positions validated but not re-executed
   cost only the check. *)
let wave_job_costs t (block : Block.t) (result : Node_core.block_result) =
  let fresh = result.Node_core.br_fresh in
  let statuses = Array.of_list result.Node_core.br_statuses in
  let flow = t.config.core.Node_core.flow in
  Array.of_list
    (List.mapi
       (fun i tx ->
         let run =
           i < Array.length statuses
           &&
           match snd statuses.(i) with
           | Node_core.S_rejected _ -> false
           | _ -> true
         in
         let freshly = i < Array.length fresh && fresh.(i) in
         match flow with
         | Node_core.Order_execute ->
             if freshly then
               cost.Cost_model.auth_cost +. cost.Cost_model.oe_start
               +. tet_of t tx
             else 0.
         | Node_core.Execute_order ->
             (if run then cost.Cost_model.eo_check else 0.)
             +. (if freshly then tet_of t tx else 0.)
         | Node_core.Serial_baseline -> 0.)
       block.Block.txs)

(* Republish the node's cumulative executor counters (rows produced and
   versions visited per operator kind) as registry counters. Counters are
   monotone, so only the delta since the last publication is added. *)
let publish_exec_totals t =
  let s = Node_core.exec_totals t.core in
  let sum_by_op entries =
    List.fold_left
      (fun acc (op, _table, n) ->
        match List.assoc_opt op acc with
        | Some m -> (op, m + n) :: List.remove_assoc op acc
        | None -> (op, n) :: acc)
      [] entries
  in
  let totals =
    List.map (fun (op, n) -> ("exec.rows." ^ op, n))
      (sum_by_op (Brdb_engine.Exec.scan_counts s))
    @ List.map (fun (op, n) -> ("exec.visited." ^ op, n))
        (sum_by_op (Brdb_engine.Exec.visited_counts s))
  in
  List.iter
    (fun (metric, total) ->
      let published =
        Option.value (List.assoc_opt metric t.exec_published) ~default:0
      in
      if total > published then mincr t metric ~by:(total - published))
    totals;
  t.exec_published <- totals

(* Post-block bookkeeping shared by the normal completion path and the
   recovery path ({!restart} re-accounting a §3.6 repaired block):
   client notifications, abort metrics, checkpointing, deferred EO txs. *)
let finish_block t (result : Node_core.block_result) =
  publish_exec_totals t;
  let tr = tracer t in
  let node = name t in
  List.iter
    (fun (tx_id, status) ->
      (* Per-node abort taxonomy (§3.4/Table 2): the class is node-local —
         only the decision must match across nodes (checked by Chaos). *)
      (match status with
      | Node_core.S_committed -> mincr t "txn.committed"
      | Node_core.S_aborted r ->
          mincr t "txn.aborted";
          mincr t ("txn.aborted." ^ Abort_class.to_string (Abort_class.of_reason r))
      | Node_core.S_rejected _ -> mincr t "txn.rejected");
      if Trace.enabled tr then begin
        let height = result.Node_core.br_height in
        (* Causal edges: validation happens inside the block's execute
           phase, the decision inside its commit phase; both follow from
           the transaction's submit span. The abort class/reason args are
           node-local and stripped by Export's causal projection. *)
        let follows = "tx/" ^ tx_id in
        Trace.instant tr ~node ~track:"txn" ~cat:"validate" ~name:"validate"
          ~parent:(Printf.sprintf "exec/%d" height)
          ~follows
          ~args:[ ("tx", Trace.S tx_id); ("height", Trace.I height) ]
          ();
        let parent = Printf.sprintf "commit/%d" height in
        match status with
        | Node_core.S_committed ->
            Trace.instant tr ~node ~track:"txn" ~cat:"commit" ~name:"commit"
              ~parent ~follows
              ~args:[ ("tx", Trace.S tx_id); ("height", Trace.I height) ]
              ()
        | Node_core.S_aborted r ->
            Trace.instant tr ~node ~track:"txn" ~cat:"commit" ~name:"abort"
              ~parent ~follows
              ~args:
                [
                  ("tx", Trace.S tx_id);
                  ("height", Trace.I height);
                  ( "class",
                    Trace.S (Abort_class.to_string (Abort_class.of_reason r)) );
                  ("reason", Trace.S (Brdb_txn.Txn.abort_reason_to_string r));
                ]
              ()
        | Node_core.S_rejected why ->
            Trace.instant tr ~node ~track:"txn" ~cat:"commit" ~name:"reject"
              ~parent ~follows
              ~args:
                [
                  ("tx", Trace.S tx_id);
                  ("height", Trace.I height);
                  ("reason", Trace.S why);
                ]
              ()
      end;
      notify t tx_id status)
    result.Node_core.br_statuses;
  (* Checkpointing phase (§3.3.4): every [checkpoint_interval] blocks,
     gossip the digest of the write-set hashes accumulated since the last
     one. *)
  t.pending_hashes <- result.Node_core.br_write_set_hash :: t.pending_hashes;
  let interval = max 1 t.config.checkpoint_interval in
  if result.Node_core.br_height mod interval = 0 then begin
    let hash = Brdb_crypto.Sha256.digest_concat (List.rev t.pending_hashes) in
    t.pending_hashes <- [];
    Checkpoint.record_local t.checkpoints ~height:result.Node_core.br_height
      ~hash;
    if not t.crashed then
      List.iter
        (fun p ->
          send t p
            (Msg.Checkpoint_hash { height = result.Node_core.br_height; hash }))
        (other_peers t);
    (* Version-chain compaction (§11): in pruned mode, once a checkpoint
       is durable, drop version chains dead well below it. The margin
       keeps everything §3.6 recovery and lagging EO snapshots read. *)
    if t.config.compaction = Snapshot.Pruned then begin
      let before = result.Node_core.br_height - compaction_margin in
      if before > 0 then begin
        let removed = Node_core.prune t.core ~before () in
        if removed > 0 then mincr t "compaction.pruned" ~by:removed
      end
    end
  end;
  drain_deferred t

let do_crash t =
  t.crashed <- true;
  t.pending_crash <- None;
  cancel_fetch t;
  cancel_snapshot t;
  mincr t "node.crashes";
  Trace.instant (tracer t) ~node:(name t) ~track:"lifecycle" ~cat:"chaos"
    ~name:"crash" ();
  Msg.Net.unregister t.net ~name:(name t)

let rec process_ready t =
  if not t.processing then
    let next = Node_core.height t.core + 1 in
    match Hashtbl.find_opt t.inbox next with
    | None -> ()
    | Some ({ Block.block; _ } as checked) -> (
        Hashtbl.remove t.inbox next;
        match t.pending_crash with
        | Some point ->
            (* §3.6: append the block and begin processing, then die at the
               injected point; {!restart} rolls back and re-executes. *)
            t.pending_crash <- None;
            Node_core.process_block_with_crash t.core checked ~crash:point;
            do_crash t
        | None -> (
            t.processing <- true;
            (* Semantic processing happens now; the result is announced
               after the modelled processing time has elapsed. *)
            match Node_core.process_checked t.core checked with
            | Error _ ->
                (* A block that passed admission but fails append (broken
                   hash chain against the stored predecessor, or an
                   orderer key revoked since admission): drop it, count
                   it, and re-fetch the height from an honest source. *)
                t.processing <- false;
                mincr t "block.rejected";
                mincr t "block.rejected.chain";
                process_ready t;
                if not t.crashed then
                  arm_fetch t ~blind:true ~delay:fetch_timeout
            | Ok result ->
                let serial_bet, bct =
                  block_times t block ~missing:result.Node_core.br_missing
                in
                let block_const = cost.Cost_model.block_const in
                if t.config.core.Node_core.flow = Node_core.Order_execute then
                  List.iter
                    (fun tx ->
                      mobserve t "phase.tet_ms" (tet_of t tx *. 1000.))
                    block.Block.txs;
                let complete ~bpt ~bet () =
                    t.processing <- false;
                    mincr t "block.processed";
                    (* EO only (§3.4.1): counted when non-zero so OE
                       nodes' sys.metrics gains no row *)
                    if result.Node_core.br_missing > 0 then
                      mincr ~by:result.Node_core.br_missing t
                        "block.missing_txs";
                    mobserve t "phase.bpt_ms" (bpt *. 1000.);
                    mobserve t "phase.bet_ms" (bet *. 1000.);
                    mobserve t "phase.bct_ms" (bct *. 1000.);
                    mobserve t "block.size"
                      (float_of_int (List.length block.Block.txs));
                    let tr = tracer t in
                    (if Trace.enabled tr then
                       (* the block completes now; its phases are
                          back-dated by their modelled costs (§5: bpt =
                          const + bet + bct) *)
                       let h = result.Node_core.br_height in
                       let ts0 = Clock.now t.clock -. bpt in
                       let const = cost.Cost_model.block_const in
                       let node = name t in
                       let block_span = Printf.sprintf "block/%d" h in
                       Trace.complete tr ~node ~track:"block" ~cat:"block"
                         ~name:(Printf.sprintf "block %d" h)
                         ~ts:ts0 ~dur:bpt ~span:block_span
                         ~parent:(Printf.sprintf "order/%d" h)
                         ~args:
                           [
                             ("height", Trace.I h);
                             ("txs", Trace.I (List.length block.Block.txs));
                             ("missing", Trace.I result.Node_core.br_missing);
                           ]
                         ();
                       Trace.complete tr ~node ~track:"block" ~cat:"execute"
                         ~name:"execute" ~ts:(ts0 +. const) ~dur:bet
                         ~span:(Printf.sprintf "exec/%d" h)
                         ~parent:block_span
                         ~args:[ ("height", Trace.I h) ]
                         ();
                       Trace.complete tr ~node ~track:"block" ~cat:"commit"
                         ~name:"commit"
                         ~ts:(ts0 +. const +. bet)
                         ~dur:bct
                         ~span:(Printf.sprintf "commit/%d" h)
                         ~parent:block_span
                         ~args:[ ("height", Trace.I h) ]
                         ());
                    finish_block t result;
                    if not t.crashed then begin
                      process_ready t;
                      (* still behind after draining the inbox: keep the
                         catch-up session going *)
                      if needs_fetch t then arm_fetch t
                    end
                in
                let n = List.length block.Block.txs in
                let use_waves =
                  t.config.parallel_validation
                  && t.config.core.Node_core.flow <> Node_core.Serial_baseline
                  && Array.length result.Node_core.br_waves = n
                in
                if use_waves then
                  (* Wave-scheduled timing (ISSUE 8): execution occupies
                     the simulated cores wave by wave; only the block
                     constant and the commit tail stay serial. *)
                  Cpu.run_waves t.cpu ~head:block_const ~tail:bct
                    ~waves:result.Node_core.br_waves
                    ~costs:(wave_job_costs t block result)
                    (fun stats ->
                      let bet = stats.Cpu.exec_elapsed in
                      let bpt = block_const +. bet +. bct in
                      let cores = Cpu.cores t.cpu in
                      let occupancy =
                        if bet > 0. && cores > 0 then
                          stats.Cpu.exec_busy /. (bet *. float_of_int cores)
                        else 1.
                      in
                      let speedup =
                        if bet > 0. then serial_bet /. bet else 1.
                      in
                      mincr t "validation.blocks";
                      mobserve t "validation.waves"
                        (float_of_int stats.Cpu.wave_count);
                      mobserve t "validation.occupancy" occupancy;
                      mobserve t "validation.speedup" speedup;
                      t.val_log <-
                        {
                          wr_height = result.Node_core.br_height;
                          wr_txs = n;
                          wr_waves = stats.Cpu.wave_count;
                          wr_serial_bet = serial_bet;
                          wr_bet = bet;
                          wr_occupancy = occupancy;
                        }
                        :: t.val_log;
                      complete ~bpt ~bet ())
                else
                  let bet = serial_bet in
                  let bpt = block_const +. bet +. bct in
                  Cpu.run t.cpu ~cost:bpt (fun () -> complete ~bpt ~bet ())))

let block_is_new t (block : Block.t) =
  let next = Node_core.height t.core + 1 in
  block.Block.height >= next
  (* bounded inbox: blocks beyond the reorder window are not buffered —
     catch-up re-fetches them once the gap closes *)
  && block.Block.height < next + inbox_window
  && not (Hashtbl.mem t.inbox block.Block.height)

(* A delivered or fetched block: [None] when admission refuses it,
   [Some true] when it entered the inbox (counted under [counter]). *)
let receive_block t (block : Block.t) ~counter =
  Option.map
    (fun checked ->
      note_height t block.Block.height;
      let fresh = block_is_new t block in
      if fresh then begin
        mincr t counter;
        Hashtbl.replace t.inbox block.Block.height checked
      end;
      fresh)
    (admit_block t block)

let handle_blocks_reply t blocks =
  let progress = ref false in
  List.iter
    (fun b ->
      if receive_block t b ~counter:"fetch.blocks" = Some true then progress := true)
    blocks;
  if !progress then begin
    Trace.instant (tracer t) ~node:(name t) ~track:"fetch" ~cat:"fetch"
      ~name:"fetch.reply"
      ~args:[ ("blocks", Trace.I (List.length blocks)) ]
      ();
    (* the source answered: end the session (completion re-arms if the
       store is still behind) *)
    reset_fetch t;
    (* The reply may be the first evidence of how far behind we really
       are (a restarting peer's blind probe): a revealed gap strictly
       beyond the snapshot threshold switches to snapshot bootstrap —
       the install supersedes the blocks just buffered (§11). *)
    if wants_snapshot t then arm_snapshot t
    else begin
      process_ready t;
      (* A full batch means the source's store may extend past what the
         batch bound let it send — and on a quiet network nothing else
         will reveal the remainder. Probe again (deferred so the batch
         just buffered can be processed first); an empty-handed probe
         disarms after one tick. *)
      if List.length blocks >= fetch_batch && not (needs_fetch t) then
        arm_fetch t ~blind:true ~delay:fetch_timeout
    end
  end

(* --- §11 snapshot bootstrap: serving and transfer ------------------------- *)

(* The snapshot a peer serves is always of its current height; it is
   captured once, chunked, and cached until the height moves. Capture is
   deterministic, so two honest peers at the same height serve manifests
   with the same binding and interchangeable chunks. *)
let build_serve_cache t =
  let h = Node_core.height t.core in
  match t.serve_cache with
  | Some (ch, m, chunks) when ch = h -> Some (m, chunks)
  | _ ->
      if h < 1 then None
      else begin
        let snap =
          Node_core.export_snapshot t.core ~compaction:t.config.compaction
        in
        let payload = Snapshot.encode snap in
        let chunks =
          Chunk.split ~chunk_size:t.config.snapshot_chunk_size payload
        in
        let m =
          Chunk.manifest_of_chunks ~height:h
            ~state_digest:snap.Snapshot.state_digest
            ~chunk_size:t.config.snapshot_chunk_size
            ~total_bytes:(String.length payload) chunks
        in
        t.serve_cache <- Some (h, m, chunks);
        Some (m, chunks)
      end

let serve_snapshot_request t ~src ~min_height =
  if List.mem src t.config.peer_names && Node_core.height t.core >= min_height
  then
    match build_serve_cache t with
    | None -> ()
    | Some (m, _) ->
        mincr t "snapshot.served";
        send t src (Msg.Snapshot_manifest { manifest = m })

let serve_snapshot_chunk t ~src ~height ~index =
  if List.mem src t.config.peer_names then
    let cached =
      match t.serve_cache with
      | Some (ch, m, chunks) when ch = height -> Some (m, chunks)
      | _ ->
          (* cache evicted (or never built) but we are still at that
             height: rebuild; otherwise stay silent — the requester's
             timeout rotates it to another source *)
          if Node_core.height t.core = height then build_serve_cache t
          else None
    in
    match cached with
    | Some (_, chunks) when index >= 0 && index < Array.length chunks ->
        mincr t "snapshot.chunks_served";
        send t src (Msg.Snapshot_chunk { height; chunk = chunks.(index) })
    | _ -> ()

(* Local modelled cost of verifying + installing an assembled snapshot;
   deliberately outside {!Cost_model} (whose constants are calibrated
   against the paper's Tables 4/5): a small constant plus a per-byte
   deserialize/index-rebuild term. *)
let snapshot_install_cost ~bytes = 0.005 +. (1e-8 *. float_of_int bytes)

(* All chunks verified: assemble, decode, install under the WAL guard,
   then rebuild the node-layer gossip state (checkpoints, pending hashes)
   exactly as block-by-block replay would have, and switch to normal
   block catch-up for anything above the snapshot height. *)
let finish_snapshot t (m : Chunk.manifest) =
  let parts = t.snap_parts and src = t.snap_src and started = t.snap_started in
  cancel_snapshot t;
  match Chunk.assemble m parts with
  | Error e ->
      mincr t "snapshot.install_failed";
      Logs.warn (fun f ->
          f "snapshot assembly failed on %s: %s" (name t) e);
      arm_fetch t ~blind:true
  | Ok payload ->
      Cpu.run t.cpu
        ~cost:(snapshot_install_cost ~bytes:m.Chunk.m_total_bytes)
        (fun () ->
          let install () =
            match Snapshot.decode payload with
            | Error _ as e -> e
            | Ok snap ->
                if
                  snap.Snapshot.height <> m.Chunk.m_height
                  || not
                       (String.equal snap.Snapshot.state_digest
                          m.Chunk.m_state_digest)
                then Error "assembled snapshot does not match its manifest"
                else Node_core.install_snapshot t.core snap
          in
          match install () with
          | Error e ->
              mincr t "snapshot.install_failed";
              Logs.warn (fun f ->
                  f "snapshot install failed on %s: %s" (name t) e);
              if not t.crashed then arm_fetch t ~blind:true
          | Ok () ->
              let h = m.Chunk.m_height in
              note_height t h;
              (* Recreate the checkpoint record replay would have built:
                 one local hash per full interval, and the write-set
                 hashes of the partial interval above the last boundary. *)
              let ws hh =
                Option.value
                  (Node_core.write_set_hash t.core ~height:hh)
                  ~default:""
              in
              let interval = max 1 t.config.checkpoint_interval in
              let boundary = ref interval in
              while !boundary <= h do
                let hash =
                  Brdb_crypto.Sha256.digest_concat
                    (List.init interval (fun i ->
                         ws (!boundary - interval + 1 + i)))
                in
                Checkpoint.record_local t.checkpoints ~height:!boundary ~hash;
                boundary := !boundary + interval
              done;
              t.pending_hashes <- [];
              for hh = (h / interval * interval) + 1 to h do
                t.pending_hashes <- ws hh :: t.pending_hashes
              done;
              (* buffered blocks the snapshot already covers are stale *)
              let stale =
                Hashtbl.fold
                  (fun hh _ acc -> if hh <= h then hh :: acc else acc)
                  t.inbox []
              in
              List.iter (Hashtbl.remove t.inbox) stale;
              mincr t "snapshot.installed";
              let duration = Clock.now t.clock -. started in
              t.snap_log <-
                {
                  si_height = h;
                  si_chunks = Chunk.chunk_count m;
                  si_bytes = m.Chunk.m_total_bytes;
                  si_root = m.Chunk.m_root;
                  si_source = src;
                  si_duration = duration;
                }
                :: t.snap_log;
              Trace.instant (tracer t) ~node:(name t) ~track:"snapshot"
                ~cat:"snapshot" ~name:"snapshot.installed"
                ~args:
                  [
                    ("height", Trace.I h);
                    ("chunks", Trace.I (Chunk.chunk_count m));
                    ("bytes", Trace.I m.Chunk.m_total_bytes);
                    ("src", Trace.S src);
                    ("duration_s", Trace.F duration);
                  ]
                ();
              if not t.crashed then begin
                drain_deferred t;
                process_ready t;
                if needs_fetch t then arm_fetch t
              end)

let handle_snapshot_manifest t ~src (m : Chunk.manifest) =
  if t.snap.armed && t.snap_manifest = None then begin
    if not (Chunk.verify_manifest m) then
      mincr t "snapshot.manifests_rejected"
    else if m.Chunk.m_height <= Node_core.height t.core then begin
      (* nothing to gain over our own state: replay the difference *)
      cancel_snapshot t;
      arm_fetch t ~blind:true
    end
    else begin
      mincr t "snapshot.manifests";
      note_height t m.Chunk.m_height;
      t.snap_manifest <- Some m;
      t.snap_parts <- Array.make (Chunk.chunk_count m) None;
      t.snap_received <- 0;
      t.snap_src <- src;
      let w = min snap_window (Chunk.chunk_count m) in
      for index = 0 to w - 1 do
        send t src
          (Msg.Snapshot_chunk_request { height = m.Chunk.m_height; index })
      done;
      t.snap_next_req <- w;
      snap_progress t
    end
  end

let handle_snapshot_chunk t ~src ~height (c : Chunk.chunk) =
  match t.snap_manifest with
  | Some m
    when t.snap.armed
         && height = m.Chunk.m_height
         && c.Chunk.c_index >= 0
         && c.Chunk.c_index < Array.length t.snap_parts
         && t.snap_parts.(c.Chunk.c_index) = None ->
      if not (Chunk.verify_chunk m c) then begin
        (* content address mismatch: corrupted in flight or served by a
           lying peer — reject; the retry tick re-requests it, rotating
           sources on repeated failure *)
        mincr t "snapshot.chunks_corrupted";
        Trace.instant (tracer t) ~node:(name t) ~track:"snapshot"
          ~cat:"snapshot" ~name:"snapshot.corrupt_chunk"
          ~args:[ ("index", Trace.I c.Chunk.c_index); ("src", Trace.S src) ]
          ()
      end
      else begin
        t.snap_parts.(c.Chunk.c_index) <- Some c.Chunk.c_payload;
        t.snap_received <- t.snap_received + 1;
        mincr t "snapshot.chunks";
        if t.snap_received = Array.length t.snap_parts then finish_snapshot t m
        else begin
          (* keep the request pipeline full from the responsive source *)
          t.snap_src <- src;
          if t.snap_next_req < Array.length t.snap_parts then begin
            send t src
              (Msg.Snapshot_chunk_request { height; index = t.snap_next_req });
            t.snap_next_req <- t.snap_next_req + 1
          end;
          snap_progress t
        end
      end
  | _ -> ()

let handle t ~src msg =
  if not t.crashed then
    match msg with
    | Msg.Client_tx tx -> handle_client_tx t ~src tx
    | Msg.Block_deliver block -> (
        match receive_block t block ~counter:"block.received" with
        | None -> ()
        | Some fresh ->
            if fresh then process_ready t;
            maybe_arm_fetch t)
    | Msg.Checkpoint_hash { height; hash } ->
        note_height t height;
        Checkpoint.receive t.checkpoints ~from:src ~height ~hash;
        (* Online divergence monitor (§3.5 item 3): the moment a peer's
           reported checkpoint hash disagrees with ours, raise the metric
           — Chaos then pinpoints the first divergent block by bisecting
           [sys.blocks.state_digest]. *)
        let divergent = Checkpoint.divergent t.checkpoints ~height in
        if divergent <> [] then begin
          mincr t "divergence.detected";
          Trace.instant (tracer t) ~node:(name t) ~track:"checkpoint"
            ~cat:"chaos" ~name:"divergence"
            ~args:
              [
                ("height", Trace.I height);
                ("peers", Trace.S (String.concat "," divergent));
              ]
            ()
        end;
        maybe_arm_fetch t
    | Msg.Fetch_blocks { from_height } -> serve_fetch t ~src ~from_height
    | Msg.Blocks_reply { blocks } -> handle_blocks_reply t blocks
    | Msg.Snapshot_request { min_height } ->
        serve_snapshot_request t ~src ~min_height
    | Msg.Snapshot_manifest { manifest } ->
        handle_snapshot_manifest t ~src manifest
    | Msg.Snapshot_chunk_request { height; index } ->
        serve_snapshot_chunk t ~src ~height ~index
    | Msg.Snapshot_chunk { height; chunk } ->
        handle_snapshot_chunk t ~src ~height chunk
    | _ -> ()

let create ~net ?obs (config : config) ~registry =
  let clock = Msg.Net.clock net in
  let obs = match obs with Some o -> o | None -> Obs.disabled () in
  let core = Node_core.create config.core ~registry in
  Node_core.set_trace core (Obs.trace obs);
  Node_core.bootstrap core;
  let t =
    {
      config;
      net;
      clock;
      obs;
      rng = Brdb_sim.Rng.create ~seed:(Hashtbl.hash config.core.Node_core.name);
      (* Multi-core only under wave timing (and never for the serial
         baseline, where Cpu.run on several cores would wrongly pipeline
         whole blocks): with the flag off the single-core model keeps
         every committed bench number byte-identical. *)
      cpu =
        Cpu.create
          ~cores:
            (if
               config.parallel_validation
               && config.core.Node_core.flow <> Node_core.Serial_baseline
             then cost.Cost_model.cores
             else 1)
          clock;
      core;
      checkpoints =
        Checkpoint.create ~self:config.core.Node_core.name ~peers:config.peer_names;
      inbox = Hashtbl.create 32;
      deferred = [];
      listeners = [];
      crashed = false;
      processing = false;
      pending_hashes = [];
      known_height = 0;
      fetch = new_retry ();
      pending_crash = None;
      exec_published = [];
      snap = new_retry ();
      snap_manifest = None;
      snap_parts = [||];
      snap_received = 0;
      snap_next_req = 0;
      snap_src = "";
      snap_started = 0.;
      snap_log = [];
      val_log = [];
      serve_cache = None;
    }
  in
  Msg.Net.register net ~name:(name t) (fun ~src msg -> handle t ~src msg);
  (* sys.transactions models per-tx execution time with the same cost
     model the simulation charges (tet by contract class). *)
  Node_core.set_tet_model core (fun contract ->
      Cost_model.tet cost (config.contract_class_of contract));
  (* Node-local views — readable by clients, never by contracts (the
     executor refuses sys reads during block processing). *)
  Brdb_storage.Catalog.(
    let cat = Node_core.catalog core in
    (* sys.snapshots: every snapshot bootstrap this node performed
       (DESIGN.md §11), oldest first. *)
    register_virtual cat ~name:"sys.snapshots"
      [
        int ~pk:true "height" (fun i -> i.si_height);
        int "chunks" (fun i -> i.si_chunks);
        int "bytes" (fun i -> i.si_bytes);
        text "merkle_root" (fun i -> i.si_root);
        text "source" (fun i -> i.si_source);
        float "install_s" (fun i -> i.si_duration);
      ]
      (fun ~height:_ -> List.rev t.snap_log);
    (* sys.spans: this node's flame-style span aggregate (ISSUE 7), empty
       when tracing is off. *)
    register_virtual cat ~name:"sys.spans"
      (let module P = Brdb_obs.Profile in
       [
         text ~pk:true "path" (fun (r : P.row) -> r.P.p_path);
         int "depth" (fun r -> r.P.p_depth);
         int "events" (fun r -> r.P.p_events);
         float "total_ms" (fun r -> r.P.p_total_s *. 1000.);
         float "self_ms" (fun r -> r.P.p_self_s *. 1000.);
       ])
      (fun ~height:_ ->
        Brdb_obs.Profile.fold ~node:(name t) (Trace.events (tracer t)));
    (* sys.validation: per-block wave-validation report (ISSUE 8,
       DESIGN.md §14), oldest first; empty unless parallel_validation
       timing is on. speedup = serial bet / wave bet. *)
    register_virtual cat ~name:"sys.validation"
      [
        int ~pk:true "height" (fun w -> w.wr_height);
        int "txs" (fun w -> w.wr_txs);
        int "waves" (fun w -> w.wr_waves);
        float "serial_bet_ms" (fun w -> w.wr_serial_bet *. 1000.);
        float "parallel_bet_ms" (fun w -> w.wr_bet *. 1000.);
        float "occupancy" (fun w -> w.wr_occupancy);
        float "speedup" (fun w ->
            if w.wr_bet > 0. then w.wr_serial_bet /. w.wr_bet else 1.);
      ]
      (fun ~height:_ -> List.rev t.val_log));
  (* Periodic anti-entropy probe: even a peer that missed every delivery
     and every gossip message (total silence) eventually discovers and
     fetches missed blocks. Perpetual — only enable under drivers that
     bound the clock (tests that drain the event queue must leave it 0). *)
  if config.sync_interval > 0. then begin
    let rec sync_loop () =
      Clock.schedule clock ~delay:config.sync_interval (fun () ->
          if not t.crashed then arm_fetch t ~blind:true;
          sync_loop ())
    in
    sync_loop ()
  end;
  t

let crash ?at t =
  match at with None -> do_crash t | Some point -> t.pending_crash <- Some point

let restart t =
  t.crashed <- false;
  t.pending_crash <- None;
  mincr t "node.restarts";
  Trace.instant (tracer t) ~node:(name t) ~track:"lifecycle" ~cat:"chaos"
    ~name:"restart" ();
  (match Node_core.recover t.core with
  | Ok None -> ()
  | Ok (Some result) ->
      (* a §3.6 mid-block crash was repaired (status step completed, or
         rollback + re-execution from the block store): account for the
         block now — its completion callback never ran *)
      finish_block t result
  | Error e -> Logs.warn (fun m -> m "recovery failed on %s: %s" (name t) e));
  Msg.Net.register t.net ~name:(name t) (fun ~src msg -> handle t ~src msg);
  reset_fetch t;
  cancel_snapshot t;
  process_ready t;
  (* Catch up on whatever we missed while down, without waiting for the
     next delivery or gossip message. The restart gap decides the path
     (§11): a gap strictly beyond the snapshot threshold bootstraps from a
     peer snapshot; otherwise (including gap = threshold) replay blocks. *)
  match snapshot_decision t ~gap:(t.known_height - Node_core.height t.core) with
  | `Snapshot -> arm_snapshot t
  | `Replay -> arm_fetch t ~blind:true
