module B = Blockchain_db
module Node_core = Brdb_node.Node_core
module Peer = Brdb_node.Peer
module Msg = Brdb_consensus.Msg
module Block = Brdb_ledger.Block
module Block_store = Brdb_ledger.Block_store
module Checkpoint = Brdb_ledger.Checkpoint
module Network = Brdb_sim.Network
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng
module Value = Brdb_storage.Value
module Sha256 = Brdb_crypto.Sha256
module Service = Brdb_consensus.Service
module Health = Brdb_obs.Health

type spec = {
  seed : int;
  orgs : int;
  flow : Node_core.flow;
  rate : float;
  duration : float;
  block_size : int;
  block_timeout : float;
  drop : float;
  duplicate : float;
  snap_corrupt : float;
      (** probability a snapshot chunk is bit-flipped in flight on
          peer<->peer links (§11 — content addressing must reject it and
          the fetcher must recover by re-requesting / rotating sources) *)
  snapshot_threshold : int;  (** {!Blockchain_db.config.snapshot_threshold} *)
  compaction : Brdb_snapshot.Snapshot.compaction;
  crashes : int;
  partitions : int;
  crash_points : bool;
  tracing : bool;
  ordering : Service.kind;
  n_orderers : int;
  orderer_crashes : int;
      (** crash/restart cycles against the ordering plane: each fires at
          the node currently in charge (Raft leader / BFT primary), so
          elections and view changes are actually exercised *)
  block_tamper : float;
      (** probability a delivered block is tampered in flight on
          orderer->peer links — §4.4 authenticated delivery must reject
          it and the peer must re-fetch from an honest source *)
  client_forge : float;
      (** probability a client submission's Schnorr signature is
          bit-flipped in flight on the client's outgoing links (ISSUE 10
          — forgery): ordering-side batch authentication must drop the
          forged transaction before it reaches a block, and client
          resubmission must eventually land a clean copy *)
  parallel_validation : bool;
      (** {!Blockchain_db.config.parallel_validation}: run the chaos
          workload under multi-core wave timing — every convergence /
          decision-agreement / fingerprint invariant must hold
          unchanged *)
}

let default_spec =
  {
    seed = 1;
    orgs = 3;
    flow = Node_core.Order_execute;
    rate = 150.;
    duration = 1.5;
    block_size = 10;
    block_timeout = 0.05;
    drop = 0.05;
    duplicate = 0.02;
    snap_corrupt = 0.;
    snapshot_threshold = 0;
    compaction = Brdb_snapshot.Snapshot.Archive;
    crashes = 2;
    partitions = 1;
    crash_points = false;
    tracing = false;
    ordering = Service.Solo;
    n_orderers = 1;
    orderer_crashes = 0;
    block_tamper = 0.;
    client_forge = 0.;
    parallel_validation = false;
  }

(* --- fault taxonomy and the fault→alert coverage map (ISSUE 9) -----------
   Every fault class the harness can inject must name the health-plane
   detectors that are expected to notice it. The match below is
   deliberately wildcard-free — adding a fault constructor without a
   coverage entry is a compile error here and a lint error
   (tools/lint.sh) — so new faults cannot ship undetectable. *)

type fault =
  | Message_loss  (** lossy links / healing partitions (drop, partitions) *)
  | Node_crash  (** peer crash/restart cycles *)
  | Orderer_crash  (** ordering-plane crash cycles (Raft/Bft) *)
  | Block_tamper  (** in-flight block mangling on delivery links *)
  | Client_forge  (** client submission signatures mangled in flight *)
  | Snapshot_corruption  (** snapshot chunk payloads mangled in flight *)

let fault_id = function
  | Message_loss -> "message_loss"
  | Node_crash -> "node_crash"
  | Orderer_crash -> "orderer_crash"
  | Block_tamper -> "block_tamper"
  | Client_forge -> "client_forge"
  | Snapshot_corruption -> "snapshot_corruption"

let expected_alerts = function
  | Message_loss -> [ Health.Replication_lag ]
  | Node_crash -> [ Health.Replication_lag ]
  | Orderer_crash -> [ Health.View_change_storm; Health.Ordering_stall ]
  | Block_tamper -> [ Health.Auth_rejection_burst ]
  | Client_forge -> [ Health.Auth_rejection_burst ]
  | Snapshot_corruption -> [ Health.Snapshot_failure ]

(* --- the fault-scenario catalogue -----------------------------------------
   One tuned spec per row of the fault->alert coverage matrix, each
   seeded with that row's base seed. Every row but [snapshot] runs over
   clean links with no other fault, so the row's own fault class is what
   the health plane has to notice. *)

let quiet = { default_spec with drop = 0.; duplicate = 0.; crashes = 0; partitions = 0 }

let orderer_crash_spec ordering n_orderers seed =
  { quiet with seed; ordering; n_orderers; orderer_crashes = 1; rate = 60.; duration = 1.5 }

let scenarios =
  [
    ("partition", Message_loss, { quiet with seed = 2; duration = 2.0; partitions = 1 });
    ("crash", Node_crash, { quiet with seed = 3; duration = 2.0; crashes = 1 });
    ("orderer_raft", Orderer_crash, orderer_crash_spec Service.Raft 3 3);
    ("orderer_bft", Orderer_crash, orderer_crash_spec Service.Bft 4 11);
    ("tamper", Block_tamper, { quiet with seed = 7; block_tamper = 1.0 });
    ( "snapshot",
      Snapshot_corruption,
      (* default loss and two crash cycles: restarted peers fall far
         enough behind to bootstrap from (corrupted) snapshot chunks *)
      {
        default_spec with
        seed = 5;
        duration = 2.0;
        partitions = 0;
        snap_corrupt = 0.6;
        snapshot_threshold = 2;
      } );
  ]

let scenario label =
  match List.find_opt (fun (l, _, _) -> String.equal l label) scenarios with
  | Some (_, _, spec) -> spec
  | None -> invalid_arg ("Chaos.scenario: unknown scenario " ^ label)

let clean_spec seed = { quiet with seed; rate = 100.; duration = 0.5 }

type detection = {
  det_fault : fault;
  det_injected_at : float;  (** sim-time of the first injection *)
  det_injection_height : int;  (** cluster tip height at that moment *)
  det_alert : Health.alert option;
      (** first matching fire at/after the injection; [None] = undetected *)
}

let detection_latency d =
  match d.det_alert with
  | None -> None
  | Some al ->
      Some
        ( al.Health.al_time -. d.det_injected_at,
          al.Health.al_height - d.det_injection_height )

type report = {
  submitted : int;  (** distinct client requests (slots) *)
  resubmitted : int;
  decided : int;
  committed : int;
  heights : (string * int) list;
  converged : bool;
  divergent : string list;
  fingerprint : string;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;  (** payloads the corruption fault actually mangled *)
  snapshots_installed : int;  (** snapshot bootstraps across all peers *)
  chunks_corrupted : int;  (** chunks rejected by content-address checks *)
  loss_percent : float;
  fetch_requests : int;
  fetched_blocks : int;
  crash_cycles : int;
  partition_cycles : int;
  orderer_crash_cycles : int;
  elections : int;  (** Raft elections won across orderer nodes *)
  view_changes : int;  (** max BFT view changes entered by any replica *)
  blocks_rejected : int;
      (** blocks refused by §4.4 authenticated delivery across all peers *)
  forged_rejected : int;
      (** forged client submissions dropped by ordering-side batch
          authentication (ISSUE 10) *)
  decision_mismatches : string list;
  reason_divergences : string list;
  abort_classes : (string * int) list;
  first_divergent_height : int option;
  trace_jsonl : string;
  trace_events : Brdb_obs.Trace.event list;
  alerts : Health.alert list;
      (** the health plane's full alert log for the run (ISSUE 9) *)
  alerts_fired : (string * int) list;
      (** fire transitions per detector id, sorted *)
  alert_stream : string;
      (** canonical byte rendering of the alert log — identical across
          nodes by construction, and across two runs of the same spec *)
  fault_coverage : detection list;
      (** one entry per injected fault class: first matching alert and
          detection latency (the fault→alert coverage matrix) *)
  uncovered_faults : fault list;
      (** injected fault classes no matching alert fired for *)
}

let crash_point_of_int = function
  | 0 -> Node_core.Crash_after_ledger_entries
  | 1 -> Node_core.Crash_mid_commit 1
  | _ -> Node_core.Crash_before_status_step

(* Interleave crash and partition cycles so at most one structural fault
   (down node / split network) is active at any time; continuous message
   loss and duplication run underneath throughout. *)
let rec interleave a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | x :: a', y :: b' -> x :: y :: interleave a' b'

(* --- online divergence monitor: SQL bisection over sys.blocks ------------ *)

let digest_at db ~node ~height =
  match
    B.query db ~node
      ~params:[| Value.Int height |]
      "SELECT state_digest FROM sys.blocks WHERE height = $1"
  with
  | Ok rs -> (
      match rs.Brdb_engine.Exec.rows with
      | [ [| Value.Text d |] ] -> Some d
      | _ -> None)
  | Error _ -> None

let find_divergence db =
  let peers = B.peers db in
  let nodes = List.mapi (fun i _ -> i) peers in
  let top =
    List.fold_left
      (fun acc p -> min acc (Node_core.height (Peer.core p)))
      max_int peers
  in
  if top = max_int || top < 1 then None
  else
    (* The published digest is chained, so disagreement is monotone in
       height: agree below the first divergent block, disagree at it and
       everywhere above. Height 0 (genesis, no sys.blocks row) always
       agrees, establishing the bisection invariant. *)
    let agree h =
      if h = 0 then true
      else
        match List.map (fun i -> digest_at db ~node:i ~height:h) nodes with
        | [] -> true
        | d :: rest -> List.for_all (( = ) d) rest
    in
    if agree top then None
    else begin
      let lo = ref 0 and hi = ref top in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if agree mid then lo := mid else hi := mid
      done;
      Some !hi
    end

let run spec =
  if spec.orgs < 2 then invalid_arg "Chaos.run: need at least two orgs";
  let orgs = List.init spec.orgs (fun i -> Printf.sprintf "org%d" (i + 1)) in
  let config =
    {
      (B.default_config ()) with
      B.orgs;
      flow = spec.flow;
      block_size = spec.block_size;
      block_timeout = spec.block_timeout;
      seed = spec.seed;
      tracing = spec.tracing;
      snapshot_threshold = spec.snapshot_threshold;
      compaction = spec.compaction;
      ordering = spec.ordering;
      n_orderers = spec.n_orderers;
      parallel_validation = spec.parallel_validation;
    }
  in
  let db = B.create config in
  let clock = B.clock db in
  let netw = B.net db in
  let peers = B.peers db in
  let peer_names = List.map Peer.name peers in
  (* Injection ledger for the fault→alert coverage matrix: the first
     sim-time (and cluster tip height) each fault class becomes active.
     Continuous faults record at installation; scheduled faults record
     inside their fire closure. *)
  let tip () =
    List.fold_left
      (fun acc p -> max acc (Node_core.height (Peer.core p)))
      0 peers
  in
  let injections : (fault * float * int) list ref = ref [] in
  let record_injection f =
    if not (List.exists (fun (f', _, _) -> f' = f) !injections) then
      injections := (f, Clock.now clock, tip ()) :: !injections
  in
  (* Per-node decision record: tx_id -> (node, decision, abort class).
     The CLAUDE.md gotcha, now checked: abort *reasons* may legitimately
     differ across nodes, but the commit/abort decision never may. Keep
     the first status each node reports (a §3.6 restart re-accounts its
     repaired block, which must not double-count). *)
  let decisions : (string, (string * string * string) list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun p ->
      let node = Peer.name p in
      Peer.on_final p (fun ~tx_id ~status ->
          let cell =
            match Hashtbl.find_opt decisions tx_id with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.replace decisions tx_id c;
                c
          in
          if not (List.exists (fun (n, _, _) -> String.equal n node) !cell)
          then
            let decision, cls =
              match status with
              | Node_core.S_committed -> ("commit", "")
              | Node_core.S_aborted r ->
                  ( "abort",
                    Brdb_obs.Abort_class.to_string
                      (Brdb_obs.Abort_class.of_reason r) )
              | Node_core.S_rejected _ -> ("reject", "")
            in
            cell := (node, decision, cls) :: !cell))
    peers;
  (* --- schema + workload contract (installed before any fault) ---------- *)
  B.install_contract db ~name:"chaos_setup"
    (Brdb_contracts.Registry.Native
       (fun ctx ->
         ignore
           (Brdb_contracts.Api.execute ctx
              "CREATE TABLE chaos_kv (k INT PRIMARY KEY, v INT)")));
  (match
     B.install_contract_source db ~name:"chaos_put"
       "INSERT INTO chaos_kv VALUES ($1, $2)"
   with
  | Ok () -> ()
  | Error e -> failwith ("chaos contract rejected: " ^ e));
  let admin = B.admin db "org1" in
  let setup = B.submit db ~user:admin ~contract:"chaos_setup" ~args:[] in
  B.settle db;
  (match B.status db setup with
  | Some B.Committed -> ()
  | _ -> failwith "chaos setup block did not commit");
  let user = B.register_user db "chaos/client" in
  (* --- fault schedule (pure function of the spec seed) ------------------ *)
  let rng = Rng.create ~seed:(spec.seed lxor 0x5bd1e995) in
  (* The corruption fault dispatches on message kind: snapshot chunk
     payloads get one bit of the first byte flipped (exactly what the
     per-chunk content addresses (§11) must detect), and — when block
     tampering is on — delivered/fetched blocks get a bit of their hash
     flipped (exactly what §4.4 authenticated delivery must reject).
     Other message kinds pass through untouched. *)
  let flip_first s =
    if String.length s = 0 then s
    else begin
      let p = Bytes.of_string s in
      Bytes.set p 0 (Char.chr (Char.code (Bytes.get p 0) lxor 1));
      Bytes.to_string p
    end
  in
  let tamper_block (b : Block.t) = { b with Block.hash = flip_first b.Block.hash } in
  let forge_sig (g : Brdb_crypto.Schnorr.signature) =
    { g with Brdb_crypto.Schnorr.e = Int64.logxor g.Brdb_crypto.Schnorr.e 1L }
  in
  if spec.snap_corrupt > 0. || spec.block_tamper > 0. || spec.client_forge > 0.
  then
    Msg.Net.set_corrupter netw (function
      | Msg.Snapshot_chunk { height; chunk } when spec.snap_corrupt > 0. ->
          Msg.Snapshot_chunk
            {
              height;
              chunk =
                {
                  chunk with
                  Brdb_snapshot.Chunk.c_payload =
                    flip_first chunk.Brdb_snapshot.Chunk.c_payload;
                };
            }
      | Msg.Block_deliver b when spec.block_tamper > 0. ->
          Msg.Block_deliver (tamper_block b)
      | Msg.Blocks_reply { blocks = b :: rest } when spec.block_tamper > 0. ->
          Msg.Blocks_reply { blocks = tamper_block b :: rest }
      | Msg.Client_tx tx when spec.client_forge > 0. ->
          Msg.Client_tx
            { tx with Block.tx_signature = forge_sig tx.Block.tx_signature }
      | m -> m);
  if spec.snap_corrupt > 0. then record_injection Snapshot_corruption;
  if spec.block_tamper > 0. then record_injection Block_tamper;
  if spec.drop > 0. then record_injection Message_loss;
  if spec.drop > 0. || spec.duplicate > 0. || spec.snap_corrupt > 0. then
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a <> b then
              Msg.Net.set_fault netw ~src:a ~dst:b
                {
                  Network.drop = spec.drop;
                  duplicate = spec.duplicate;
                  corrupt = spec.snap_corrupt;
                })
          peer_names)
      peer_names;
  let svc = B.service db in
  let orderer_names = Service.orderer_names svc in
  (* Block delivery is additionally lossy towards ONE victim peer — on
     EVERY orderer->victim link, whichever orderer happens to cut; every
     other orderer->peer link stays clean, so each block always lands in
     a majority of block stores and stays fetchable (§3.6). *)
  let delivery_victim = List.nth peer_names (Rng.int rng spec.orgs) in
  if spec.drop > 0. then
    List.iter
      (fun orderer ->
        Msg.Net.set_fault netw ~src:orderer ~dst:delivery_victim
          { Network.drop = spec.drop; duplicate = 0.; corrupt = 0. })
      orderer_names;
  (* In-flight block tampering on the orderer->victim links: §4.4
     admission must refuse the mangled block and catch-up must recover
     the height from an honest peer. Like the lossy fault above it
     targets the single victim — orderers do not retain cut blocks, so a
     block mangled towards EVERY peer at once would be gone for good and
     stall the chain; keeping the other links clean keeps every height
     fetchable. *)
  if spec.block_tamper > 0. then
    List.iter
      (fun orderer ->
        Msg.Net.set_fault netw ~src:orderer ~dst:delivery_victim
          {
            Network.drop = spec.drop (* keep the lossy fault installed above *);
            duplicate = 0.;
            corrupt = spec.block_tamper;
          })
      orderer_names;
  (* Forged client submissions (ISSUE 10): flip a signature bit on the
     workload client's outgoing links — towards peers (EO flow) and
     orderers (OE flow) alike. Ordering-side batch authentication must
     drop the forged transaction before any block is cut; the slot is
     recovered by the client resubmission loop below. *)
  if spec.client_forge > 0. then begin
    record_injection Client_forge;
    let client_src = "client/" ^ Brdb_crypto.Identity.name user in
    List.iter
      (fun dst ->
        Msg.Net.set_fault netw ~src:client_src ~dst
          { Network.drop = 0.; duplicate = 0.; corrupt = spec.client_forge })
      (peer_names @ orderer_names)
  end;
  let n_events = spec.crashes + spec.partitions in
  let window = spec.duration /. float_of_int (max 1 n_events) in
  let kinds =
    interleave
      (List.init spec.crashes (fun _ -> `Crash))
      (List.init spec.partitions (fun _ -> `Partition))
  in
  let crash_cycles = ref 0 and partition_cycles = ref 0 in
  List.iteri
    (fun i kind ->
      let start =
        (float_of_int i +. 0.1 +. (0.2 *. Rng.float rng)) *. window
      in
      let stop = (float_of_int i +. 0.7) *. window in
      let victim = List.nth peers (Rng.int rng spec.orgs) in
      match kind with
      | `Crash ->
          incr crash_cycles;
          let point =
            if spec.crash_points then Some (crash_point_of_int (Rng.int rng 3))
            else None
          in
          Clock.schedule clock ~delay:start (fun () ->
              record_injection Node_crash;
              match point with
              | None -> Peer.crash victim
              | Some at -> Peer.crash ~at victim);
          Clock.schedule clock ~delay:stop (fun () -> Peer.restart victim)
      | `Partition ->
          incr partition_cycles;
          let pname = Printf.sprintf "chaos-%d" i in
          Clock.schedule clock ~delay:start (fun () ->
              record_injection Message_loss;
              Msg.Net.partition netw ~name:pname ~members:[ Peer.name victim ]);
          Clock.schedule clock ~delay:stop (fun () ->
              Msg.Net.heal netw ~name:pname))
    kinds;
  (* --- orderer-fault schedule: depose whoever is in charge --------------- *)
  let orderer_crash_cycles = ref 0 in
  if spec.orderer_crashes > 0 then begin
    let owindow = spec.duration /. float_of_int spec.orderer_crashes in
    for j = 0 to spec.orderer_crashes - 1 do
      let start =
        (float_of_int j +. 0.15 +. (0.2 *. Rng.float rng)) *. owindow
      in
      let stop = (float_of_int j +. 0.8) *. owindow in
      let fallback =
        List.nth orderer_names (j mod List.length orderer_names)
      in
      let victim = ref fallback in
      incr orderer_crash_cycles;
      Clock.schedule clock ~delay:start (fun () ->
          (* resolve the victim at fire time: whoever holds the cutting
             role right now (Raft leader / BFT primary), so the fault
             actually forces an election or a view change *)
          record_injection Orderer_crash;
          let name =
            match Service.leader svc with Some n -> n | None -> fallback
          in
          victim := name;
          ignore (Service.crash_orderer svc name));
      Clock.schedule clock ~delay:stop (fun () ->
          ignore (Service.restart_orderer svc !victim))
    done
  end;
  (* --- open-loop workload, slot-tracked so lost submissions retry ------- *)
  let n_slots = int_of_float (spec.rate *. spec.duration) in
  let slots = Array.make (max 1 n_slots) [] in
  let resubmitted = ref 0 in
  let submit_slot slot =
    let id =
      B.submit db ~user ~contract:"chaos_put"
        ~args:[ Value.Int slot; Value.Int (slot * 7) ]
    in
    slots.(slot) <- id :: slots.(slot)
  in
  for i = 0 to n_slots - 1 do
    Clock.schedule clock ~delay:(float_of_int i /. spec.rate) (fun () ->
        submit_slot i)
  done;
  B.run db ~seconds:spec.duration;
  (* --- heal everything and drive to convergence ------------------------- *)
  Msg.Net.clear_faults netw;
  let slot_decided slot =
    List.exists (fun id -> B.status db id <> None) slots.(slot)
  in
  let all_decided () =
    let ok = ref true in
    for s = 0 to n_slots - 1 do
      if not (slot_decided s) then ok := false
    done;
    !ok
  in
  let height p = Node_core.height (Peer.core p) in
  let heights_equal () =
    match peers with
    | [] -> true
    | p0 :: rest -> List.for_all (fun p -> height p = height p0) rest
  in
  let rounds = ref 0 in
  while (not (all_decided () && heights_equal ())) && !rounds < 60 do
    incr rounds;
    B.run db ~seconds:0.5;
    (* client-side resubmission (§3.5): a request whose every attempt was
       swallowed by a fault gets retried once the caller times out *)
    if !rounds mod 2 = 0 then
      for s = 0 to n_slots - 1 do
        if (not (slot_decided s)) && List.length slots.(s) < 5 then begin
          incr resubmitted;
          submit_slot s
        end
      done
  done;
  (* grace period: lets in-flight checkpoint gossip and fetch replies land *)
  B.run db ~seconds:2.0;
  (* --- convergence checks ----------------------------------------------- *)
  let chain_hash p =
    match Block_store.last (Node_core.block_store (Peer.core p)) with
    | Some b -> b.Block.hash
    | None -> Block.genesis_hash
  in
  let divergent =
    match peers with
    | [] -> []
    | p0 :: rest ->
        List.filter_map
          (fun p ->
            let same_chain =
              height p = height p0 && String.equal (chain_hash p) (chain_hash p0)
            in
            let same_write_sets = ref true in
            for h = 1 to min (height p) (height p0) do
              if
                Checkpoint.local_hash (Peer.checkpoints p) ~height:h
                <> Checkpoint.local_hash (Peer.checkpoints p0) ~height:h
              then same_write_sets := false
            done;
            if same_chain && !same_write_sets then None else Some (Peer.name p))
          rest
  in
  let decided = ref 0 and committed = ref 0 in
  for s = 0 to n_slots - 1 do
    if slot_decided s then begin
      incr decided;
      if List.exists (fun id -> B.status db id = Some B.Committed) slots.(s)
      then incr committed
    end
  done;
  (* Cross-node agreement: a transaction some node committed and another
     node finalized differently is a serializability violation; differing
     abort classes for the same aborted transaction are expected and
     merely recorded. *)
  let decision_mismatches = ref [] and reason_divergences = ref [] in
  Hashtbl.fold (fun id _ acc -> id :: acc) decisions []
  |> List.sort compare
  |> List.iter (fun id ->
         let votes = !(Hashtbl.find decisions id) in
         let commits =
           List.filter (fun (_, d, _) -> String.equal d "commit") votes
         in
         if commits <> [] && List.length commits <> List.length votes then
           decision_mismatches := id :: !decision_mismatches
         else
           let classes =
             List.sort_uniq compare
               (List.filter_map
                  (fun (_, d, c) ->
                    if String.equal d "abort" then Some c else None)
                  votes)
           in
           if List.length classes > 1 then
             reason_divergences := id :: !reason_divergences);
  let decision_mismatches = List.rev !decision_mismatches in
  let reason_divergences = List.rev !reason_divergences in
  let abort_classes =
    let prefix = "txn.aborted." in
    let plen = String.length prefix in
    Brdb_obs.Registry.cluster_view (Brdb_obs.Obs.metrics (B.obs db))
    |> List.filter_map (fun (e : Brdb_obs.Registry.entry) ->
           if
             String.length e.Brdb_obs.Registry.e_name > plen
             && String.equal (String.sub e.e_name 0 plen) prefix
           then
             Some (String.sub e.e_name plen (String.length e.e_name - plen),
                   e.e_count)
           else None)
  in
  let converged =
    divergent = [] && heights_equal () && !decided = n_slots
    && decision_mismatches = []
  in
  (* When write sets diverged, pinpoint the earliest bad block through the
     SQL monitor — the same path an operator would use. *)
  let first_divergent_height =
    if divergent = [] then None else find_divergence db
  in
  let trace_events = if spec.tracing then B.trace_events db else [] in
  let trace_jsonl =
    if spec.tracing then Brdb_obs.Export.jsonl_string trace_events else ""
  in
  (* Byte-level fingerprint of the replicated state: equal across two runs
     of the same spec iff the fault schedule is deterministic end-to-end. *)
  let fingerprint =
    let buf = Buffer.create 1024 in
    List.iter
      (fun p ->
        Buffer.add_string buf (Peer.name p);
        Buffer.add_string buf (string_of_int (height p));
        Buffer.add_string buf (chain_hash p);
        for h = 1 to height p do
          Buffer.add_string buf
            (match Checkpoint.local_hash (Peer.checkpoints p) ~height:h with
            | Some hash -> hash
            | None -> "?")
        done)
      peers;
    for s = 0 to n_slots - 1 do
      Buffer.add_string buf
        (match
           List.find_opt (fun id -> B.status db id <> None) (List.rev slots.(s))
         with
        | Some id -> (
            match B.status db id with
            | Some B.Committed -> "C"
            | Some (B.Aborted r) -> "A:" ^ r
            | Some (B.Rejected r) -> "R:" ^ r
            | None -> "?")
        | None -> "undecided")
    done;
    Sha256.hex (Sha256.digest (Buffer.contents buf))
  in
  (* --- fault→alert coverage matrix (ISSUE 9) ---------------------------- *)
  let alerts = B.alerts db in
  let alerts_fired =
    List.filter_map
      (fun (sm : Health.summary) ->
        if sm.Health.sm_fires > 0 then
          Some (Health.detector_id sm.Health.sm_detector, sm.Health.sm_fires)
        else None)
      (Health.summaries (B.health db))
  in
  let fault_coverage =
    List.map
      (fun (f, at, h) ->
        let expected = expected_alerts f in
        let al =
          List.find_opt
            (fun (a : Health.alert) ->
              a.Health.al_transition = Health.Fire
              && List.mem a.Health.al_detector expected
              && a.Health.al_time >= at)
            alerts
        in
        {
          det_fault = f;
          det_injected_at = at;
          det_injection_height = h;
          det_alert = al;
        })
      (List.rev !injections)
  in
  let uncovered_faults =
    List.filter_map
      (fun d -> if d.det_alert = None then Some d.det_fault else None)
      fault_coverage
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 peers in
  {
    submitted = n_slots;
    resubmitted = !resubmitted;
    decided = !decided;
    committed = !committed;
    heights = List.map (fun p -> (Peer.name p, height p)) peers;
    converged;
    divergent;
    fingerprint;
    delivered = Msg.Net.delivered netw;
    dropped = Msg.Net.dropped netw;
    duplicated = Msg.Net.duplicated netw;
    corrupted = Msg.Net.corrupted netw;
    snapshots_installed = sum Peer.snapshots_installed;
    chunks_corrupted =
      List.fold_left
        (fun acc (e : Brdb_obs.Registry.entry) ->
          if String.equal e.Brdb_obs.Registry.e_name "snapshot.chunks_corrupted"
          then acc + e.e_count
          else acc)
        0
        (Brdb_obs.Registry.cluster_view (Brdb_obs.Obs.metrics (B.obs db)));
    loss_percent =
      (let total = Msg.Net.delivered netw + Msg.Net.dropped netw in
       if total = 0 then 0.
       else float_of_int (Msg.Net.dropped netw) /. float_of_int total *. 100.);
    fetch_requests = sum Peer.fetch_requests;
    fetched_blocks = sum Peer.fetched_blocks;
    crash_cycles = !crash_cycles;
    partition_cycles = !partition_cycles;
    orderer_crash_cycles = !orderer_crash_cycles;
    elections = Service.elections svc;
    view_changes = Service.view_changes svc;
    blocks_rejected = sum Peer.blocks_rejected;
    forged_rejected = Service.auth_rejected svc;
    decision_mismatches;
    reason_divergences;
    abort_classes;
    first_divergent_height;
    trace_jsonl;
    trace_events;
    alerts;
    alerts_fired;
    alert_stream = Health.stream (B.health db);
    fault_coverage;
    uncovered_faults;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "%d slots (%d resubmits): %d decided, %d committed; heights [%s]; \
     %s; loss=%.1f%% (%d dropped, %d dup); fetched %d blocks in %d requests; \
     %d crash cycles, %d partition cycles"
    r.submitted r.resubmitted r.decided r.committed
    (String.concat "; "
       (List.map (fun (n, h) -> Printf.sprintf "%s:%d" n h) r.heights))
    (if r.converged then "CONVERGED"
     else if r.decision_mismatches <> [] then
       "DECISION MISMATCH: " ^ String.concat "," r.decision_mismatches
     else
       "DIVERGED: " ^ String.concat "," r.divergent
       ^
       match r.first_divergent_height with
       | Some h -> Printf.sprintf " (first divergent block: %d)" h
       | None -> "")
    r.loss_percent r.dropped r.duplicated r.fetched_blocks r.fetch_requests
    r.crash_cycles r.partition_cycles;
  if r.reason_divergences <> [] then
    Format.fprintf fmt "; %d txns aborted for node-divergent reasons"
      (List.length r.reason_divergences);
  if r.orderer_crash_cycles > 0 || r.elections > 0 || r.view_changes > 0
     || r.blocks_rejected > 0 || r.forged_rejected > 0
  then
    Format.fprintf fmt
      "; ordering plane: %d orderer crash cycles, %d elections, %d view \
       changes, %d blocks rejected at delivery, %d forged txs dropped"
      r.orderer_crash_cycles r.elections r.view_changes r.blocks_rejected
      r.forged_rejected;
  if r.snapshots_installed > 0 || r.chunks_corrupted > 0 then
    Format.fprintf fmt
      "; %d snapshot bootstraps (%d chunks rejected corrupt, %d payloads \
       mangled in flight)"
      r.snapshots_installed r.chunks_corrupted r.corrupted;
  if r.abort_classes <> [] then
    Format.fprintf fmt "; aborts by class: %s"
      (String.concat ", "
         (List.map
            (fun (c, n) -> Printf.sprintf "%s=%d" c n)
            r.abort_classes));
  if r.alerts_fired <> [] then
    Format.fprintf fmt "; alerts fired: %s"
      (String.concat ", "
         (List.map (fun (d, n) -> Printf.sprintf "%s=%d" d n) r.alerts_fired));
  if r.fault_coverage <> [] then
    Format.fprintf fmt "; fault coverage: %s"
      (String.concat ", "
         (List.map
            (fun d ->
              match (d.det_alert, detection_latency d) with
              | Some al, Some (lat_s, lat_b) ->
                  Printf.sprintf "%s->%s in %.3fs/%d blocks" (fault_id d.det_fault)
                    (Health.detector_id al.Health.al_detector)
                    lat_s lat_b
              | _ -> Printf.sprintf "%s UNDETECTED" (fault_id d.det_fault))
            r.fault_coverage))

module Testing = struct
  let expected_alerts = expected_alerts
  let find_divergence = find_divergence
end
