module Value = Brdb_storage.Value
module Node_core = Brdb_node.Node_core
module Peer = Brdb_node.Peer
module Msg = Brdb_consensus.Msg
module Service = Brdb_consensus.Service
module Block = Brdb_ledger.Block
module Identity = Brdb_crypto.Identity
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng
module Network = Brdb_sim.Network
module Cost_model = Brdb_sim.Cost_model
module Obs = Brdb_obs.Obs
module Reg = Brdb_obs.Registry
module Trace = Brdb_obs.Trace
module Abort_class = Brdb_obs.Abort_class
module Health = Brdb_obs.Health

type config = {
  orgs : string list;
  flow : Node_core.flow;
  ordering : Service.kind;
  n_orderers : int;
  block_size : int;
  block_timeout : float;
  link : Network.link;
  cost : Cost_model.t;
  contract_class_of : string -> Cost_model.contract_class;
  forward_delay_mean : float;
  seed : int;
  tracing : bool;
      (** record a deterministic trace of the run (see {!Brdb_obs}); off
          by default — the null sink makes tracing zero-cost when
          disabled, and enabling it never changes committed state, hashes
          or cost-model output. *)
  snapshot_threshold : int;
      (** a restarting/lagging peer whose height gap strictly exceeds this
          bootstraps from a peer snapshot instead of replaying blocks
          (DESIGN.md §11); 0 (the default) disables snapshots. *)
  compaction : Brdb_snapshot.Snapshot.compaction;
      (** per-node version-chain retention: [Archive] (default) keeps dead
          chains, [Pruned] drops them at checkpoints (§11). *)
  parallel_validation : bool;
      (** {!Brdb_node.Peer.config}'s flag: model wave-scheduled block
          validation on the cost model's cores (DESIGN.md §14); off by
          default. Every block commits over the same waves either way, so
          decisions, write-set hashes and state digests are identical —
          only modelled block-validation time and the sys.validation /
          validation.* metrics change. *)
  health_interval : float;
      (** tick period of the streaming health plane (ISSUE 9, DESIGN.md
          §15): every [health_interval] simulated seconds the shared
          {!Brdb_obs.Health} engine samples cluster state and evaluates
          its detectors. 0 disables the engine. Ticks only read state and
          draw no rng, so enabling them never changes committed state,
          hashes or decisions. *)
  health_thresholds : Brdb_obs.Health.thresholds;  (** detector tuning *)
  authenticate : bool;
      (** cut-time batch signature verification at the ordering service
          (ISSUE 10): orderers verify every submission's Schnorr
          signature against the shared certificate registry before it can
          enter a block, dropping forgeries. On by default — clients sign
          every submission, so clean runs are unaffected. *)
}

let default_config () =
  {
    orgs = [ "org1"; "org2"; "org3" ];
    flow = Node_core.Order_execute;
    ordering = Service.Solo;
    n_orderers = 1;
    block_size = 100;
    block_timeout = 1.0;
    link = Network.lan_link;
    cost = Cost_model.default;
    contract_class_of = (fun _ -> Cost_model.Simple);
    forward_delay_mean = 0.;
    seed = 42;
    tracing = false;
    snapshot_threshold = 0;
    compaction = Brdb_snapshot.Snapshot.Archive;
    parallel_validation = false;
    health_interval = 0.1;
    health_thresholds = Brdb_obs.Health.default_thresholds;
    authenticate = true;
  }

type final_status = Committed | Aborted of string | Rejected of string

type tx_track = {
  submitted_at : float;
  mutable commits : int;
  mutable aborts : int;
  mutable final : final_status option;
}

type t = {
  config : config;
  clock : Clock.t;
  net : Msg.Net.net;
  registry : Identity.Registry.t;
  peers : Peer.t list;
  service : Service.t;
  admins : (string * Identity.t) list;
  obs : Obs.t;
  health : Brdb_obs.Health.t;  (** shared cluster-level detector engine *)
  (* tx_id -> submission time; feeds the ordering-phase span and is
     dropped once the transaction is decided *)
  submit_ts : (string, float) Hashtbl.t;
  (* block heights whose first delivery broadcast has been observed *)
  seen_heights : (int, unit) Hashtbl.t;
  tracks : (string, tx_track) Hashtbl.t;
  majority : int;
  mutable submit_rr : int;
  mutable seq : int;
  mutable decided : int;
  mutable decision_listeners : (tx_id:string -> final_status -> unit) list;
  (* sys.clients rows, installed by the client-plane hub (Brdb_client);
     the registration lives here so the sys.* name stays inside the
     provider layers the lint rule allows *)
  mutable client_rows : unit -> Value.t array list;
}

let peer_name org = "db-" ^ org

let orderer_name i = Printf.sprintf "orderer-%d" (i + 1)

let track_final t tx_id status now =
  match Hashtbl.find_opt t.tracks tx_id with
  | None -> ()
  | Some track -> (
      (match status with
      | Node_core.S_committed -> track.commits <- track.commits + 1
      | Node_core.S_aborted _ | Node_core.S_rejected _ ->
          track.aborts <- track.aborts + 1);
      match track.final with
      | Some _ -> ()
      | None ->
          let decide final =
            track.final <- Some final;
            t.decided <- t.decided + 1;
            (match final with
            | Committed -> Reg.incr (Obs.metrics t.obs) ~node:"cluster" "decided.committed"
            | Aborted _ -> Reg.incr (Obs.metrics t.obs) ~node:"cluster" "decided.aborted"
            | Rejected _ -> Reg.incr (Obs.metrics t.obs) ~node:"cluster" "decided.rejected");
            let tr = Obs.trace t.obs in
            if Trace.enabled tr then begin
              let outcome, detail =
                match final with
                | Committed -> ("committed", "")
                | Aborted r -> ("aborted", r)
                | Rejected r -> ("rejected", r)
              in
              Trace.async_end tr ~node:"client" ~cat:"txn" ~name:"lifecycle"
                ~id:tx_id ~follows:("tx/" ^ tx_id)
                ~args:
                  (("outcome", Trace.S outcome)
                  :: (if detail = "" then [] else [ ("detail", Trace.S detail) ]))
                ()
            end;
            Hashtbl.remove t.submit_ts tx_id;
            List.iter (fun f -> f ~tx_id final) t.decision_listeners
          in
          if track.commits >= t.majority then begin
            decide Committed;
            Reg.observe (Obs.metrics t.obs) ~node:"cluster" "decided.latency_s"
              (now -. track.submitted_at)
          end
          else if track.aborts >= t.majority then
            match status with
            | Node_core.S_aborted r ->
                decide (Aborted (Brdb_txn.Txn.abort_reason_to_string r))
            | Node_core.S_rejected r -> decide (Rejected r)
            | Node_core.S_committed -> assert false)

let create config =
  if config.orgs = [] then invalid_arg "Blockchain_db.create: need at least one org";
  let clock = Clock.create () in
  let rng = Rng.create ~seed:config.seed in
  let net = Msg.Net.create ~clock ~rng:(Rng.split rng) ~default_link:config.link in
  let obs = Obs.create ~tracing:config.tracing ~now:(fun () -> Clock.now clock) () in
  let registry = Identity.Registry.create () in
  let peer_names = List.map peer_name config.orgs in
  let orderer_names =
    match config.ordering with
    | Service.Solo -> [ orderer_name 0 ]
    | _ -> List.init (max 1 config.n_orderers) orderer_name
  in
  (* Orderer identities sign blocks; register them with everyone. *)
  let orderer_identities =
    List.map
      (fun name ->
        let id = Identity.create ("orderer/" ^ name) in
        (match Identity.Registry.register registry id with
        | Ok () -> ()
        | Error _ -> assert false);
        (name, id))
      orderer_names
  in
  let admins =
    List.map
      (fun org ->
        let id = Identity.create (org ^ "/admin") in
        (match Identity.Registry.register registry id with
        | Ok () -> ()
        | Error _ -> assert false);
        (org, id))
      config.orgs
  in
  (* Peer i is connected to orderer (i mod n). *)
  let orderer_of_peer p =
    let rec index i = function
      | [] -> 0
      | name :: rest -> if String.equal name p then i else index (i + 1) rest
    in
    let i = index 0 peer_names in
    List.nth orderer_names (i mod List.length orderer_names)
  in
  let peers_of o =
    List.filter (fun p -> String.equal (orderer_of_peer p) o) peer_names
  in
  let authenticator =
    (* Deterministic: Block.verify_tx is a pure function of (tx bytes,
       registry), and the registry is identical on every orderer. *)
    if config.authenticate then Some (fun tx -> Block.verify_tx registry tx)
    else None
  in
  let service =
    Service.create ~net ~kind:config.ordering ~orderer_names
      ~identity_of:(fun name -> List.assoc name orderer_identities)
      ~rng:(Rng.split rng) ?authenticator ~block_size:config.block_size
      ~block_timeout:config.block_timeout ~peers_of ()
  in
  let peers =
    List.map
      (fun org ->
        let core_config =
          {
            Node_core.name = peer_name org;
            org;
            flow = config.flow;
            require_index = false;
            orgs = config.orgs;
            atomic_commit = false;
          }
        in
        Peer.create ~net ~obs
          {
            Peer.core = core_config;
            cost = config.cost;
            contract_class_of = config.contract_class_of;
            orderer_target = orderer_of_peer (peer_name org);
            peer_names;
            forward_delay_mean = config.forward_delay_mean;
            checkpoint_interval = 1;
            (* §3.6 catch-up: retry base 50 ms, anti-entropy probe every
               250 ms (safe here — the clock is always run bounded),
               buffer at most 64 out-of-order blocks *)
            fetch_timeout = 0.05;
            sync_interval = 0.25;
            inbox_window = 64;
            snapshot_threshold = config.snapshot_threshold;
            snapshot_chunk_size = Brdb_snapshot.Chunk.default_size;
            compaction = config.compaction;
            parallel_validation = config.parallel_validation;
          }
          ~registry)
      config.orgs
  in
  let t =
    {
      config;
      clock;
      net;
      registry;
      peers;
      service;
      admins;
      obs;
      health = Brdb_obs.Health.create ~thresholds:config.health_thresholds ();
      submit_ts = Hashtbl.create 1024;
      seen_heights = Hashtbl.create 256;
      tracks = Hashtbl.create 1024;
      majority = (List.length peer_names / 2) + 1;
      submit_rr = 0;
      seq = 0;
      decided = 0;
      decision_listeners = [];
      client_rows = (fun () -> []);
    }
  in
  List.iter
    (fun p ->
      Peer.on_final p (fun ~tx_id ~status -> track_final t tx_id status (Clock.now clock)))
    peers;
  (* sys.nodes: one row per database peer — liveness and catch-up
     counters as this cluster sees them right now. Registered on every
     peer's catalog so any node can serve the view. *)
  let nodes_rows ~height:_ =
    List.map
      (fun p ->
        let reg = Obs.metrics obs in
        let node = Peer.name p in
        Brdb_obs.Sysview.node_row ~node
          ~height:(Node_core.height (Peer.core p))
          ~inbox:(Peer.inbox_size p) ~crashed:(Peer.is_crashed p)
          ~fetch_requests:(Peer.fetch_requests p)
          ~fetched_blocks:(Peer.fetched_blocks p)
          ~blocks_rejected:(Peer.blocks_rejected p)
          ~crashes:(Reg.counter reg ~node "node.crashes")
          ~restarts:(Reg.counter reg ~node "node.restarts"))
      peers
  in
  List.iter
    (fun p ->
      Brdb_storage.Catalog.register_virtual
        (Node_core.catalog (Peer.core p))
        ~name:"sys.nodes" ~columns:Brdb_obs.Sysview.nodes_columns
        ~rows:nodes_rows)
    peers;
  (* sys.clients (ISSUE 10): one row per client-plane session. The rows
     provider is installed by the Brdb_client hub (empty until then);
     registering here keeps the sys.* literal inside the provider layer
     and makes the view readable from every node like sys.nodes. *)
  List.iter
    (fun p ->
      Brdb_storage.Catalog.register_virtual
        (Node_core.catalog (Peer.core p))
        ~name:"sys.clients" ~columns:Brdb_obs.Sysview.clients_columns
        ~rows:(fun ~height:_ -> t.client_rows ()))
    peers;
  (* --- health plane (ISSUE 9, DESIGN.md §15) ---------------------------
     One shared engine per deployment, ticked on the simulated clock. The
     sample is assembled from state that is itself a pure function of
     (block stream, seed) — peer heights and counters, consensus churn,
     decision totals — and the sys.alerts/sys.detectors views are
     registered on EVERY peer's catalog over the same engine (the
     sys.nodes pattern), so the alert stream is byte-identical across
     nodes by construction. Ticks read state and draw no rng: enabling
     them perturbs nothing. *)
  let health_sample () =
    let reg = Obs.metrics obs in
    let nodes =
      List.map
        (fun p ->
          let node = Peer.name p in
          {
            Health.ns_node = node;
            ns_height = Node_core.height (Peer.core p);
            ns_crashed = Peer.is_crashed p;
            ns_blocks_rejected = Peer.blocks_rejected p;
            ns_chunks_corrupted =
              Reg.counter reg ~node "snapshot.chunks_corrupted";
            ns_install_failures =
              Reg.counter reg ~node "snapshot.install_failed"
              + Reg.counter reg ~node "snapshot.sessions_failed";
            ns_divergence_flags = Reg.counter reg ~node "divergence.detected";
          })
        t.peers
    in
    let min_h =
      List.fold_left
        (fun acc p -> min acc (Node_core.height (Peer.core p)))
        max_int t.peers
    in
    let digests_agree =
      (* live early-warning at the highest common height; unavailable
         digests (genesis, pruned history) count as agreement — the
         per-node checkpoint monitor (divergence_flags) still covers
         those *)
      if min_h = max_int || min_h < 1 then true
      else
        match
          List.map
            (fun p -> Node_core.state_digest (Peer.core p) ~height:min_h)
            t.peers
        with
        | [] -> true
        | d :: rest ->
            d = None || List.for_all (fun d' -> d' = None || d' = d) rest
    in
    {
      Health.s_time = Clock.now clock;
      s_nodes = nodes;
      s_blocks_cut = Service.cut_total t.service;
      (* service-side backlog, not client-side undecided count: a
         submission swallowed by the network is not work the ordering
         service is failing to cut *)
      s_pending = Service.queued t.service;
      s_decided = t.decided;
      s_aborted =
        Reg.counter reg ~node:"cluster" "decided.aborted"
        + Reg.counter reg ~node:"cluster" "decided.rejected";
      s_elections = Service.elections t.service;
      s_view_changes = Service.view_changes t.service;
      s_digests_agree = digests_agree;
      s_auth_rejected = Service.auth_rejected t.service;
    }
  in
  let alert_rows ~height:_ =
    List.map Brdb_obs.Sysview.alert_row (Health.alerts t.health)
  in
  let detector_rows ~height:_ =
    List.map Brdb_obs.Sysview.detector_row (Health.summaries t.health)
  in
  List.iter
    (fun p ->
      let cat = Node_core.catalog (Peer.core p) in
      Brdb_storage.Catalog.register_virtual cat ~name:"sys.alerts"
        ~columns:Brdb_obs.Sysview.alerts_columns ~rows:alert_rows;
      Brdb_storage.Catalog.register_virtual cat ~name:"sys.detectors"
        ~columns:Brdb_obs.Sysview.detectors_columns ~rows:detector_rows)
    peers;
  if config.health_interval > 0. then begin
    let rec health_tick () =
      Clock.schedule clock ~delay:config.health_interval (fun () ->
          let transitions = Health.observe t.health (health_sample ()) in
          let reg = Obs.metrics t.obs in
          List.iter
            (fun (al : Health.alert) ->
              let id = Health.detector_id al.Health.al_detector in
              (match al.Health.al_transition with
              | Health.Fire ->
                  Reg.incr reg ~node:"health" "alerts.fired";
                  Reg.incr reg ~node:"health" ("alerts.fired." ^ id)
              | Health.Clear ->
                  Reg.incr reg ~node:"health" "alerts.cleared");
              let tr = Obs.trace t.obs in
              if Trace.enabled tr then
                Trace.instant tr ~node:"health" ~track:"alerts" ~cat:"alert"
                  ~name:(id ^ "." ^ Health.transition_name al.al_transition)
                  ~span:(Printf.sprintf "alert/%s/%d" id al.al_seq)
                  ~args:
                    [
                      ("subject", Trace.S al.al_subject);
                      ("severity", Trace.S (Health.severity_name al.al_severity));
                      ("height", Trace.I al.al_height);
                      ("evidence", Trace.S al.al_evidence);
                    ]
                  ())
            transitions;
          health_tick ())
    in
    health_tick ()
  end;
  (* Ordering-phase visibility without touching the four consensus
     implementations: watch the first Block_deliver broadcast of each
     height on the network tap. The tap fires after the send outcome is
     decided and draws no rng, so it cannot perturb the simulation. *)
  Msg.Net.set_tap net (fun ~src ~dst ~size_bytes ~dropped msg ->
      (* Every message variant carries its span context (Msg.span_ctx) onto
         the receiver's "net" track, so consensus and catch-up traffic is
         attributable in the trace. The net track is delivery-dependent
         (drops, duplicates) and therefore excluded from the cross-node
         causal projection (Export.causal_jsonl). *)
      let tr = Obs.trace t.obs in
      (if Trace.enabled tr then
         let label, ctx = Msg.span_ctx msg in
         Trace.instant tr ~node:dst ~track:"net" ~cat:"net" ~name:label
           ~span:ctx
           ~args:
             [
               ("src", Trace.S src);
               ("bytes", Trace.I size_bytes);
               ("dropped", Trace.B dropped);
             ]
           ());
      match msg with
      | Msg.Block_deliver b when not (Hashtbl.mem t.seen_heights b.Block.height)
        ->
          Hashtbl.replace t.seen_heights b.Block.height ();
          let now = Clock.now clock in
          let started =
            List.fold_left
              (fun acc (tx : Block.tx) ->
                match Hashtbl.find_opt t.submit_ts tx.Block.tx_id with
                | Some ts -> Float.min acc ts
                | None -> acc)
              now b.Block.txs
          in
          Reg.observe (Obs.metrics t.obs) ~node:src "phase.order_ms"
            ((now -. started) *. 1000.);
          if Trace.enabled tr then begin
            let order_span = Printf.sprintf "order/%d" b.Block.height in
            Trace.complete tr ~node:src ~track:"order" ~cat:"order"
              ~name:(Printf.sprintf "order block %d" b.Block.height)
              ~ts:started ~dur:(now -. started) ~span:order_span
              ~args:
                [
                  ("height", Trace.I b.Block.height);
                  ("txs", Trace.I (List.length b.Block.txs));
                ]
              ();
            List.iter
              (fun (tx : Block.tx) ->
                Trace.async_instant tr ~node:src ~cat:"txn" ~name:"lifecycle"
                  ~id:tx.Block.tx_id ~parent:order_span
                  ~follows:("tx/" ^ tx.Block.tx_id)
                  ~args:
                    [
                      ("phase", Trace.S "ordered");
                      ("height", Trace.I b.Block.height);
                    ]
                  ())
              b.Block.txs
          end
      | _ -> ());
  t

let clock t = t.clock

let net t = t.net

let service t = t.service

let peers t = t.peers

let peer t i = List.nth t.peers i

let registry t = t.registry

let register_user t name =
  let id = Identity.create name in
  (match Identity.Registry.register t.registry id with
  | Ok () -> ()
  | Error `Conflict -> invalid_arg ("user already registered: " ^ name));
  id

let admin t org =
  match List.assoc_opt org t.admins with
  | Some id -> id
  | None -> invalid_arg ("unknown org: " ^ org)

let install_contract t ~name body =
  List.iter (fun p -> Node_core.install_contract (Peer.core p) ~name body) t.peers

let install_contract_source t ~name source =
  match Brdb_contracts.Procedural.parse source with
  | Error e -> Error e
  | Ok program -> (
      match Brdb_contracts.Determinism.check_program program with
      | Error e -> Error e
      | Ok () ->
          install_contract t ~name (Brdb_contracts.Registry.Procedural program);
          Ok ())

let submit t ~user ~contract ~args =
  t.seq <- t.seq + 1;
  t.submit_rr <- t.submit_rr + 1;
  let rr = t.submit_rr in
  let tx, target =
    match t.config.flow with
    | Node_core.Execute_order ->
        (* Submit to a database peer at its current height (§3.4.1). *)
        let p = List.nth t.peers (rr mod List.length t.peers) in
        let snapshot = Node_core.height (Peer.core p) in
        (Block.make_eo_tx ~identity:user ~contract ~args ~snapshot, Peer.name p)
    | Node_core.Order_execute | Node_core.Serial_baseline ->
        let id = Printf.sprintf "%s#%d" (Identity.name user) t.seq in
        (Block.make_tx ~id ~identity:user ~contract ~args, Service.submit_target t.service rr)
  in
  let tx_id = tx.Block.tx_id in
  Hashtbl.replace t.tracks tx_id
    { submitted_at = Clock.now t.clock; commits = 0; aborts = 0; final = None };
  Reg.incr (Obs.metrics t.obs) ~node:"cluster" "client.submitted";
  Hashtbl.replace t.submit_ts tx_id (Clock.now t.clock);
  (let tr = Obs.trace t.obs in
   if Trace.enabled tr then
     Trace.async_begin tr ~node:"client" ~cat:"txn" ~name:"lifecycle" ~id:tx_id
       ~span:("tx/" ^ tx_id)
       ~args:
         [
           ("user", Trace.S (Identity.name user));
           ("contract", Trace.S contract);
           ("target", Trace.S target);
         ]
       ());
  ignore
    (Msg.Net.send t.net
       ~src:("client/" ^ Identity.name user)
       ~dst:target
       ~size_bytes:(Msg.size (Msg.Client_tx tx))
       (Msg.Client_tx tx));
  tx_id

(* Client-plane submission (ISSUE 10): like the EO branch of [submit]
   but with the session's choices pinned — the tx executes at the
   session's begin height on the session's peer, not at whatever height
   the round-robin peer happens to be at. *)
let submit_at t ~user ~contract ~args ~peer:peer_index ~snapshot =
  if t.config.flow <> Node_core.Execute_order then
    invalid_arg "Blockchain_db.submit_at: pinned submission requires the EO flow";
  let p = List.nth t.peers (peer_index mod List.length t.peers) in
  let tx = Block.make_eo_tx ~identity:user ~contract ~args ~snapshot in
  let target = Peer.name p in
  let tx_id = tx.Block.tx_id in
  Hashtbl.replace t.tracks tx_id
    { submitted_at = Clock.now t.clock; commits = 0; aborts = 0; final = None };
  Reg.incr (Obs.metrics t.obs) ~node:"cluster" "client.submitted";
  Hashtbl.replace t.submit_ts tx_id (Clock.now t.clock);
  (let tr = Obs.trace t.obs in
   if Trace.enabled tr then
     Trace.async_begin tr ~node:"client" ~cat:"txn" ~name:"lifecycle" ~id:tx_id
       ~span:("tx/" ^ tx_id)
       ~args:
         [
           ("user", Trace.S (Identity.name user));
           ("contract", Trace.S contract);
           ("target", Trace.S target);
         ]
       ());
  ignore
    (Msg.Net.send t.net
       ~src:("client/" ^ Identity.name user)
       ~dst:target
       ~size_bytes:(Msg.size (Msg.Client_tx tx))
       (Msg.Client_tx tx));
  tx_id

let set_client_rows_provider t f = t.client_rows <- f

let on_decided t f = t.decision_listeners <- f :: t.decision_listeners

let status t tx_id =
  match Hashtbl.find_opt t.tracks tx_id with
  | None -> None
  | Some track -> track.final

let run t ~seconds = ignore (Clock.run ~until:(Clock.now t.clock +. seconds) t.clock)

let settle t =
  (* Consensus services keep perpetual timers (raft heartbeats, election
     timeouts), so the event queue never drains; instead, run until every
     submitted transaction has a majority decision, plus a grace period
     for block/checkpoint propagation. *)
  let undecided () =
    Hashtbl.fold (fun _ tr acc -> acc || tr.final = None) t.tracks false
  in
  let rec loop rounds =
    if undecided () && rounds < 600 then begin
      ignore (Clock.run ~until:(Clock.now t.clock +. 0.5) t.clock);
      (let tr = Obs.trace t.obs in
       if Trace.enabled tr then
         let n =
           Hashtbl.fold
             (fun _ trk acc -> if trk.final = None then acc + 1 else acc)
             t.tracks 0
         in
         Trace.instant tr ~node:"cluster" ~track:"settle" ~cat:"settle"
           ~name:"settle.round"
           ~args:[ ("round", Trace.I rounds); ("undecided", Trace.I n) ]
           ());
      loop (rounds + 1)
    end
  in
  loop 0;
  ignore (Clock.run ~until:(Clock.now t.clock +. 1.5) t.clock)

(* Mirror the network plane's counters and the orderers' block counts
   into the registry, absorbing them into the same queryable namespace as
   the per-node metrics. *)
let sync_registry t =
  let reg = Obs.metrics t.obs in
  Reg.set reg ~node:"net" "net.delivered" (float_of_int (Msg.Net.delivered t.net));
  Reg.set reg ~node:"net" "net.dropped" (float_of_int (Msg.Net.dropped t.net));
  Reg.set reg ~node:"net" "net.duplicated"
    (float_of_int (Msg.Net.duplicated t.net));
  Reg.set reg ~node:"net" "net.bytes_sent" (float_of_int (Msg.Net.bytes_sent t.net));
  List.iter
    (fun (orderer, n) ->
      Reg.set reg ~node:orderer "orderer.blocks_cut" (float_of_int n))
    (Service.blocks_cut t.service);
  (* consensus-plane health: election/view-change counters (§4.3/§4.4) *)
  Reg.set reg ~node:"ordering" "orderer.elections"
    (float_of_int (Service.elections t.service));
  Reg.set reg ~node:"ordering" "orderer.term" (float_of_int (Service.term t.service));
  Reg.set reg ~node:"ordering" "orderer.view_changes"
    (float_of_int (Service.view_changes t.service));
  Reg.set reg ~node:"ordering" "orderer.view" (float_of_int (Service.view t.service));
  (* client-authentication plane (ISSUE 10): cut-time batch verification *)
  Reg.set reg ~node:"ordering" "auth.verified"
    (float_of_int (Service.auth_verified t.service));
  Reg.set reg ~node:"ordering" "auth.rejected"
    (float_of_int (Service.auth_rejected t.service));
  Reg.set reg ~node:"ordering" "auth.replayed"
    (float_of_int (Service.auth_replayed t.service))

let query t ?(node = 0) ?params sql =
  (* sys.metrics reads the shared registry; keep the network/ordering
     gauges fresh so clients see live election/view-change counts *)
  sync_registry t;
  Node_core.query (Peer.core (peer t node)) ?params sql

let explain_analyze t ?(node = 0) ?params sql =
  (* Per-row operator time is modelled from the calibrated cost model:
     tet_simple is the charge for a ~100-row contract statement, so a
     visited version costs tet_simple / 100 seconds of simulated time. *)
  let row_cost = t.config.cost.Cost_model.tet_simple /. 100. in
  Node_core.explain_analyze (Peer.core (peer t node)) ?params ~row_cost sql

let verified_query t ?params sql =
  let answers =
    List.map
      (fun p -> (Peer.name p, Node_core.query (Peer.core p) ?params sql))
      t.peers
  in
  (* Key each answer by its rendered rows; pick the majority. *)
  let render = function
    | Ok (rs : Brdb_engine.Exec.result_set) ->
        "ok:"
        ^ String.concat "\n"
            (List.map
               (fun row ->
                 String.concat "|" (Array.to_list (Array.map Value.encode row)))
               rs.Brdb_engine.Exec.rows)
    | Error e -> "error:" ^ e
  in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (_, ans) ->
      let key = render ans in
      Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0))
    answers;
  let majority_key, _ =
    Hashtbl.fold
      (fun k c best -> match best with Some (_, bc) when bc >= c -> best | _ -> Some (k, c))
      counts None
    |> Option.get
  in
  let divergent =
    List.filter_map
      (fun (name, ans) -> if render ans <> majority_key then Some name else None)
      answers
  in
  match List.find_opt (fun (_, ans) -> render ans = majority_key) answers with
  | Some (_, Ok rs) -> Ok (rs, divergent)
  | Some (_, Error e) -> Error e
  | None -> Error "internal: no majority answer"

type summary = {
  committed : int;
  aborted : int;
  throughput_tps : float;
  avg_latency_s : float;
  brr : float;
  bpr : float;
  bpt_ms : float;
  bet_ms : float;
  bct_ms : float;
  tet_ms : float;
  mt_per_s : float;
  su_percent : float;
}

let summary t ~duration_s =
  let reg = Obs.metrics t.obs in
  let node0 = Peer.name (peer t 0) in
  let per_s n = float_of_int n /. duration_s in
  let mean ~node name =
    match Reg.histogram reg ~node name with
    | Some s -> Reg.Stat.mean s
    | None -> 0.
  in
  let cluster = Reg.counter reg ~node:"cluster" in
  let committed = cluster "decided.committed" in
  let bpr = per_s (Reg.counter reg ~node:node0 "block.processed") in
  let bpt_ms = mean ~node:node0 "phase.bpt_ms" in
  {
    committed;
    aborted = cluster "decided.aborted" + cluster "decided.rejected";
    throughput_tps = per_s committed;
    avg_latency_s = mean ~node:"cluster" "decided.latency_s";
    brr = per_s (Reg.counter reg ~node:node0 "block.received");
    bpr;
    bpt_ms;
    bet_ms = mean ~node:node0 "phase.bet_ms";
    bct_ms = mean ~node:node0 "phase.bct_ms";
    tet_ms = mean ~node:node0 "phase.tet_ms";
    mt_per_s = per_s (Reg.counter reg ~node:node0 "block.missing_txs");
    su_percent = Float.min 100. (bpr *. bpt_ms /. 10.);
  }

let submitted_count t = Hashtbl.length t.tracks

let decided_count t = t.decided

let obs t = t.obs

let health t = t.health

let alerts t = Health.alerts t.health

let trace_events t =
  sync_registry t;
  Trace.events (Obs.trace t.obs)
