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
    contract_class_of = (fun _ -> Cost_model.Simple);
    forward_delay_mean = 0.;
    seed = 42;
    tracing = false;
    snapshot_threshold = 0;
    compaction = Brdb_snapshot.Snapshot.Archive;
    parallel_validation = false;
  }

(* Tick period of the streaming health plane (DESIGN.md §15), in
   simulated seconds. *)
let health_interval = 0.1

type final_status = Committed | Aborted of string | Rejected of string

type tx_track = {
  submitted_at : float;
  mutable commits : int;
  mutable aborts : int;
  mutable final : final_status option;
}

type client_row = {
  cr_session : string;
  cr_user : string;
  cr_peer : string;
  cr_status : string;
  cr_pinned_height : int;
  cr_reads_pinned : int;
  cr_submitted : int;
  cr_early_aborts : int;
  cr_receipts_verified : int;
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
  mutable decision_listeners : (tx_id:string -> final_status -> unit) list;
  (* sys.clients rows, installed by the client-plane hub (Brdb_client);
     the registration lives here so the sys.* name stays inside the
     provider layers the lint rule allows *)
  mutable client_rows : unit -> client_row list;
}

let peer_name org = "db-" ^ org

let orderer_name i = Printf.sprintf "orderer-%d" (i + 1)

let decided_count t =
  let cluster = Reg.counter (Obs.metrics t.obs) ~node:"cluster" in
  cluster "decided.committed" + cluster "decided.aborted"
  + cluster "decided.rejected"

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
  (* client-authentication plane (DESIGN.md §16): cut-time batch verification *)
  Reg.set reg ~node:"ordering" "auth.verified"
    (float_of_int (Service.auth_verified t.service));
  Reg.set reg ~node:"ordering" "auth.rejected"
    (float_of_int (Service.auth_rejected t.service));
  Reg.set reg ~node:"ordering" "auth.replayed"
    (float_of_int (Service.auth_replayed t.service))

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
  (* Cut-time authentication is deterministic: Block.verify_tx is a pure
     function of (tx bytes, registry), and the registry is identical on
     every orderer. *)
  let service =
    Service.create ~net ~kind:config.ordering ~orderer_names
      ~identity_of:(fun name -> List.assoc name orderer_identities)
      ~rng:(Rng.split rng) ~authenticator:(Block.verify_tx registry)
      ~block_size:config.block_size
      ~block_timeout:config.block_timeout ~peers_of ()
  in
  let peers =
    List.map
      (fun org ->
        Peer.create ~net ~obs
          {
            Peer.core =
              Node_core.make_config ~name:(peer_name org) ~org
                ~flow:config.flow ~orgs:config.orgs ();
            contract_class_of = config.contract_class_of;
            orderer_target = orderer_of_peer (peer_name org);
            peer_names;
            forward_delay_mean = config.forward_delay_mean;
            checkpoint_interval = 1;
            (* §3.6 anti-entropy probe every 250 ms (safe here — the
               clock is always run bounded) *)
            sync_interval = 0.25;
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
      health = Health.create ();
      submit_ts = Hashtbl.create 1024;
      seen_heights = Hashtbl.create 256;
      tracks = Hashtbl.create 1024;
      majority = (List.length peer_names / 2) + 1;
      submit_rr = 0;
      seq = 0;
      decision_listeners = [];
      client_rows = (fun () -> []);
    }
  in
  List.iter
    (fun p ->
      Peer.on_final p (fun ~tx_id ~status -> track_final t tx_id status (Clock.now clock)))
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
      s_decided = decided_count t;
      s_aborted =
        Reg.counter reg ~node:"cluster" "decided.aborted"
        + Reg.counter reg ~node:"cluster" "decided.rejected";
      s_elections = Service.elections t.service;
      s_view_changes = Service.view_changes t.service;
      s_digests_agree = digests_agree;
      s_auth_rejected = Service.auth_rejected t.service;
    }
  in
  (* The cluster-level views, registered on every peer's catalog so any
     node serves them:
     - sys.metrics: one row per registry entry (min/max/percentiles 0
       for non-histograms); each read refreshes the network/ordering gauges;
     - sys.nodes: one row per database peer — liveness and catch-up
       counters as this cluster sees them right now;
     - sys.clients (ISSUE 10): one row per client-plane session, from the
       provider the Brdb_client hub installs (empty until then);
       registering here keeps the sys.* literal inside the provider layers;
     - sys.alerts / sys.detectors: the shared health engine's transition
       log and per-detector summaries. *)
  List.iter
    (fun p ->
      Brdb_storage.Catalog.(
        let cat = Node_core.catalog (Peer.core p) in
        let node_counter name p =
          Reg.counter (Obs.metrics obs) ~node:(Peer.name p) name
        in
        register_virtual cat ~name:"sys.metrics"
          [
            text "node" (fun (e : Reg.entry) -> e.Reg.e_node);
            text "name" (fun e -> e.Reg.e_name);
            text "kind" (fun e -> e.Reg.e_kind);
            int "n" (fun e -> e.Reg.e_count);
            float "value" (fun e -> e.Reg.e_value);
            float "vmin" (fun e -> e.Reg.e_min);
            float "vmax" (fun e -> e.Reg.e_max);
            float "p50" (fun e -> e.Reg.e_p50);
            float "p95" (fun e -> e.Reg.e_p95);
          ]
          (fun ~height:_ ->
            sync_registry t;
            Reg.snapshot (Obs.metrics obs));
        register_virtual cat ~name:"sys.nodes"
          [
            text ~pk:true "node" Peer.name;
            int "height" (fun p -> Node_core.height (Peer.core p));
            int "inbox" Peer.inbox_size;
            bool "crashed" Peer.is_crashed;
            int "fetch_requests" Peer.fetch_requests;
            int "fetched_blocks" Peer.fetched_blocks;
            int "blocks_rejected" Peer.blocks_rejected;
            int "crashes" (node_counter "node.crashes");
            int "restarts" (node_counter "node.restarts");
          ]
          (fun ~height:_ -> peers);
        register_virtual cat ~name:"sys.clients"
          [
            text ~pk:true "session" (fun c -> c.cr_session);
            text "user" (fun c -> c.cr_user);
            text "peer" (fun c -> c.cr_peer);
            text "status" (fun c -> c.cr_status);
            int "pinned_height" (fun c -> c.cr_pinned_height);
            int "reads_pinned" (fun c -> c.cr_reads_pinned);
            int "submitted" (fun c -> c.cr_submitted);
            int "early_aborts" (fun c -> c.cr_early_aborts);
            int "receipts_verified" (fun c -> c.cr_receipts_verified);
          ]
          (fun ~height:_ -> t.client_rows ());
        register_virtual cat ~name:"sys.alerts"
          [
            int ~pk:true "seq" (fun (a : Health.alert) -> a.Health.al_seq);
            float "ts" (fun a -> a.Health.al_time);
            int "height" (fun a -> a.Health.al_height);
            text "transition" (fun a ->
                Health.transition_name a.Health.al_transition);
            text "detector" (fun a -> Health.detector_id a.Health.al_detector);
            text "severity" (fun a ->
                Health.severity_name a.Health.al_severity);
            text "subject" (fun a -> a.Health.al_subject);
            text "evidence" (fun a -> a.Health.al_evidence);
          ]
          (fun ~height:_ -> Health.alerts t.health);
        register_virtual cat ~name:"sys.detectors"
          (let d (s : Health.summary) = s.Health.sm_detector in
           [
             text ~pk:true "detector" (fun s -> Health.detector_id (d s));
             text "severity" (fun s ->
                 Health.severity_name (Health.severity_of (d s)));
             text "rule" (fun s -> Health.describe (d s));
             int "firing" (fun s -> s.Health.sm_firing);
             int "fires" (fun s -> s.Health.sm_fires);
             int "clears" (fun s -> s.Health.sm_clears);
             float "last_ts" (fun s -> s.Health.sm_last_time);
             int "last_height" (fun s -> s.Health.sm_last_height);
           ])
          (fun ~height:_ -> Health.summaries t.health)))
    peers;
  let rec health_tick () =
    Clock.schedule clock ~delay:health_interval (fun () ->
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
  health_tick ();
  (* Ordering-phase visibility without touching the four consensus
     implementations: watch the first Block_deliver broadcast of each
     height on the network tap. The tap fires after the send outcome is
     decided and draws no rng, so it cannot perturb the simulation. *)
  Msg.Net.set_tap net (fun ~src ~dst ~size_bytes ~dropped msg ->
      (* Every message variant carries its span context (Msg.span_ctx) onto
         the receiver's "net" track, so consensus and catch-up traffic is
         attributable in the trace. The net track is delivery-dependent
         (drops, duplicates) and therefore excluded from the cross-node
         causal projection in Export. *)
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
  match Brdb_contracts.Determinism.parse_program source with
  | Error (`Syntax e | `Nondeterministic e) -> Error e
  | Ok program ->
      install_contract t ~name (Brdb_contracts.Registry.Procedural program);
      Ok ()

(* Track a signed transaction and ship it to [target]: the one submission
   tail of [submit] and [submit_at]. *)
let send_tx t ~user ~contract ~target (tx : Block.tx) =
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
  send_tx t ~user ~contract ~target tx

(* Client-plane submission (ISSUE 10): like the EO branch of [submit]
   but with the session's choices pinned — the tx executes at the
   session's begin height on the session's peer, not at whatever height
   the round-robin peer happens to be at. *)
let submit_at t ~user ~contract ~args ~peer:peer_index ~snapshot =
  if t.config.flow <> Node_core.Execute_order then
    invalid_arg "Blockchain_db.submit_at: pinned submission requires the EO flow";
  let p = List.nth t.peers (peer_index mod List.length t.peers) in
  send_tx t ~user ~contract ~target:(Peer.name p)
    (Block.make_eo_tx ~identity:user ~contract ~args ~snapshot)

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

let query t ?(node = 0) ?params sql =
  Node_core.query (Peer.core (peer t node)) ?params sql

let explain_analyze t ?(node = 0) ?params sql =
  (* Per-row operator time is modelled from the calibrated cost model:
     tet_simple is the charge for a ~100-row contract statement, so a
     visited version costs tet_simple / 100 seconds of simulated time. *)
  let row_cost = Cost_model.default.Cost_model.tet_simple /. 100. in
  Node_core.explain_analyze (Peer.core (peer t node)) ?params ~row_cost sql

let verified_query t ?params sql =
  let answers =
    List.map
      (fun p -> (Peer.name p, Node_core.query (Peer.core p) ?params sql))
      t.peers
  in
  (* Key each answer by its rendered rows; only a strict majority wins. *)
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
  let keyed = List.map (fun (name, ans) -> (name, render ans, ans)) answers in
  (* Distinct answers in the order of the first peer giving each. *)
  let keys =
    List.fold_left (fun ks (_, k, _) -> if List.mem k ks then ks else ks @ [ k ]) [] keyed
  in
  let peers_with k =
    List.filter_map (fun (name, k', _) -> if k' = k then Some name else None) keyed
  in
  let n = List.length keyed in
  match List.find_opt (fun k -> 2 * List.length (peers_with k) > n) keys with
  | Some k -> (
      let divergent =
        List.filter_map (fun (name, k', _) -> if k' <> k then Some name else None) keyed
      in
      match List.find (fun (_, k', _) -> k' = k) keyed with
      | _, _, Ok rs -> Ok (rs, divergent)
      | _, _, Error e -> Error e)
  | None ->
      Error
        (Printf.sprintf "no answer holds a majority of the %d peers; answers by peer: %s" n
           (String.concat "; "
              (List.map (fun k -> "[" ^ String.concat ", " (peers_with k) ^ "]") keys)))

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

let obs t = t.obs

let health t = t.health

let alerts t = Health.alerts t.health

let trace_events t =
  sync_registry t;
  Trace.events (Obs.trace t.obs)
