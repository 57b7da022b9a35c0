(** Executes one experiment configuration and reports the paper's metrics. *)

module B = Brdb_core.Blockchain_db
module Node_core = Brdb_node.Node_core
module Service = Brdb_consensus.Service
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng
module Workload = Brdb_sim.Workload
module Network = Brdb_sim.Network

type spec = {
  flow : Node_core.flow;
  contract : Workloads.kind;
  block_size : int;
  rate : float;  (** arrival rate, tps *)
  duration : float;  (** workload duration, simulated seconds *)
  ordering : Service.kind;
  n_orderers : int;
  link : Network.link;
  seed : int;
  parallel_validation : bool;
      (** wave-scheduled intra-block validation (ISSUE 8); recorded runs
          carry kind "run_parallel" so A/B pairs of one experiment keep
          distinct identities in the bench_diff gate *)
}

let default_spec =
  {
    flow = Node_core.Order_execute;
    contract = Workloads.Simple;
    block_size = 100;
    rate = 1000.;
    duration = 5.;
    ordering = Service.Kafka;
    n_orderers = 3;
    link = Network.lan_link;
    seed = 7;
    parallel_validation = false;
  }

(* --trace support: when set (by bench/main.ml), every run records a trace
   and appends its events here, node names prefixed "run<i>/" so multiple
   runs of one experiment land in distinct Chrome process lanes. *)
let trace_file : string option ref = ref None

let collected : Brdb_obs.Trace.event list ref = ref []

let run_index = ref 0

(* --json support: when set, every run appends a machine-readable record
   (spec + summary + the per-operator executor counters the peers publish
   as exec.rows.* / exec.visited.* registry metrics); bench/main.ml dumps
   them at exit. Experiments may also append their own records. *)
let json_file : string option ref = ref None

type json_value = J_str of string | J_float of float | J_int of int

let current_experiment = ref "-"

let json_records : (string * (string * json_value) list) list ref = ref []

let record fields =
  if !json_file <> None then
    json_records := (!current_experiment, fields) :: !json_records

let exec_counters net =
  let reg = Brdb_obs.Obs.metrics (B.obs net) in
  Brdb_obs.Registry.cluster_view reg
  |> List.filter_map (fun (e : Brdb_obs.Registry.entry) ->
         if String.length e.Brdb_obs.Registry.e_name >= 5
            && String.sub e.Brdb_obs.Registry.e_name 0 5 = "exec."
         then Some (e.Brdb_obs.Registry.e_name, J_int e.Brdb_obs.Registry.e_count)
         else None)

(* Per-phase latency percentiles (ms) from node 0's registry histograms —
   the same source sys.metrics serves, so BENCH_obs.json numbers can be
   cross-checked with a [SELECT p50, p95 FROM sys.metrics] on a live
   deployment. *)
let phase_percentiles net =
  let reg = Brdb_obs.Obs.metrics (B.obs net) in
  List.concat_map
    (fun (short, metric) ->
      match Brdb_obs.Registry.histogram reg ~node:"db-org1" metric with
      | None -> []
      | Some s ->
          let module Stat = Brdb_obs.Registry.Stat in
          [
            (short ^ "_p50_ms", J_float (Stat.percentile s 50.));
            (short ^ "_p95_ms", J_float (Stat.percentile s 95.));
          ])
    [
      ("bpt", "phase.bpt_ms");
      ("bet", "phase.bet_ms");
      ("bct", "phase.bct_ms");
      ("tet", "phase.tet_ms");
    ]

(* Wave-scheduler summary from node 0's registry (ISSUE 8): blocks that
   went through the parallel path, wave counts, core occupancy and the
   modeled serial/parallel speedup. Empty unless parallel validation ran. *)
let validation_metrics net =
  let reg = Brdb_obs.Obs.metrics (B.obs net) in
  let node = "db-org1" in
  let blocks = Brdb_obs.Registry.counter reg ~node "validation.blocks" in
  if blocks = 0 then []
  else
    let module Stat = Brdb_obs.Registry.Stat in
    let stat name f =
      match Brdb_obs.Registry.histogram reg ~node name with
      | None -> 0.
      | Some s -> f s
    in
    [
      ("val_blocks", J_int blocks);
      ("val_waves_mean", J_float (stat "validation.waves" Stat.mean));
      ("val_waves_max", J_float (stat "validation.waves" Stat.max));
      ("val_occupancy_mean", J_float (stat "validation.occupancy" Stat.mean));
      ("val_speedup", J_float (stat "validation.speedup" Stat.mean));
    ]

(* Per-block critical-path entries from node 0 (identical on every
   replica — pure function of block stream + cost model). *)
let critical_paths net =
  match B.peers net with
  | [] -> []
  | p :: _ ->
      let core = Brdb_node.Peer.core p in
      List.filter_map
        (fun h ->
          Option.map (fun e -> (h, e)) (Node_core.critical_path core ~height:h))
        (List.init (Node_core.height core) (fun i -> i + 1))

(* Aggregate parallel headroom of a run: total serial time over total
   critical-path time across all processed blocks (1.0 when idle). *)
let headroom_summary net =
  let cps = critical_paths net in
  let serial, critical, waves =
    List.fold_left
      (fun (s, c, w) (_, (e : Node_core.cp_entry)) ->
        ( s +. e.Node_core.cp_result.Brdb_obs.Critical_path.serial_s,
          c +. e.Node_core.cp_result.Brdb_obs.Critical_path.critical_s,
          max w e.Node_core.cp_result.Brdb_obs.Critical_path.waves ))
      (0., 0., 0) cps
  in
  let headroom = if critical <= 0. then 1. else serial /. critical in
  (List.length cps, serial, critical, headroom, waves)

(** Run the workload and summarize, returning the deployment too (its
    registry feeds the per-phase breakdown printed next to Tables 4/5).
    Throughput counts transactions that reached majority commit within
    the workload window (steady state), as in the paper. *)
let run_db (spec : spec) : B.t * B.summary =
  let config =
    {
      (B.default_config ()) with
      B.flow = spec.flow;
      ordering = spec.ordering;
      n_orderers = spec.n_orderers;
      block_size = spec.block_size;
      block_timeout = 1.0;
      link = spec.link;
      contract_class_of = Workloads.contract_class;
      forward_delay_mean =
        (if spec.flow = Node_core.Execute_order then 0.012 else 0.);
      seed = spec.seed;
      tracing = !trace_file <> None;
      parallel_validation = spec.parallel_validation;
    }
  in
  let net = B.create config in
  Workloads.install net;
  let users =
    List.map (fun org -> B.register_user net (org ^ "/bench")) [ "org1"; "org2"; "org3" ]
  in
  let contract = Workloads.contract_name spec.contract in
  let rng = Rng.create ~seed:(spec.seed + 1) in
  let clock = B.clock net in
  let t0 = Clock.now clock in
  Workload.run ~clock ~rng ~rate:spec.rate ~duration:spec.duration
    ~submit:(fun i ->
      let user = List.nth users (i mod List.length users) in
      ignore
        (B.submit net ~user ~contract ~args:(Workloads.args spec.contract i)));
  (* Steady-state window: stop the clock when the workload window closes;
     in-flight transactions at the cut-off are not counted. *)
  B.run net ~seconds:spec.duration;
  ignore t0;
  let summary = B.summary net ~duration_s:spec.duration in
  if !trace_file <> None then begin
    incr run_index;
    let prefix = Printf.sprintf "run%d/" !run_index in
    collected :=
      !collected
      @ List.map
          (fun (e : Brdb_obs.Trace.event) ->
            { e with Brdb_obs.Trace.node = prefix ^ e.Brdb_obs.Trace.node })
          (B.trace_events net)
  end;
  record
    ([
       ( "kind",
         J_str (if spec.parallel_validation then "run_parallel" else "run") );
       ( "flow",
         J_str
           (match spec.flow with
           | Node_core.Order_execute -> "order-execute"
           | Node_core.Execute_order -> "execute-order"
           | Node_core.Serial_baseline -> "serial") );
       ("contract", J_str (Workloads.contract_name spec.contract));
       ("block_size", J_int spec.block_size);
       ("rate", J_float spec.rate);
       ("duration_s", J_float spec.duration);
       ("throughput_tps", J_float summary.B.throughput_tps);
       ("avg_latency_s", J_float summary.B.avg_latency_s);
       ("committed", J_int summary.B.committed);
       ("aborted", J_int summary.B.aborted);
     ]
    @ (let blocks, serial, critical, headroom, waves = headroom_summary net in
       [
         ("cp_blocks", J_int blocks);
         ("cp_serial_ms", J_float (serial *. 1000.));
         ("cp_critical_ms", J_float (critical *. 1000.));
         ("cp_headroom", J_float headroom);
         ("cp_waves_max", J_int waves);
       ])
    @ validation_metrics net @ phase_percentiles net @ exec_counters net);
  (net, summary)

let run spec = snd (run_db spec)

(** Sweep arrival rates and report the best observed committed
    throughput with its summary. *)
let peak spec ~rates =
  List.fold_left
    (fun best rate ->
      let s = run { spec with rate } in
      match best with
      | None -> Some (rate, s)
      | Some (_, bs) when s.B.throughput_tps > bs.B.throughput_tps ->
          Some (rate, s)
      | Some _ -> best)
    None rates
  |> Option.get

(* ---------------- ordering-service-only experiment (Fig. 8b) ------------- *)

(** Throughput of the ordering service alone: dummy sink peers count
    ordered transactions. *)
let ordering_throughput ~kind ~n_orderers ~rate ~duration ~seed =
  let clock = Clock.create () in
  let rng = Rng.create ~seed in
  let module Msg = Brdb_consensus.Msg in
  let net = Msg.Net.create ~clock ~rng:(Rng.split rng) ~default_link:Network.lan_link in
  let orderer_names = List.init n_orderers (fun i -> Printf.sprintf "orderer-%d" (i + 1)) in
  let identities =
    List.map (fun n -> (n, Brdb_crypto.Identity.create ("orderer/" ^ n))) orderer_names
  in
  let delivered = ref 0 in
  let sink = "sink" in
  Msg.Net.register net ~name:sink (fun ~src:_ msg ->
      match msg with
      | Msg.Block_deliver b -> delivered := !delivered + List.length b.Brdb_ledger.Block.txs
      | _ -> ());
  let _service =
    Service.create ~net ~kind ~orderer_names
      ~identity_of:(fun n -> List.assoc n identities)
      ~rng:(Rng.split rng) ~block_size:100 ~block_timeout:1.0
      ~peers_of:(fun o -> if o = List.hd orderer_names then [ sink ] else [])
      ()
  in
  (* Raft needs a moment to elect a leader before load arrives. *)
  (match kind with
  | Service.Raft -> ignore (Clock.run ~until:1.0 clock)
  | _ -> ());
  let start = Clock.now clock in
  let client = Brdb_crypto.Identity.create "client/load" in
  let wrng = Rng.create ~seed:(seed + 13) in
  Workload.run ~clock ~rng:wrng ~rate ~duration ~submit:(fun i ->
      let tx =
        Brdb_ledger.Block.make_tx
          ~id:(Printf.sprintf "load-%d" i)
          ~identity:client ~contract:"noop"
          ~args:[ Brdb_storage.Value.Int i ]
      in
      let dst = List.nth orderer_names (i mod n_orderers) in
      ignore
        (Msg.Net.send net ~src:"client/load" ~dst
           ~size_bytes:(Msg.size (Msg.Client_tx tx))
           (Msg.Client_tx tx)));
  ignore (Clock.run ~until:(start +. duration) clock);
  float_of_int !delivered /. duration

(* ------------- ordering-plane fault recovery (BFT view change / Raft
   re-election): crash whoever holds the cutting role mid-run and measure
   how long block production stalls. *)

type fault_recovery = {
  fr_throughput_tps : float;  (** ordered txs per second, crash included *)
  fr_recovery_s : float;
      (** longest production stall after the crash: the largest gap
          between consecutive block deliveries from the crash onward (in
          flight quorumed blocks still land right after the crash, so
          "first delivery after" would under-report the election /
          view-change pause); [nan] if production never resumed *)
  fr_elections : int;
  fr_view_changes : int;
}

let ordering_fault_recovery ~kind ~n_orderers ~rate ~duration ~seed =
  let clock = Clock.create () in
  let rng = Rng.create ~seed in
  let module Msg = Brdb_consensus.Msg in
  let net =
    Msg.Net.create ~clock ~rng:(Rng.split rng) ~default_link:Network.lan_link
  in
  let orderer_names =
    List.init n_orderers (fun i -> Printf.sprintf "orderer-%d" (i + 1))
  in
  let identities =
    List.map
      (fun n -> (n, Brdb_crypto.Identity.create ("orderer/" ^ n)))
      orderer_names
  in
  (* Every orderer delivers to the sink (the crashed one goes silent);
     dedup by height so replicated deliveries count once. *)
  let delivered = ref 0 in
  let deliveries = ref [] in
  (* (time, height), newest first *)
  let seen = Hashtbl.create 64 in
  let sink = "sink" in
  Msg.Net.register net ~name:sink (fun ~src:_ msg ->
      match msg with
      | Msg.Block_deliver b ->
          let h = b.Brdb_ledger.Block.height in
          if not (Hashtbl.mem seen h) then begin
            Hashtbl.replace seen h ();
            delivered := !delivered + List.length b.Brdb_ledger.Block.txs;
            deliveries := (Clock.now clock, h) :: !deliveries
          end
      | _ -> ());
  let service =
    Service.create ~net ~kind ~orderer_names
      ~identity_of:(fun n -> List.assoc n identities)
      ~rng:(Rng.split rng) ~block_size:50 ~block_timeout:0.1
      ~peers_of:(fun _ -> [ sink ])
      ()
  in
  (match kind with
  | Service.Raft -> ignore (Clock.run ~until:1.0 clock)
  | _ -> ());
  let start = Clock.now clock in
  let t_crash = ref nan in
  let h_crash = ref 0 in
  Clock.schedule clock ~delay:(0.4 *. duration) (fun () ->
      let victim =
        match Service.leader service with
        | Some n -> n
        | None -> List.hd orderer_names
      in
      t_crash := Clock.now clock;
      h_crash := List.fold_left (fun acc (_, h) -> max acc h) 0 !deliveries;
      ignore (Service.crash_orderer service victim));
  let client = Brdb_crypto.Identity.create "client/load" in
  let wrng = Rng.create ~seed:(seed + 13) in
  Workload.run ~clock ~rng:wrng ~rate ~duration ~submit:(fun i ->
      let tx =
        Brdb_ledger.Block.make_tx
          ~id:(Printf.sprintf "load-%d" i)
          ~identity:client ~contract:"noop"
          ~args:[ Brdb_storage.Value.Int i ]
      in
      let dst = List.nth orderer_names (i mod n_orderers) in
      ignore
        (Msg.Net.send net ~src:"client/load" ~dst
           ~size_bytes:(Msg.size (Msg.Client_tx tx))
           (Msg.Client_tx tx)));
  ignore (Clock.run ~until:(start +. duration) clock);
  let recovery =
    let after =
      List.sort compare
        (!t_crash
        :: List.filter_map
             (fun (t, h) ->
               if h > !h_crash && t > !t_crash then Some t else None)
             !deliveries)
    in
    match after with
    | [ _ ] -> nan (* nothing ever delivered after the crash *)
    | ts ->
        let rec max_gap acc = function
          | a :: (b :: _ as rest) -> max_gap (Float.max acc (b -. a)) rest
          | _ -> acc
        in
        max_gap 0. ts
  in
  {
    fr_throughput_tps = float_of_int !delivered /. duration;
    fr_recovery_s = recovery;
    fr_elections = Service.elections service;
    fr_view_changes = Service.view_changes service;
  }
