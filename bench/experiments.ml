(** One function per table/figure of the paper's evaluation (§5). Each
    prints the same rows/series the paper reports; EXPERIMENTS.md records
    paper-vs-measured. *)

module B = Brdb_core.Blockchain_db
module Node_core = Brdb_node.Node_core
module Service = Brdb_consensus.Service
module Network = Brdb_sim.Network
module Chaos = Brdb_core.Chaos

let quick = ref false

let dur () = if !quick then 2.0 else 5.0

let line fmt = Printf.printf (fmt ^^ "\n%!")

let header title =
  line "";
  line "== %s" title;
  line "%s" (String.make (String.length title + 3) '-')

let flow_name = function
  | Node_core.Order_execute -> "order-then-execute"
  | Node_core.Execute_order -> "execute-order-in-parallel"
  | Node_core.Serial_baseline -> "serial baseline (Ethereum-style)"

(* ------------------------------------------------- Fig 5: simple contract *)

let fig5 flow ~rates ~block_sizes =
  header
    (Printf.sprintf "Figure 5%s: %s, simple contract — throughput & latency vs arrival rate"
       (if flow = Node_core.Order_execute then "(a)" else "(b)")
       (flow_name flow));
  line "%8s %6s | %12s %12s" "rate" "bs" "tput(tps)" "latency(s)";
  List.iter
    (fun block_size ->
      List.iter
        (fun rate ->
          let s =
            Runner.run
              { Runner.default_spec with flow; block_size; rate; duration = dur () }
          in
          line "%8.0f %6d | %12.0f %12.3f" rate block_size
            s.B.throughput_tps s.B.avg_latency_s)
        rates)
    block_sizes

let fig5a () =
  fig5 Node_core.Order_execute
    ~rates:[ 1200.; 1500.; 1800.; 2100. ]
    ~block_sizes:[ 10; 100; 500 ]

let fig5b () =
  fig5 Node_core.Execute_order
    ~rates:[ 1800.; 2100.; 2400.; 2700. ]
    ~block_sizes:[ 10; 100; 500 ]

(* --------------------------------------------- Tables 4/5: micro metrics *)

module Obs = Brdb_obs.Obs
module Reg = Brdb_obs.Registry

(* Per-phase breakdown from the metrics registry (the observability layer,
   PR 2): order time from the network tap, block phases from node 0's
   histograms, plus the cluster-wide abort taxonomy. *)
let phase_breakdown dbs =
  line "";
  line "per-phase breakdown (registry histograms, ms — mean/p95):";
  line "%4s | %15s %15s %15s %15s | %s" "bs" "order" "bpt" "bet" "bct"
    "aborts by class";
  List.iter
    (fun (block_size, db) ->
      let reg = Obs.metrics (Brdb_core.Blockchain_db.obs db) in
      let cluster = Reg.cluster_view reg in
      let hist name =
        match
          List.find_opt (fun (e : Reg.entry) -> e.Reg.e_name = name) cluster
        with
        | Some e -> Printf.sprintf "%7.2f/%-7.2f" e.Reg.e_value e.Reg.e_p95
        | None -> Printf.sprintf "%7s/%-7s" "-" "-"
      in
      let node0 = "db-org1" in
      let nhist name =
        match Reg.histogram reg ~node:node0 name with
        | Some s ->
            Printf.sprintf "%7.2f/%-7.2f" (Reg.Stat.mean s)
              (Reg.Stat.percentile s 95.)
        | None -> Printf.sprintf "%7s/%-7s" "-" "-"
      in
      let aborts =
        let prefix = "txn.aborted." in
        let plen = String.length prefix in
        cluster
        |> List.filter_map (fun (e : Reg.entry) ->
               if
                 String.length e.Reg.e_name > plen
                 && String.sub e.Reg.e_name 0 plen = prefix
               then
                 Some
                   (Printf.sprintf "%s=%d"
                      (String.sub e.Reg.e_name plen
                         (String.length e.Reg.e_name - plen))
                      e.Reg.e_count)
               else None)
      in
      line "%4d | %15s %15s %15s %15s | %s" block_size
        (hist "phase.order_ms") (nhist "phase.bpt_ms") (nhist "phase.bet_ms")
        (nhist "phase.bct_ms")
        (if aborts = [] then "none" else String.concat " " aborts))
    dbs

(* Per-block critical-path profile (ISSUE 7): dependency-DAG analysis of
   every processed block from node 0's cp log. Headroom = serial / critical
   is the speed-up ceiling for ROADMAP item 1 (parallel validation). *)
let critical_path_breakdown dbs =
  line "";
  line "critical path (dependency DAG, node 0 — identical on all replicas):";
  line "%4s | %7s %11s %11s %11s %9s %6s" "bs" "blocks" "serial(ms)"
    "crit(ms)" "crit-max" "headroom" "waves";
  List.iter
    (fun (block_size, db) ->
      let cps = Runner.critical_paths db in
      let blocks, serial, critical, headroom, waves =
        Runner.headroom_summary db
      in
      let crit_max =
        List.fold_left
          (fun acc (_, (e : Node_core.cp_entry)) ->
            Float.max acc e.Node_core.cp_result.Brdb_obs.Critical_path.critical_s)
          0. cps
      in
      line "%4d | %7d %11.2f %11.2f %11.2f %9.2f %6d" block_size blocks
        (serial *. 1000.) (critical *. 1000.) (crit_max *. 1000.) headroom
        waves;
      Runner.record
        [
          ("kind", Runner.J_str "critical_path");
          ("block_size", Runner.J_int block_size);
          ("cp_blocks", Runner.J_int blocks);
          ("cp_serial_ms", Runner.J_float (serial *. 1000.));
          ("cp_critical_ms", Runner.J_float (critical *. 1000.));
          ("cp_critical_max_ms", Runner.J_float (crit_max *. 1000.));
          ("cp_headroom", Runner.J_float headroom);
          ("cp_waves_max", Runner.J_int waves);
        ])
    dbs

(* ISSUE 8: A/B of multi-core wave timing against the single-core serial
   timing. Same spec, same seed, same commit loop — only the modelled
   validation time changes; block execution time (bet) drops by the wave
   speedup, bounded by the cp_headroom the critical-path profiler
   reported for the same blocks. *)
let parallel_ab ~flow ~rate runs =
  line "";
  line "parallel validation (ISSUE 8, wave-scheduled on %d modeled cores):"
    Brdb_sim.Cost_model.default.Brdb_sim.Cost_model.cores;
  line "%4s | %12s %14s %8s | %6s %8s %9s" "bs" "ser bet(ms)" "par bet(ms)"
    "speedup" "blocks" "waves" "occupancy";
  List.iter
    (fun (block_size, (serial : B.summary)) ->
      let db, s =
        Runner.run_db
          {
            Runner.default_spec with
            flow;
            block_size;
            rate;
            duration = dur ();
            parallel_validation = true;
          }
      in
      (* committed counts are NOT compared here: at these saturating rates
         the faster validator drains the backlog further inside the fixed
         measurement window, so it legitimately commits more — per-block
         decision equivalence is the qcheck property's job (and the
         sub-saturation contention A/B checks it directly) *)
      let reg = Obs.metrics (B.obs db) in
      let node = "db-org1" in
      let blocks = Reg.counter reg ~node "validation.blocks" in
      let stat name f =
        match Reg.histogram reg ~node name with
        | None -> 0.
        | Some st -> f st
      in
      let speedup =
        if s.B.bet_ms > 0. then serial.B.bet_ms /. s.B.bet_ms
        else 1.
      in
      line "%4d | %12.2f %14.2f %7.1fx | %6d %8.1f %9.2f" block_size
        serial.B.bet_ms s.B.bet_ms speedup blocks
        (stat "validation.waves" Reg.Stat.mean)
        (stat "validation.occupancy" Reg.Stat.mean);
      Runner.record
        [
          ("kind", Runner.J_str "parallel_ab");
          ("block_size", Runner.J_int block_size);
          ("serial_bet_ms", Runner.J_float serial.B.bet_ms);
          ("parallel_bet_ms", Runner.J_float s.B.bet_ms);
          ("val_speedup", Runner.J_float speedup);
          ("val_blocks", Runner.J_int blocks);
          ("val_waves_mean", Runner.J_float (stat "validation.waves" Reg.Stat.mean));
          ("val_occupancy_mean", Runner.J_float (stat "validation.occupancy" Reg.Stat.mean));
        ])
    runs

let micro_table ~flow ~rate ~title =
  header title;
  line "%4s | %8s %8s %9s %9s %9s %9s %7s %6s" "bs" "brr" "bpr" "bpt(ms)"
    "bet(ms)" "bct(ms)" "tet(ms)" "mt/s" "su%%";
  let runs =
    List.map
      (fun block_size ->
        let db, s =
          Runner.run_db
            { Runner.default_spec with flow; block_size; rate; duration = dur () }
        in
        line "%4d | %8.1f %8.1f %9.2f %9.2f %9.2f %9.3f %7.0f %6.1f" block_size
          s.B.brr s.B.bpr s.B.bpt_ms s.B.bet_ms
          s.B.bct_ms s.B.tet_ms s.B.mt_per_s
          s.B.su_percent;
        (block_size, db, s))
      [ 10; 100; 500 ]
  in
  let dbs = List.map (fun (bs, db, _) -> (bs, db)) runs in
  phase_breakdown dbs;
  critical_path_breakdown dbs;
  parallel_ab ~flow ~rate (List.map (fun (bs, _, s) -> (bs, s)) runs)

let table4 () =
  micro_table ~flow:Node_core.Order_execute ~rate:2100.
    ~title:"Table 4: order-then-execute micro-metrics @ 2100 tps"

let table5 () =
  micro_table ~flow:Node_core.Execute_order ~rate:2400.
    ~title:"Table 5: execute-order-in-parallel micro-metrics @ 2400 tps"

(* ------------------------------------------------- §5.1 serial baseline *)

let serial_baseline () =
  header "§5.1: Ethereum-style serial execution baseline (bs=100)";
  line "%8s | %12s" "rate" "tput(tps)";
  List.iter
    (fun rate ->
      let s =
        Runner.run
          {
            Runner.default_spec with
            flow = Node_core.Serial_baseline;
            block_size = 100;
            rate;
            duration = dur ();
          }
      in
      line "%8.0f | %12.0f" rate s.B.throughput_tps)
    [ 400.; 800.; 1200.; 1600. ];
  let oe =
    Runner.run
      { Runner.default_spec with flow = Node_core.Order_execute; rate = 2100.; duration = dur () }
  in
  line "(concurrent OE reference @2100: %.0f tps — serial peaks at ~40%% of it)"
    oe.B.throughput_tps

(* ------------------------------------- Figs 6/7: complex contracts *)

let complex_fig ~contract ~oe_rates ~eo_rates ~title =
  header title;
  line "%28s %6s | %10s %9s %9s %9s" "flow" "bs" "peak(tps)" "bpt(ms)"
    "bet(ms)" "tet(ms)";
  List.iter
    (fun (flow, rates) ->
      List.iter
        (fun block_size ->
          let _, s =
            Runner.peak
              { Runner.default_spec with flow; contract; block_size; duration = dur () }
              ~rates
          in
          line "%28s %6d | %10.0f %9.2f %9.2f %9.3f" (flow_name flow) block_size
            s.B.throughput_tps s.B.bpt_ms s.B.bet_ms
            s.B.tet_ms)
        [ 10; 50; 100 ])
    [ (Node_core.Order_execute, oe_rates); (Node_core.Execute_order, eo_rates) ]

let fig6 () =
  complex_fig ~contract:Workloads.Complex_join
    ~oe_rates:[ 200.; 400.; 600. ]
    ~eo_rates:[ 400.; 800.; 1200. ]
    ~title:"Figure 6: complex-join contract — peak throughput and block times"

let fig7 () =
  complex_fig ~contract:Workloads.Complex_group
    ~oe_rates:[ 400.; 700.; 1000. ]
    ~eo_rates:[ 800.; 1200.; 1600. ]
    ~title:"Figure 7: complex-group contract — peak throughput and block times"

(* ------------------------------------------- Fig 8a: multi-cloud (WAN) *)

let fig8a () =
  header "Figure 8(a): complex-join contract, LAN vs WAN (multi-cloud)";
  line "%6s | %10s %10s | %12s %12s | %10s" "bs" "lan(tps)" "wan(tps)"
    "lan lat(s)" "wan lat(s)" "Δlat(ms)";
  List.iter
    (fun block_size ->
      let rates = [ 300.; 400. ] in
      let _, lan =
        Runner.peak
          {
            Runner.default_spec with
            contract = Workloads.Complex_join;
            block_size;
            duration = dur ();
          }
          ~rates
      in
      let _, wan =
        Runner.peak
          {
            Runner.default_spec with
            contract = Workloads.Complex_join;
            block_size;
            link = Network.wan_link;
            duration = dur ();
          }
          ~rates
      in
      line "%6d | %10.0f %10.0f | %12.3f %12.3f | %10.0f" block_size
        lan.B.throughput_tps wan.B.throughput_tps
        lan.B.avg_latency_s wan.B.avg_latency_s
        ((wan.B.avg_latency_s -. lan.B.avg_latency_s) *. 1000.))
    [ 10; 50; 100 ]

(* -------------------------------------- Fig 8b: orderer scaling *)

let fig8b () =
  header "Figure 8(b): ordering-service throughput vs orderer count @ 3000 tps";
  line "%10s | %12s %12s" "#orderers" "kafka(tps)" "bft(tps)";
  List.iter
    (fun n ->
      let kafka =
        Runner.ordering_throughput ~kind:Service.Kafka ~n_orderers:n ~rate:3000.
          ~duration:(dur ()) ~seed:11
      in
      let bft =
        Runner.ordering_throughput ~kind:Service.Bft ~n_orderers:n ~rate:3000.
          ~duration:(dur ()) ~seed:11
      in
      line "%10d | %12.0f %12.0f" n kafka bft)
    [ 4; 8; 16; 32 ]

(* ----------------------------------------------- ablations (§7 extras) *)

let ablation () =
  header "Ablation: raft vs kafka ordering under the simple workload";
  List.iter
    (fun ordering ->
      let s =
        Runner.run
          {
            Runner.default_spec with
            ordering;
            rate = 1200.;
            duration = dur ();
          }
      in
      line "%8s: %6.0f tps, latency %.3fs"
        (match ordering with
        | Service.Kafka -> "kafka"
        | Service.Raft -> "raft"
        | Service.Solo -> "solo"
        | Service.Bft -> "bft")
        s.B.throughput_tps s.B.avg_latency_s)
    [ Service.Solo; Service.Kafka; Service.Raft; Service.Bft ]

let contention () =
  header "Ablation: abort behaviour under hot-key contention (10 rows, rmw)";
  line "%28s | %9s %9s %9s" "flow" "committed" "aborted" "abort%%";
  let spec_of flow =
    {
      Runner.default_spec with
      flow;
      contract = Workloads.Contended;
      block_size = 50;
      rate = 500.;
      duration = dur ();
    }
  in
  let serial_runs =
    List.map
      (fun flow ->
        let net, s = Runner.run_db (spec_of flow) in
        let total = s.B.committed + s.B.aborted in
        line "%28s | %9d %9d %8.1f%%" (flow_name flow) s.B.committed
          s.B.aborted
          (if total = 0 then 0.
           else 100. *. float_of_int s.B.aborted /. float_of_int total);
        (* Table 2 breakdown straight from the introspection schema
           (DESIGN.md §10) — the same query a live deployment would run. *)
        (match B.query net "SELECT class, n FROM sys.aborts WHERE n > 0" with
        | Error e -> line "  sys.aborts query failed: %s" e
        | Ok rs ->
            List.iter
              (fun row ->
                match row with
                | [| Brdb_storage.Value.Text cls; Brdb_storage.Value.Int n |] ->
                    line "%28s |   %-18s %6d" "" cls n
                | _ -> ())
              rs.Brdb_engine.Exec.rows);
        (flow, s))
      [ Node_core.Order_execute; Node_core.Execute_order; Node_core.Serial_baseline ]
  in
  (* ISSUE 8: hot-key ww chains are exactly what forces multi-wave
     schedules, so this workload is the wave scheduler's stress A/B —
     decisions must not move, mean waves must exceed 1. The committed
     BENCH_parallel.json is this table's --json output. *)
  line "";
  line "wave-scheduled validation A/B (ISSUE 8; decisions must not move):";
  line "%28s | %9s %9s | %6s %8s %9s %8s" "flow" "committed" "aborted" "blocks"
    "waves" "occupancy" "speedup";
  List.iter
    (fun flow ->
      let serial = List.assoc flow serial_runs in
      let db, s =
        Runner.run_db { (spec_of flow) with Runner.parallel_validation = true }
      in
      let reg = Obs.metrics (B.obs db) in
      let node = "db-org1" in
      let blocks = Reg.counter reg ~node "validation.blocks" in
      let stat name f =
        match Reg.histogram reg ~node name with
        | None -> 0.
        | Some st -> f st
      in
      line "%28s | %9d %9d | %6d %8.1f %9.2f %7.1fx" (flow_name flow)
        s.B.committed s.B.aborted blocks
        (stat "validation.waves" Reg.Stat.mean)
        (stat "validation.occupancy" Reg.Stat.mean)
        (stat "validation.speedup" Reg.Stat.mean);
      if
        s.B.committed <> serial.B.committed
        || s.B.aborted <> serial.B.aborted
      then
        line "  WARNING: %s decisions moved under parallel validation"
          (flow_name flow);
      Runner.record
        [
          ("kind", Runner.J_str "parallel_ab");
          ( "flow",
            Runner.J_str
              (match flow with
              | Node_core.Order_execute -> "order-execute"
              | Node_core.Execute_order -> "execute-order"
              | Node_core.Serial_baseline -> "serial") );
          ("committed", Runner.J_int s.B.committed);
          ("aborted", Runner.J_int s.B.aborted);
          ("val_blocks", Runner.J_int blocks);
          ("val_waves_mean", Runner.J_float (stat "validation.waves" Reg.Stat.mean));
          ("val_waves_max", Runner.J_float (stat "validation.waves" Reg.Stat.max));
          ("val_occupancy_mean", Runner.J_float (stat "validation.occupancy" Reg.Stat.mean));
          ("val_speedup", Runner.J_float (stat "validation.speedup" Reg.Stat.mean));
        ])
    [ Node_core.Order_execute; Node_core.Execute_order ]

(* ------------------------------------------- chaos: §3.5/§3.6 resilience *)

let chaos () =
  header "Chaos: crashes, partitions and message loss (§3.5/§3.6 recovery)";
  line "%4s %5s %7s %5s | %5s %6s %6s %7s %7s | %s" "seed" "drop" "crashes"
    "parts" "slots" "resub" "loss" "fetched" "height" "converged";
  let seeds = if !quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let failures = ref 0 in
  let reports = ref [] in
  List.iter
    (fun seed ->
      let spec =
        {
          Chaos.default_spec with
          Chaos.seed;
          duration = (if !quick then 1.0 else 2.0);
          rate = 150.;
          drop = 0.02 +. (0.01 *. float_of_int (seed mod 9));
          duplicate = 0.02;
          crashes = 1 + (seed mod 2);
          partitions = seed mod 2;
          crash_points = seed mod 2 = 1;
        }
      in
      let r = Chaos.run spec in
      reports := r :: !reports;
      if not r.Chaos.converged then incr failures;
      let height = match r.Chaos.heights with (_, h) :: _ -> h | [] -> 0 in
      line "%4d %4.0f%% %7d %5d | %5d %6d %5.1f%% %7d %7d | %s" seed
        (100. *. spec.Chaos.drop) spec.Chaos.crashes spec.Chaos.partitions
        r.Chaos.submitted r.Chaos.resubmitted r.Chaos.loss_percent
        r.Chaos.fetched_blocks height
        (if r.Chaos.converged then "yes" else "NO"))
    seeds;
  line
    "%d/%d seeds converged (equal heights, chain & write-set hashes; every \
     request decided)"
    (List.length seeds - !failures)
    (List.length seeds);
  (* Abort taxonomy + cross-node agreement, aggregated over all seeds. *)
  let mismatches =
    List.fold_left
      (fun acc r -> acc + List.length r.Chaos.decision_mismatches)
      0 !reports
  in
  let divergent_reasons =
    List.fold_left
      (fun acc r -> acc + List.length r.Chaos.reason_divergences)
      0 !reports
  in
  let classes = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun (c, n) ->
          Hashtbl.replace classes c
            (n + Option.value (Hashtbl.find_opt classes c) ~default:0))
        r.Chaos.abort_classes)
    !reports;
  let class_list =
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) classes []
    |> List.sort compare
    |> List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n)
  in
  line
    "decision agreement: %d cross-node mismatches (must be 0); %d txns \
     aborted for node-divergent reasons (legal); aborts by class: %s"
    mismatches divergent_reasons
    (if class_list = [] then "none" else String.concat ", " class_list)

(* ------------------- ordering-plane faults (ISSUE: byzantine ordering) *)

let ordering_faults () =
  header
    "Ordering faults: crash the leader/primary mid-run; tamper delivered \
     blocks";
  let seeds = if !quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let fdur = if !quick then 4.0 else 8.0 in
  let pct p xs =
    let n = List.length xs in
    List.nth xs (min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  line "%6s | %9s | %11s %11s | %9s %11s" "plane" "tput(tps)" "recover-p50"
    "recover-p95" "elections" "view-chgs";
  List.iter
    (fun (kind, label, n_orderers) ->
      let samples =
        List.map
          (fun seed ->
            Runner.ordering_fault_recovery ~kind ~n_orderers ~rate:2000.
              ~duration:fdur ~seed)
          seeds
      in
      let recoveries =
        List.sort compare
          (List.filter
             (fun r -> not (Float.is_nan r))
             (List.map (fun s -> s.Runner.fr_recovery_s) samples))
      in
      let stalled = List.length seeds - List.length recoveries in
      let tput =
        List.fold_left (fun acc s -> acc +. s.Runner.fr_throughput_tps) 0. samples
        /. float_of_int (List.length samples)
      in
      let elections =
        List.fold_left (fun acc s -> acc + s.Runner.fr_elections) 0 samples
      in
      let view_changes =
        List.fold_left (fun acc s -> acc + s.Runner.fr_view_changes) 0 samples
      in
      let p50 = pct 0.50 recoveries and p95 = pct 0.95 recoveries in
      line "%6s | %9.0f | %10.3fs %10.3fs | %9d %11d" label tput p50 p95
        elections view_changes;
      if stalled > 0 then
        line "%6s | WARNING: %d/%d runs never resumed cutting" label stalled
          (List.length seeds);
      Runner.record
        [
          ("kind", Runner.J_str label);
          ("n_orderers", Runner.J_int n_orderers);
          ("seeds", Runner.J_int (List.length seeds));
          ("throughput_tps", Runner.J_float tput);
          ("recovery_p50_s", Runner.J_float p50);
          ("recovery_p95_s", Runner.J_float p95);
          ("elections", Runner.J_int elections);
          ("view_changes", Runner.J_int view_changes);
          ("stalled_runs", Runner.J_int stalled);
        ])
    [ (Service.Raft, "raft", 3); (Service.Bft, "bft", 4) ];
  (* 5% in-flight block tampering towards one victim peer: §4.4 admission
     must reject every mangled delivery and catch-up must repair the gap,
     with zero cross-node decision mismatches. *)
  let tamper_reports =
    List.map
      (fun seed ->
        Chaos.run
          {
            Chaos.default_spec with
            Chaos.seed;
            block_tamper = 0.05;
            duration = (if !quick then 1.0 else 2.0);
            crashes = 0;
            partitions = 0;
          })
      seeds
  in
  let rejected =
    List.fold_left (fun acc r -> acc + r.Chaos.blocks_rejected) 0 tamper_reports
  in
  let mismatches =
    List.fold_left
      (fun acc r -> acc + List.length r.Chaos.decision_mismatches)
      0 tamper_reports
  in
  let diverged =
    List.length (List.filter (fun r -> not r.Chaos.converged) tamper_reports)
  in
  let committed =
    List.fold_left (fun acc r -> acc + r.Chaos.committed) 0 tamper_reports
  in
  line
    "tamper | 5%% of deliveries to the victim mangled: %d blocks rejected, %d \
     commits, %d decision mismatches, %d/%d seeds diverged"
    rejected committed mismatches diverged (List.length seeds);
  Runner.record
    [
      ("kind", Runner.J_str "tamper");
      ("tamper_rate", Runner.J_float 0.05);
      ("seeds", Runner.J_int (List.length seeds));
      ("blocks_rejected", Runner.J_int rejected);
      ("committed", Runner.J_int committed);
      ("decision_mismatches", Runner.J_int mismatches);
      ("diverged_runs", Runner.J_int diverged);
    ]

(* ---------------- snapshot bootstrap: join time & compaction (§11) ------ *)

module Peer = Brdb_node.Peer
module Msg = Brdb_consensus.Msg
module Block = Brdb_ledger.Block
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value
module Snapshot = Brdb_snapshot.Snapshot
module Chunk = Brdb_snapshot.Chunk
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng

type boot_result = {
  join_s : float;  (** simulated seconds from restart to convergence *)
  fetched : int;  (** blocks the victim fetched after restarting *)
  installs : int;  (** snapshots the victim installed (0 or 1) *)
  resident_archive : int;
  resident_pruned : int;
  bytes_archive : int;
  bytes_pruned : int;
  chunks : int;  (** archive-snapshot chunk count at the transfer size *)
}

(* A 3-peer cluster fed a block stream directly (fake orderer, as in the
   peer test fixture): peer-3 crashes after the setup block, the chain
   grows to [blocks]+1, then peer-3 restarts and catches up — by linear
   block replay (threshold 0) or by snapshot transfer (threshold 4). The
   workload is update-heavy (keyspace 40, the rest bumps) so dead version
   chains accumulate and Pruned compaction has something to drop. *)
let bootstrap_join ~blocks ~threshold ~compaction ~seed =
  let chunk_size = 4096 in
  let clock = Clock.create () in
  let rng = Rng.create ~seed in
  let net = Msg.Net.create ~clock ~rng ~default_link:Network.lan_link in
  let registry = Identity.Registry.create () in
  let orderer = Identity.create "orderer/bench" in
  let admin = Identity.create "org1/admin" in
  let client = Identity.create "org1/bench" in
  List.iter
    (fun id ->
      match Identity.Registry.register registry id with
      | Ok () -> ()
      | Error _ -> assert false)
    [ orderer; admin; client ];
  Msg.Net.register net ~name:"orderer-1" (fun ~src:_ _ -> ());
  let peer_names = [ "peer-1"; "peer-2"; "peer-3" ] in
  let peers =
    List.map
      (fun name ->
        let p =
          Peer.create ~net
            {
              Peer.core =
                Node_core.make_config ~name ~org:"org1"
                  ~flow:Node_core.Order_execute ~orgs:[ "org1" ] ();
              cost = Brdb_sim.Cost_model.default;
              contract_class_of = (fun _ -> Brdb_sim.Cost_model.Simple);
              orderer_target = "orderer-1";
              peer_names;
              forward_delay_mean = 0.;
              checkpoint_interval = 4;
              fetch_timeout = 0.05;
              sync_interval = 0.;
              inbox_window = 64;
              snapshot_threshold = threshold;
              snapshot_chunk_size = chunk_size;
              compaction;
              parallel_validation = false;
            }
            ~registry
        in
        List.iter
          (fun (cname, sql) ->
            Node_core.install_contract (Peer.core p) ~name:cname
              (Brdb_contracts.Registry.Native
                 (fun ctx -> ignore (Brdb_contracts.Api.execute ctx sql))))
          [
            ("setup", "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
            ("put", "INSERT INTO kv VALUES ($1, $2)");
            ("bump", "UPDATE kv SET v = v + 1 WHERE k = $1");
          ];
        p)
      peer_names
  in
  let prev = ref None in
  let deliver txs =
    let height = (match !prev with None -> 0 | Some b -> b.Block.height) + 1 in
    let prev_hash =
      match !prev with None -> Block.genesis_hash | Some b -> b.Block.hash
    in
    let block =
      Block.sign (Block.create ~height ~txs ~metadata:"bench" ~prev_hash) orderer
    in
    prev := Some block;
    List.iter
      (fun p ->
        ignore
          (Msg.Net.send net ~src:"orderer-1" ~dst:(Peer.name p)
             ~size_bytes:(Msg.size (Msg.Block_deliver block))
             (Msg.Block_deliver block)))
      peers;
    ignore (Clock.run clock)
  in
  deliver [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ];
  let victim = List.nth peers 2 in
  Peer.crash victim;
  let keyspace = 40 in
  let txc = ref 0 in
  for b = 1 to blocks do
    let txs =
      List.init 10 (fun j ->
          let i = ((b - 1) * 10) + j in
          incr txc;
          let id = Printf.sprintf "t%d" !txc in
          if i < keyspace then
            Block.make_tx ~id ~identity:client ~contract:"put"
              ~args:[ Value.Int i; Value.Int i ]
          else
            Block.make_tx ~id ~identity:client ~contract:"bump"
              ~args:[ Value.Int (i mod keyspace) ])
    in
    deliver txs
  done;
  let target = blocks + 1 in
  let live = List.hd peers in
  assert (Node_core.height (Peer.core live) = target);
  let fetched0 = Peer.fetched_blocks victim in
  let t0 = Clock.now clock in
  Peer.restart victim;
  ignore (Clock.run clock);
  let h = Node_core.height (Peer.core victim) in
  if h <> target then
    failwith (Printf.sprintf "bootstrap: victim stuck at %d/%d" h target);
  let snap c = Node_core.export_snapshot (Peer.core live) ~compaction:c in
  let arch = snap Snapshot.Archive and pruned = snap Snapshot.Pruned in
  let bytes_archive = String.length (Snapshot.encode arch) in
  {
    join_s = Clock.now clock -. t0;
    fetched = Peer.fetched_blocks victim - fetched0;
    installs = Peer.snapshots_installed victim;
    resident_archive = Snapshot.resident_versions arch;
    resident_pruned = Snapshot.resident_versions pruned;
    bytes_archive;
    bytes_pruned = String.length (Snapshot.encode pruned);
    chunks = (bytes_archive + chunk_size - 1) / chunk_size;
  }

let bootstrap () =
  header
    "Bootstrap: snapshot vs replay join time and compaction residency (§11)";
  line "%6s | %9s %7s | %9s %9s %6s | %9s %9s | %8s %8s" "blocks" "replay(s)"
    "fetched" "arch(s)" "prune(s)" "chunks" "bytes-a" "bytes-p" "res-arch"
    "res-prun";
  let sizes = if !quick then [ 8; 16; 32 ] else [ 8; 16; 32; 64; 128 ] in
  List.iter
    (fun blocks ->
      let replay =
        bootstrap_join ~blocks ~threshold:0 ~compaction:Snapshot.Archive ~seed:11
      in
      let arch =
        bootstrap_join ~blocks ~threshold:4 ~compaction:Snapshot.Archive ~seed:11
      in
      let prune =
        bootstrap_join ~blocks ~threshold:4 ~compaction:Snapshot.Pruned ~seed:11
      in
      if replay.installs <> 0 || arch.installs <> 1 || prune.installs <> 1 then
        line "  (unexpected install counts: replay=%d arch=%d pruned=%d)"
          replay.installs arch.installs prune.installs;
      line "%6d | %9.3f %7d | %9.3f %9.3f %6d | %9d %9d | %8d %8d" blocks
        replay.join_s replay.fetched arch.join_s prune.join_s arch.chunks
        arch.bytes_archive arch.bytes_pruned arch.resident_archive
        arch.resident_pruned;
      Runner.record
        [
          ("kind", Runner.J_str "bootstrap");
          ("blocks", Runner.J_int blocks);
          ("replay_join_s", Runner.J_float replay.join_s);
          ("replay_fetched", Runner.J_int replay.fetched);
          ("snapshot_archive_join_s", Runner.J_float arch.join_s);
          ("snapshot_pruned_join_s", Runner.J_float prune.join_s);
          ("chunks", Runner.J_int arch.chunks);
          ("bytes_archive", Runner.J_int arch.bytes_archive);
          ("bytes_pruned", Runner.J_int arch.bytes_pruned);
          ("resident_archive", Runner.J_int arch.resident_archive);
          ("resident_pruned", Runner.J_int arch.resident_pruned);
        ])
    sizes;
  line
    "replay time grows with chain length; snapshot join time tracks state \
     size (chunks), and Pruned drops dead version chains (res-prun < \
     res-arch)."

(* ------------------- health plane: detection latency (ISSUE 9) *)

(* The headline number for DESIGN.md §15: for every Chaos fault class,
   inject it under a tuned spec across several seeds and measure the
   sim-time and block-count lag from injection to the first matching
   alert (Chaos.expected_alerts); plus a fault-free sweep counting false
   positives, which must stay at zero. *)
let alerts () =
  header
    "Health plane: fault->alert detection latency per fault class + \
     clean-run false positives";
  let scenarios =
    [
      ( "alerts_partition",
        Chaos.Message_loss,
        2,
        fun seed ->
          {
            Chaos.default_spec with
            Chaos.seed;
            duration = 2.0;
            drop = 0.;
            duplicate = 0.;
            crashes = 0;
            partitions = 1;
          } );
      ( "alerts_crash",
        Chaos.Node_crash,
        3,
        fun seed ->
          {
            Chaos.default_spec with
            Chaos.seed;
            duration = 2.0;
            drop = 0.;
            duplicate = 0.;
            crashes = 1;
            partitions = 0;
          } );
      ( "alerts_orderer_raft",
        Chaos.Orderer_crash,
        3,
        fun seed ->
          {
            Chaos.default_spec with
            Chaos.seed;
            ordering = Service.Raft;
            n_orderers = 3;
            orderer_crashes = 1;
            rate = 60.;
            duration = 1.5;
            drop = 0.;
            duplicate = 0.;
            crashes = 0;
            partitions = 0;
          } );
      ( "alerts_orderer_bft",
        Chaos.Orderer_crash,
        11,
        fun seed ->
          {
            Chaos.default_spec with
            Chaos.seed;
            ordering = Service.Bft;
            n_orderers = 4;
            orderer_crashes = 1;
            rate = 60.;
            duration = 1.5;
            drop = 0.;
            duplicate = 0.;
            crashes = 0;
            partitions = 0;
          } );
      ( "alerts_tamper",
        Chaos.Block_tamper,
        7,
        fun seed ->
          {
            Chaos.default_spec with
            Chaos.seed;
            block_tamper = 1.0;
            drop = 0.;
            duplicate = 0.;
            crashes = 0;
            partitions = 0;
          } );
      ( "alerts_snapshot",
        Chaos.Snapshot_corruption,
        5,
        fun seed ->
          {
            Chaos.default_spec with
            Chaos.seed;
            duration = 2.0;
            drop = 0.05;
            crashes = 2;
            partitions = 0;
            snap_corrupt = 0.6;
            snapshot_threshold = 2;
          } );
    ]
  in
  let n_seeds = if !quick then 2 else 3 in
  line "%20s | %4s %8s | %11s %11s %10s" "fault class" "runs" "detected"
    "mean-lat(s)" "max-lat(s)" "mean-blk";
  List.iter
    (fun (kind, fault, base_seed, spec_of) ->
      let seeds = List.init n_seeds (fun i -> base_seed + i) in
      let reports = List.map (fun s -> Chaos.run (spec_of s)) seeds in
      let latencies =
        List.filter_map
          (fun (r : Chaos.report) ->
            List.find_map
              (fun (d : Chaos.detection) ->
                if d.Chaos.det_fault = fault then Chaos.detection_latency d
                else None)
              r.Chaos.fault_coverage)
          reports
      in
      let detected = List.length latencies in
      let mean xs =
        if xs = [] then 0.
        else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
      in
      let secs = List.map fst latencies in
      let blocks = List.map (fun (_, b) -> float_of_int b) latencies in
      let max_s = List.fold_left Float.max 0. secs in
      line "%20s | %4d %8d | %10.3fs %10.3fs %10.1f"
        (Chaos.fault_id fault ^ (if kind = "alerts_orderer_bft" then "(bft)"
                                 else if kind = "alerts_orderer_raft" then "(raft)"
                                 else ""))
        (List.length seeds) detected (mean secs) max_s (mean blocks);
      Runner.record
        [
          ("kind", Runner.J_str kind);
          ("runs", Runner.J_int (List.length seeds));
          ("alert_detected_runs", Runner.J_int detected);
          ("alert_latency_mean_s", Runner.J_float (mean secs));
          ("alert_latency_max_s", Runner.J_float max_s);
          ("alert_latency_blocks", Runner.J_float (mean blocks));
        ])
    scenarios;
  (* False-positive freedom: fault-free runs must raise nothing, whatever
     the seed (mirrors the qcheck property in test_health.ml). *)
  let clean_runs = if !quick then 20 else 40 in
  let fp_runs = ref 0 in
  let fp_alerts = ref 0 in
  for seed = 1 to clean_runs do
    let r =
      Chaos.run
        {
          Chaos.default_spec with
          Chaos.seed;
          rate = 100.;
          duration = 0.5;
          drop = 0.;
          duplicate = 0.;
          snap_corrupt = 0.;
          crashes = 0;
          partitions = 0;
        }
    in
    if r.Chaos.alerts <> [] then begin
      incr fp_runs;
      fp_alerts := !fp_alerts + List.length r.Chaos.alerts
    end
  done;
  line "%20s | %4d runs, %d raised alerts (%d transitions) — must be 0"
    "fault-free" clean_runs !fp_runs !fp_alerts;
  Runner.record
    [
      ("kind", Runner.J_str "alerts_clean");
      ("runs", Runner.J_int clean_runs);
      ("false_positive_runs", Runner.J_int !fp_runs);
      ("false_positive_alerts", Runner.J_int !fp_alerts);
    ]

(* ---------------------------- ISSUE 10: client admission-control A/B ---- *)

(* Contended session workload over the real network: cohorts of sessions
   pin, read a hot key, then submit two rounds later — by which time other
   cohorts' bumps have superseded most pins. With admission on, those
   doomed transactions fail at the client and never consume ordering
   bandwidth or block-execution time; with admission off they ship and
   abort server-side. Both runs are seeded and fully deterministic, so
   the A/B delta is exact, not statistical. *)
let admission () =
  header
    "Client admission control (ISSUE 10): early aborts vs shipping doomed \
     txs (A/B)";
  let rounds = if !quick then 16 else 32 in
  let cohort = 6 in
  let hot_keys = 3 in
  let setup_contract =
    Brdb_contracts.Registry.Native
      (fun ctx ->
        ignore
          (Brdb_contracts.Api.execute ctx
             "CREATE TABLE adm_kv (k INT PRIMARY KEY, v INT)");
        for k = 0 to hot_keys - 1 do
          Brdb_contracts.Api.set_local ctx "k" (Brdb_storage.Value.Int k);
          ignore
            (Brdb_contracts.Api.execute ctx "INSERT INTO adm_kv VALUES (:k, 100)")
        done)
  in
  (* [$2] is a per-session uniqueness tag (EO tx ids are content hashes). *)
  let bump_contract =
    Brdb_contracts.Registry.Native
      (fun ctx ->
        ignore
          (Brdb_contracts.Api.execute ctx
             "UPDATE adm_kv SET v = v + 1 WHERE k = $1"))
  in
  let run_mode ~admission seed =
    let config =
      {
        (B.default_config ()) with
        B.orgs = [ "org1"; "org2"; "org3" ];
        flow = Node_core.Execute_order;
        block_size = 8;
        block_timeout = 0.04;
        seed;
      }
    in
    let db = B.create config in
    B.install_contract db ~name:"adm_setup" setup_contract;
    B.install_contract db ~name:"adm_bump" bump_contract;
    ignore (B.submit db ~user:(B.admin db "org1") ~contract:"adm_setup" ~args:[]);
    B.settle db;
    let hub = Brdb_client.Session.create_hub ~admission db in
    let users =
      Array.init cohort (fun i ->
          B.register_user db (Printf.sprintf "bench/u%d" i))
    in
    let pending = Queue.create () in
    let tag = ref 0 in
    let submitted_ids = ref [] in
    let elapsed = ref 0. in
    let drive seconds =
      B.run db ~seconds;
      elapsed := !elapsed +. seconds
    in
    let submit_cohort sessions =
      List.iter
        (fun (s, k) ->
          incr tag;
          match
            Brdb_client.Session.submit s ~contract:"adm_bump"
              ~args:[ Brdb_storage.Value.Int k; Brdb_storage.Value.Int !tag ]
          with
          | Brdb_client.Session.Submitted id ->
              submitted_ids := id :: !submitted_ids
          | Brdb_client.Session.Early_abort _ -> ())
        sessions
    in
    for r = 0 to rounds - 1 do
      if Queue.length pending >= 2 then submit_cohort (Queue.pop pending);
      let sessions =
        List.init cohort (fun i ->
            let s = Brdb_client.Session.begin_ hub ~user:users.(i) in
            let k = (r + i) mod hot_keys in
            ignore
              (Brdb_client.Session.read s ~table:"adm_kv"
                 ~key:(Brdb_storage.Value.Int k));
            (s, k))
      in
      Queue.push sessions pending;
      drive 0.12
    done;
    while not (Queue.is_empty pending) do
      submit_cohort (Queue.pop pending);
      drive 0.12
    done;
    B.settle db;
    let opened, _, submitted, early, _ = Brdb_client.Session.totals hub in
    let committed =
      List.length
        (List.filter (fun id -> B.status db id = Some B.Committed) !submitted_ids)
    in
    let server_aborts =
      List.length
        (List.filter
           (fun id ->
             match B.status db id with Some (B.Aborted _) -> true | _ -> false)
           !submitted_ids)
    in
    let ordering_txs = Service.auth_verified (B.service db) in
    let tx_bytes =
      Brdb_consensus.Msg.size
        (Brdb_consensus.Msg.Client_tx
           (Brdb_ledger.Block.make_eo_tx ~identity:users.(0)
              ~contract:"adm_bump" ~args:[] ~snapshot:1))
    in
    let s = B.summary db ~duration_s:!elapsed in
    let blocks =
      Node_core.height (Brdb_node.Peer.core (B.peer db 0))
    in
    let bet_total_ms = s.B.bet_ms *. float_of_int blocks in
    ( opened,
      submitted,
      early,
      server_aborts,
      committed,
      ordering_txs,
      ordering_txs * tx_bytes,
      bet_total_ms )
  in
  let seed = 17 in
  let on = run_mode ~admission:true seed in
  let off = run_mode ~admission:false seed in
  let record mode
      (opened, submitted, early, server_aborts, committed, otxs, obytes, bet) =
    line "%14s | %8d %9d %6d %7d %9d | %7d %9d %9.1f" mode opened submitted
      early server_aborts committed otxs obytes bet;
    Runner.record
      [
        ("kind", Runner.J_str ("admission_" ^ mode));
        ("sessions", Runner.J_int opened);
        ("submitted", Runner.J_int submitted);
        ("early_aborts", Runner.J_int early);
        ("server_aborts", Runner.J_int server_aborts);
        ("committed", Runner.J_int committed);
        ("ordering_txs", Runner.J_int otxs);
        ("ordering_bytes", Runner.J_int obytes);
        ("bet_total_ms", Runner.J_float bet);
      ]
  in
  line "%14s | %8s %9s %6s %7s %9s | %7s %9s %9s" "mode" "sessions"
    "submitted" "early" "aborted" "committed" "ord-tx" "ord-bytes" "bet(ms)";
  record "on" on;
  record "off" off;
  let _, _, early_on, server_on, _, otx_on, obytes_on, bet_on = on in
  let _, _, _, _, _, otx_off, obytes_off, bet_off = off in
  let doomed = early_on + server_on in
  let early_frac =
    if doomed = 0 then 0. else float_of_int early_on /. float_of_int doomed
  in
  line "";
  line
    "doomed txs failed before ordering: %d/%d (%.0f%%); ordering work saved: \
     %d txs / %d bytes; block-execution time saved: %.1f ms"
    early_on doomed (100. *. early_frac) (otx_off - otx_on)
    (obytes_off - obytes_on)
    (bet_off -. bet_on);
  if early_frac < 0.3 then
    line "  WARNING: early-abort fraction below the 30%% floor";
  Runner.record
    [
      ("kind", Runner.J_str "admission_saved");
      ("doomed", Runner.J_int doomed);
      ("early_frac", Runner.J_float early_frac);
      ("saved_ordering_txs", Runner.J_int (otx_off - otx_on));
      ("saved_ordering_bytes", Runner.J_int (obytes_off - obytes_on));
      ("saved_bet_ms", Runner.J_float (bet_off -. bet_on));
    ]

let all : (string * (unit -> unit)) list =
  [
    ("bootstrap", bootstrap);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("table4", table4);
    ("table5", table5);
    ("serial_baseline", serial_baseline);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("ablation", ablation);
    ("contention", contention);
    ("chaos", chaos);
    ("ordering_faults", ordering_faults);
    ("alerts", alerts);
    ("admission", admission);
  ]
