(** Health-plane suite (ISSUE 9, DESIGN.md §15).

    Three layers: unit tests for the {!Brdb_obs.Registry.Window}/[Ewma]
    helpers and for every {!Brdb_obs.Health} detector rule against
    synthetic samples; a qcheck false-positive-freedom property
    (fault-free chaos runs stay silent across seeds); and the fault→alert
    coverage matrix — every {!Brdb_core.Chaos.fault} class, injected under
    a tuned spec, must raise a matching alert within bounded sim-time and
    blocks, with the alert stream byte-identical across runs of a seed and
    across the [sys.alerts] views of every node. *)

module H = Brdb_obs.Health
module Reg = Brdb_obs.Registry
module B = Brdb_core.Blockchain_db
module Chaos = Brdb_core.Chaos
module Msg = Brdb_consensus.Msg
module Peer = Brdb_node.Peer
module Node_core = Brdb_node.Node_core
module Block = Brdb_ledger.Block
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value
module Exec = Brdb_engine.Exec

(* Whether [spec] injects [fault]: the knob each fault class reads. *)
let injects (spec : Chaos.spec) = function
  | Chaos.Message_loss -> spec.Chaos.drop > 0. || spec.Chaos.partitions > 0
  | Chaos.Node_crash -> spec.Chaos.crashes > 0
  | Chaos.Orderer_crash -> spec.Chaos.orderer_crashes > 0
  | Chaos.Block_tamper -> spec.Chaos.block_tamper > 0.
  | Chaos.Client_forge -> spec.Chaos.client_forge > 0.
  | Chaos.Snapshot_corruption -> spec.Chaos.snap_corrupt > 0.

let all_faults =
  Chaos.
    [
      Message_loss;
      Node_crash;
      Orderer_crash;
      Block_tamper;
      Client_forge;
      Snapshot_corruption;
    ]

(* --- Window / Ewma helpers (satellite: edge cases) ----------------------- *)

let test_window_edges () =
  let w = Reg.Window.create ~span:1.0 in
  Alcotest.(check (float 0.)) "empty sum" 0. (Reg.Window.sum w ~now:0.);
  (* single sample *)
  Reg.Window.add w ~now:0.5 3.;
  Alcotest.(check (float 1e-9)) "single sum" 3. (Reg.Window.sum w ~now:0.5);
  (* second sample, then age the first one out *)
  Reg.Window.add w ~now:1.2 5.;
  Alcotest.(check (float 1e-9)) "both in window" 8. (Reg.Window.sum w ~now:1.2);
  Alcotest.(check (float 1e-9)) "older sample pruned" 5.
    (Reg.Window.sum w ~now:1.6);
  Alcotest.(check (float 0.)) "fully drained" 0. (Reg.Window.sum w ~now:9.);
  Alcotest.check_raises "non-positive span rejected"
    (Invalid_argument "Registry.Window.create: span must be > 0") (fun () ->
      ignore (Reg.Window.create ~span:0.))

let test_window_shorter_than_tick () =
  (* a window shorter than the sampling interval sees at most the latest
     sample — each tick starts from a drained window (unit samples: the
     sum counts them) *)
  let w = Reg.Window.create ~span:0.1 in
  Reg.Window.add w ~now:1.0 1.;
  Alcotest.(check (float 0.)) "tick 1 sees its own sample" 1.
    (Reg.Window.sum w ~now:1.0);
  Alcotest.(check (float 0.)) "next tick sees nothing" 0. (Reg.Window.sum w ~now:2.0);
  Reg.Window.add w ~now:2.0 1.;
  Alcotest.(check (float 0.)) "tick 2 sees only its own sample" 1.
    (Reg.Window.sum w ~now:2.0)

let test_ewma_edges () =
  let e = Reg.Ewma.create ~alpha:0.5 in
  Alcotest.(check (float 0.)) "no samples -> 0" 0. (Reg.Ewma.value e);
  Alcotest.(check int) "no samples -> count 0" 0 (Reg.Ewma.count e);
  Reg.Ewma.add e 10.;
  Alcotest.(check (float 1e-9)) "first sample seeds exactly" 10.
    (Reg.Ewma.value e);
  Reg.Ewma.add e 20.;
  Alcotest.(check (float 1e-9)) "second moves by alpha" 15. (Reg.Ewma.value e);
  Alcotest.(check int) "count tracks samples" 2 (Reg.Ewma.count e);
  List.iter
    (fun alpha ->
      Alcotest.check_raises
        (Printf.sprintf "alpha %.1f rejected" alpha)
        (Invalid_argument "Registry.Ewma.create: alpha must be in (0, 1]")
        (fun () -> ignore (Reg.Ewma.create ~alpha)))
    [ 0.; -0.5; 1.5 ]

(* --- detector rules against synthetic samples ---------------------------- *)

let node ?(height = 0) ?(crashed = false) ?(rejected = 0) ?(corrupt = 0)
    ?(fails = 0) ?(div = 0) name =
  {
    H.ns_node = name;
    ns_height = height;
    ns_crashed = crashed;
    ns_blocks_rejected = rejected;
    ns_chunks_corrupted = corrupt;
    ns_install_failures = fails;
    ns_divergence_flags = div;
  }

let sample ?(nodes = []) ?(cut = 0) ?(pending = 0) ?(decided = 0)
    ?(aborted = 0) ?(elections = 0) ?(view_changes = 0) ?(agree = true)
    ?(auth_rejected = 0) time =
  {
    H.s_time = time;
    s_nodes = nodes;
    s_blocks_cut = cut;
    s_pending = pending;
    s_decided = decided;
    s_aborted = aborted;
    s_elections = elections;
    s_view_changes = view_changes;
    s_digests_agree = agree;
    s_auth_rejected = auth_rejected;
  }

let transitions alerts =
  List.map
    (fun (a : H.alert) ->
      (H.detector_id a.H.al_detector, H.transition_name a.H.al_transition))
    alerts

let test_first_sample_never_fires () =
  (* even a blatantly unhealthy first sample only seeds baselines *)
  let h = H.create () in
  let s =
    sample 0.1 ~agree:false ~pending:9 ~elections:5 ~view_changes:5
      ~nodes:[ node "a" ~rejected:9 ~corrupt:9 ~fails:2; node "b" ~height:99 ]
  in
  Alcotest.(check (list (pair string string))) "first sample silent" []
    (transitions (H.observe h s));
  Alcotest.(check int) "log empty" 0 (List.length (H.alerts h))

let test_ordering_stall_fires_and_clears () =
  let h = H.create () in
  ignore (H.observe h (sample 0.0));
  (* a cut arrives, then the queue sits non-empty with the counter flat *)
  let fired = ref [] in
  for i = 1 to 15 do
    let t = 0.1 *. float_of_int i in
    fired := !fired @ transitions (H.observe h (sample t ~cut:1 ~pending:3))
  done;
  Alcotest.(check (list (pair string string)))
    "one fire once the stall exceeds stall_s"
    [ ("ordering_stall", "fire") ]
    !fired;
  (* the next cut clears it *)
  Alcotest.(check (list (pair string string)))
    "cut progress clears"
    [ ("ordering_stall", "clear") ]
    (transitions (H.observe h (sample 1.6 ~cut:2 ~pending:3)))

let test_ordering_stall_ignores_idle_gaps () =
  (* regression: the stall clock must not accumulate age across an idle
     (empty-queue) gap — work arriving after 2 s of idleness has waited
     zero seconds, not two *)
  let h = H.create () in
  ignore (H.observe h (sample 0.0 ~cut:1));
  for i = 1 to 20 do
    let t = 0.1 *. float_of_int i in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "idle tick %.1f silent" t)
      []
      (transitions (H.observe h (sample t ~cut:1 ~pending:0)))
  done;
  (* fresh work at t=2.1: not stalled until it has waited stall_s *)
  Alcotest.(check (list (pair string string))) "fresh work not yet a stall" []
    (transitions (H.observe h (sample 2.1 ~cut:1 ~pending:5)));
  Alcotest.(check (list (pair string string))) "still within stall_s" []
    (transitions (H.observe h (sample 3.0 ~cut:1 ~pending:5)));
  Alcotest.(check (list (pair string string)))
    "fires only after waiting stall_s from arrival"
    [ ("ordering_stall", "fire") ]
    (transitions (H.observe h (sample 3.3 ~cut:1 ~pending:5)))

let test_view_change_storm () =
  let h = H.create () in
  ignore (H.observe h (sample 0.0));
  (* the startup Raft election is expected and ignored *)
  Alcotest.(check (list (pair string string))) "first election ignored" []
    (transitions (H.observe h (sample 0.1 ~elections:1)));
  (* a second election is churn *)
  Alcotest.(check (list (pair string string)))
    "re-election fires"
    [ ("view_change_storm", "fire") ]
    (transitions (H.observe h (sample 0.2 ~elections:2)));
  (* quiet until the churn window drains *)
  Alcotest.(check (list (pair string string)))
    "clears once the window drains"
    [ ("view_change_storm", "clear") ]
    (transitions (H.observe h (sample 2.5 ~elections:2)));
  (* BFT view changes count without the startup allowance *)
  let h2 = H.create () in
  ignore (H.observe h2 (sample 0.0));
  Alcotest.(check (list (pair string string)))
    "a view change fires directly"
    [ ("view_change_storm", "fire") ]
    (transitions (H.observe h2 (sample 0.1 ~view_changes:1)))

let test_abort_spike () =
  let h = H.create () in
  ignore (H.observe h (sample 0.0));
  (* 10 decisions, all aborted: EWMA seeds at 1.0 >= ratio, and the
     decided-count gate (>= 8 in window) is satisfied *)
  Alcotest.(check (list (pair string string)))
    "abort wave fires"
    [ ("abort_spike", "fire") ]
    (transitions (H.observe h (sample 0.1 ~decided:10 ~aborted:10)));
  (* commit-only traffic decays the EWMA (factor 0.7/tick); hysteresis
     clears at ratio/2 = 0.25, i.e. after the 5th commit-only wave *)
  let fired = ref [] in
  for i = 1 to 5 do
    let t = 0.1 +. (0.1 *. float_of_int i) in
    fired :=
      !fired
      @ transitions (H.observe h (sample t ~decided:(10 + (10 * i)) ~aborted:10))
  done;
  Alcotest.(check (list (pair string string)))
    "clears after sustained commits"
    [ ("abort_spike", "clear") ]
    !fired;
  (* too few decisions never fire, whatever the fraction *)
  let h2 = H.create () in
  ignore (H.observe h2 (sample 0.0));
  Alcotest.(check (list (pair string string)))
    "below the decided gate stays silent" []
    (transitions (H.observe h2 (sample 0.1 ~decided:3 ~aborted:3)))

let test_replication_lag () =
  let h = H.create () in
  let nodes_at b_height = [ node "a" ~height:20; node "b" ~height:b_height ] in
  ignore (H.observe h (sample 0.0 ~nodes:(nodes_at 20)));
  (* a gap above lag_blocks must be sustained for lag_sustain ticks *)
  Alcotest.(check (list (pair string string))) "tick 1 of the streak" []
    (transitions (H.observe h (sample 0.1 ~nodes:(nodes_at 10))));
  Alcotest.(check (list (pair string string))) "tick 2 of the streak" []
    (transitions (H.observe h (sample 0.2 ~nodes:(nodes_at 10))));
  let fired = H.observe h (sample 0.3 ~nodes:(nodes_at 10)) in
  Alcotest.(check (list (pair string string)))
    "sustained gap fires"
    [ ("replication_lag", "fire") ]
    (transitions fired);
  Alcotest.(check string) "names the lagging node" "b"
    (List.hd fired).H.al_subject;
  (* hysteresis: gap must halve to clear *)
  Alcotest.(check (list (pair string string))) "gap of 3 still firing" []
    (transitions (H.observe h (sample 0.4 ~nodes:(nodes_at 17))));
  Alcotest.(check (list (pair string string)))
    "caught up clears"
    [ ("replication_lag", "clear") ]
    (transitions (H.observe h (sample 0.5 ~nodes:(nodes_at 19))))

let test_snapshot_failure () =
  let h = H.create () in
  ignore (H.observe h (sample 0.0 ~nodes:[ node "a" ]));
  (* a corrupted-chunk streak fires once it reaches corrupt_streak *)
  Alcotest.(check (list (pair string string))) "two corrupt chunks silent" []
    (transitions (H.observe h (sample 0.1 ~nodes:[ node "a" ~corrupt:2 ])));
  Alcotest.(check (list (pair string string)))
    "streak fires"
    [ ("snapshot_failure", "fire") ]
    (transitions (H.observe h (sample 0.2 ~nodes:[ node "a" ~corrupt:3 ])));
  Alcotest.(check (list (pair string string)))
    "clears once the window drains"
    [ ("snapshot_failure", "clear") ]
    (transitions (H.observe h (sample 2.5 ~nodes:[ node "a" ~corrupt:3 ])));
  (* a single failed install outweighs the chunk streak *)
  let h2 = H.create () in
  ignore (H.observe h2 (sample 0.0 ~nodes:[ node "a" ]));
  Alcotest.(check (list (pair string string)))
    "one failed install fires"
    [ ("snapshot_failure", "fire") ]
    (transitions (H.observe h2 (sample 0.1 ~nodes:[ node "a" ~fails:1 ])))

let test_auth_rejection_burst () =
  let h = H.create () in
  ignore (H.observe h (sample 0.0 ~nodes:[ node "a" ]));
  let fired = H.observe h (sample 0.1 ~nodes:[ node "a" ~rejected:1 ]) in
  Alcotest.(check (list (pair string string)))
    "any rejected block fires"
    [ ("auth_rejection_burst", "fire") ]
    (transitions fired);
  Alcotest.(check bool) "critical severity" true
    ((List.hd fired).H.al_severity = H.Critical);
  Alcotest.(check (list (pair string string)))
    "clears once the window drains"
    [ ("auth_rejection_burst", "clear") ]
    (transitions (H.observe h (sample 2.5 ~nodes:[ node "a" ~rejected:1 ])))

let test_divergence_warning () =
  let h = H.create () in
  ignore (H.observe h (sample 0.0));
  Alcotest.(check (list (pair string string)))
    "digest disagreement fires"
    [ ("divergence_warning", "fire") ]
    (transitions (H.observe h (sample 0.1 ~agree:false)));
  Alcotest.(check (list (pair string string)))
    "agreement clears"
    [ ("divergence_warning", "clear") ]
    (transitions (H.observe h (sample 0.2 ~agree:true)));
  (* a node's own checkpoint monitor flag also fires, and holds for the
     evidence window even after the flag count stops moving *)
  let h2 = H.create () in
  ignore (H.observe h2 (sample 0.0 ~nodes:[ node "a" ]));
  Alcotest.(check (list (pair string string)))
    "monitor flag fires"
    [ ("divergence_warning", "fire") ]
    (transitions (H.observe h2 (sample 0.1 ~nodes:[ node "a" ~div:1 ])));
  Alcotest.(check (list (pair string string))) "held inside the window" []
    (transitions (H.observe h2 (sample 0.3 ~nodes:[ node "a" ~div:1 ])))

let test_bookkeeping () =
  let h = H.create () in
  ignore (H.observe h (sample 0.0 ~nodes:[ node "a" ]));
  ignore (H.observe h (sample 0.1 ~agree:false ~nodes:[ node "a" ~rejected:1 ]));
  Alcotest.(check int) "two transitions logged" 2 (List.length (H.alerts h));
  let fires d = (List.find (fun sm -> sm.H.sm_detector = d) (H.summaries h)).H.sm_fires in
  Alcotest.(check int) "divergence fires" 1 (fires H.Divergence_warning);
  Alcotest.(check int) "auth fires" 1 (fires H.Auth_rejection_burst);
  (* a cell is firing when its last logged transition is a fire *)
  let firing =
    List.fold_left
      (fun acc a ->
        let cell = (H.detector_id a.H.al_detector, a.H.al_subject) in
        let rest = List.remove_assoc cell acc in
        if a.H.al_transition = H.Fire then (cell, ()) :: rest else rest)
      [] (H.alerts h)
    |> List.map fst |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "firing cells sorted"
    [ ("auth_rejection_burst", "a"); ("divergence_warning", "cluster") ]
    firing;
  let sm =
    List.find (fun s -> s.H.sm_detector = H.Divergence_warning) (H.summaries h)
  in
  Alcotest.(check int) "summary firing" 1 sm.H.sm_firing;
  Alcotest.(check int) "summary fires" 1 sm.H.sm_fires;
  Alcotest.(check (float 1e-9)) "summary last transition" 0.1 sm.H.sm_last_time;
  Alcotest.(check int) "stream lines = transitions" 2
    (List.length (String.split_on_char '\n' (H.stream h)));
  (* detector ids are distinct, so an id names one detector *)
  let ids = List.map (fun sm -> H.detector_id sm.H.sm_detector) (H.summaries h) in
  Alcotest.(check int) "every detector summarized" 7 (List.length ids);
  Alcotest.(check int) "ids distinct" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

(* --- false-positive freedom (qcheck) ------------------------------------- *)

let prop_clean_runs_silent =
  QCheck.Test.make ~count:20 ~name:"fault-free chaos runs raise zero alerts"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 10_000))
    (fun seed ->
      let r = Chaos.run (Chaos.clean_spec seed) in
      if not r.Chaos.converged then
        QCheck.Test.fail_reportf "seed %d did not converge" seed;
      if r.Chaos.alerts <> [] then
        QCheck.Test.fail_reportf "seed %d raised alerts:@.%s" seed
          r.Chaos.alert_stream;
      let spec = Chaos.clean_spec seed in
      not (List.exists (injects spec) all_faults))

(* --- fault -> alert coverage matrix -------------------------------------- *)

(* Bounds far above the measured latencies (<= 0.8 s / 15 blocks) but
   tight enough that a detector drifting towards uselessness fails. *)
let check_covered name (r : Chaos.report) =
  if not r.Chaos.converged then
    Alcotest.failf "%s did not converge: %a" name Chaos.pp_report r;
  Alcotest.(check (list string))
    (name ^ ": every injected fault class detected")
    []
    (List.map Chaos.fault_id r.Chaos.uncovered_faults);
  List.iter
    (fun (d : Chaos.detection) ->
      match Chaos.detection_latency d with
      | None -> Alcotest.failf "%s: %s undetected" name (Chaos.fault_id d.Chaos.det_fault)
      | Some (secs, blocks) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s detected in %.3fs/%d blocks (bound 3s/25)"
               name
               (Chaos.fault_id d.Chaos.det_fault)
               secs blocks)
            true
            (secs <= 3.0 && blocks <= 25))
    r.Chaos.fault_coverage

let fired_detector (r : Chaos.report) d =
  List.mem_assoc (H.detector_id d) r.Chaos.alerts_fired

(* Run a Chaos.scenarios row: every injected fault class is detected
   within the bounds, and [detector] is among the alerts that fired. *)
let run_covered label detector =
  let r = Chaos.run (Chaos.scenario label) in
  check_covered label r;
  Alcotest.(check bool)
    (label ^ " -> " ^ H.detector_id detector)
    true (fired_detector r detector);
  r

let test_coverage label detector () = ignore (run_covered label detector)

let test_coverage_tamper_and_determinism label detector () =
  (* one spec doubles as the tamper coverage row and the byte-identity
     property: the alert stream is a pure function of the spec *)
  let a = run_covered label detector in
  Alcotest.(check bool) "stream non-empty" true (a.Chaos.alert_stream <> "");
  let b = Chaos.run (Chaos.scenario label) in
  Alcotest.(check string) "alert stream byte-identical across runs"
    a.Chaos.alert_stream b.Chaos.alert_stream;
  Alcotest.(check string) "replicated state byte-identical too"
    a.Chaos.fingerprint b.Chaos.fingerprint

(* The health.coverage cases: name, the Chaos.scenarios row each runs,
   the detector it asserts, and the test. *)
let coverage_cases =
  [
    ("partition -> replication_lag", "partition", H.Replication_lag, test_coverage);
    ("crash -> replication_lag", "crash", H.Replication_lag, test_coverage);
    ("raft leader crash -> storm", "orderer_raft", H.View_change_storm, test_coverage);
    ("bft primary crash -> storm", "orderer_bft", H.View_change_storm, test_coverage);
    ("snapshot corruption -> failure", "snapshot", H.Snapshot_failure, test_coverage);
    ( "tamper -> burst, byte-identical",
      "tamper",
      H.Auth_rejection_burst,
      test_coverage_tamper_and_determinism );
  ]

let test_catalogue_invariants () =
  let labels = List.map (fun (label, _, _) -> label) Chaos.scenarios in
  Alcotest.(check int) "scenario labels are unique"
    (List.length labels)
    (List.length (List.sort_uniq String.compare labels));
  List.iter
    (fun (label, fault, spec) ->
      Alcotest.(check bool)
        (label ^ " injects " ^ Chaos.fault_id fault)
        true
        (injects spec fault))
    Chaos.scenarios;
  List.iter
    (fun (name, label, detector, _) ->
      match List.find_opt (fun (l, _, _) -> l = label) Chaos.scenarios with
      | None -> Alcotest.failf "%s: no scenario %s" name label
      | Some (_, fault, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s expected for %s" name (H.detector_id detector)
               (Chaos.fault_id fault))
            true
            (List.mem detector (Chaos.Testing.expected_alerts fault)))
    coverage_cases

let test_mid_block_crash_no_divergence () =
  (* §3.6 mid-block crashes leave a stored block whose write-set digest
     is recorded only by recovery; the live digest comparison must not
     mistake that window for a state divergence *)
  let r = Chaos.run { (Chaos.scenario "crash") with Chaos.crash_points = true } in
  check_covered "mid-block crash" r;
  Alcotest.(check bool) "no divergence_warning" false
    (fired_detector r H.Divergence_warning)

(* --- sys.alerts / sys.detectors across nodes ----------------------------- *)

let query_ok db ?node sql =
  match B.query db ?node sql with
  | Ok rs -> rs
  | Error e -> Alcotest.failf "%s failed: %s" sql e

let render (rs : Exec.result_set) =
  String.concat "," rs.Exec.columns
  ^ "\n"
  ^ String.concat "\n"
      (List.map
         (fun row ->
           String.concat "|" (Array.to_list (Array.map Value.encode row)))
         rs.Exec.rows)

let test_sys_alerts_identical_across_nodes () =
  (* an equivocating block (validly signed sibling at a known height)
     must light up auth_rejection_burst, and every node's sys.alerts /
     sys.detectors view must serve byte-identical rows — all nodes query
     the one shared engine *)
  let db = B.create { (B.default_config ()) with B.block_size = 2; seed = 23 } in
  B.install_contract db ~name:"setup"
    (Brdb_contracts.Registry.Native
       (fun ctx ->
         ignore
           (Brdb_contracts.Api.execute ctx
              "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")));
  let admin = B.admin db "org1" in
  ignore (B.submit db ~user:admin ~contract:"setup" ~args:[]);
  B.settle db;
  Alcotest.(check int) "no alerts before the fault" 0
    (List.length (B.alerts db));
  let victim = B.peer db 0 in
  let evil =
    Block.sign
      (Block.create ~height:1 ~txs:[] ~metadata:"equivocation"
         ~prev_hash:Block.genesis_hash)
      (Identity.create "orderer/orderer-1")
  in
  ignore
    (Msg.Net.send (B.net db) ~src:"orderer-1" ~dst:(Peer.name victim)
       ~size_bytes:(Msg.size (Msg.Block_deliver evil))
       (Msg.Block_deliver evil));
  B.run db ~seconds:1.0;
  let alerts = B.alerts db in
  Alcotest.(check bool) "equivocation raised an alert" true (alerts <> []);
  Alcotest.(check bool) "it is auth_rejection_burst on the victim" true
    (List.exists
       (fun (a : H.alert) ->
         a.H.al_detector = H.Auth_rejection_burst
         && a.H.al_transition = H.Fire
         && String.equal a.H.al_subject (Peer.name victim))
       alerts);
  let sql =
    "SELECT seq, ts, height, transition, detector, severity, subject, \
     evidence FROM sys.alerts"
  in
  let reference = render (query_ok db ~node:0 sql) in
  Alcotest.(check bool) "sys.alerts has rows" true
    (String.contains reference '\n');
  List.iteri
    (fun i p ->
      Alcotest.(check string)
        (Peer.name p ^ " serves identical sys.alerts bytes")
        reference
        (render (query_ok db ~node:i sql)))
    (B.peers db);
  (* sys.detectors: one row per detector, the burst marked firing *)
  let detectors =
    query_ok db "SELECT detector, firing, fires FROM sys.detectors"
  in
  Alcotest.(check int) "one row per detector"
    (List.length (H.summaries (H.create ())))
    (List.length detectors.Exec.rows);
  let burst_row =
    List.find
      (fun row -> row.(0) = Value.Text "auth_rejection_burst")
      detectors.Exec.rows
  in
  Alcotest.(check bool) "burst row shows a firing subject and a fire" true
    (burst_row.(1) = Value.Int 1 && burst_row.(2) = Value.Int 1)

let suites =
  [
    ( "health.window",
      [
        Alcotest.test_case "window edge cases" `Quick test_window_edges;
        Alcotest.test_case "window shorter than tick" `Quick
          test_window_shorter_than_tick;
        Alcotest.test_case "ewma edge cases" `Quick test_ewma_edges;
      ] );
    ( "health.detectors",
      [
        Alcotest.test_case "first sample never fires" `Quick
          test_first_sample_never_fires;
        Alcotest.test_case "ordering stall" `Quick
          test_ordering_stall_fires_and_clears;
        Alcotest.test_case "stall ignores idle gaps" `Quick
          test_ordering_stall_ignores_idle_gaps;
        Alcotest.test_case "view-change storm" `Quick test_view_change_storm;
        Alcotest.test_case "abort spike" `Quick test_abort_spike;
        Alcotest.test_case "replication lag" `Quick test_replication_lag;
        Alcotest.test_case "snapshot failure" `Quick test_snapshot_failure;
        Alcotest.test_case "auth rejection burst" `Quick
          test_auth_rejection_burst;
        Alcotest.test_case "divergence warning" `Quick test_divergence_warning;
        Alcotest.test_case "bookkeeping" `Quick test_bookkeeping;
      ] );
    ( "health.coverage",
      (QCheck_alcotest.to_alcotest prop_clean_runs_silent
      :: List.map
          (fun (name, label, detector, test) ->
            Alcotest.test_case name `Quick (test label detector))
          coverage_cases
      @ [
          Alcotest.test_case "catalogue invariants" `Quick
            test_catalogue_invariants;
          Alcotest.test_case "mid-block crash, no divergence" `Quick
            test_mid_block_crash_no_divergence;
        ]) );
    ( "health.sysviews",
      [
        Alcotest.test_case "sys.alerts identical across nodes" `Quick
          test_sys_alerts_identical_across_nodes;
      ] );
  ]
