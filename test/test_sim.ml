open Brdb_sim

let test_clock_ordering () =
  let c = Clock.create () in
  let log = ref [] in
  Clock.schedule c ~delay:2.0 (fun () -> log := "b" :: !log);
  Clock.schedule c ~delay:1.0 (fun () -> log := "a" :: !log);
  Clock.schedule c ~delay:3.0 (fun () -> log := "c" :: !log);
  let n = Clock.run c in
  Alcotest.(check int) "events" 3 n;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "time" 3.0 (Clock.now c)

let test_clock_same_instant_fifo () =
  let c = Clock.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Clock.schedule c ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Clock.run c);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_nested_scheduling () =
  let c = Clock.create () in
  let log = ref [] in
  Clock.schedule c ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Clock.schedule c ~delay:0.5 (fun () -> log := "inner" :: !log));
  ignore (Clock.run c);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "time" 1.5 (Clock.now c)

let test_clock_until () =
  let c = Clock.create () in
  let fired = ref 0 in
  Clock.schedule c ~delay:1.0 (fun () -> incr fired);
  Clock.schedule c ~delay:10.0 (fun () -> incr fired);
  let n = Clock.run ~until:5.0 c in
  Alcotest.(check int) "one fired" 1 n;
  Alcotest.(check (float 1e-9)) "time advanced to until" 5.0 (Clock.now c);
  Alcotest.(check int) "the later event still pending" 1 (Clock.run c)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a) (Rng.float b)
  done;
  let c = Rng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" true
    (Rng.float (Rng.create ~seed:42) <> Rng.float c)

let test_rng_ranges () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "unit range" true (f >= 0. && f < 1.);
    let i = Rng.int r 10 in
    Alcotest.(check bool) "int range" true (i >= 0 && i < 10);
    let e = Rng.exponential r ~mean:2.0 in
    Alcotest.(check bool) "exp nonneg" true (e >= 0.)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:0.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean approx 0.5" true (abs_float (mean -. 0.5) < 0.02)

module Net = Network.Make (struct
  type payload = string
end)

let test_network_delivery () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:1 in
  let net = Net.create ~clock ~rng ~default_link:Network.lan_link in
  let inbox = ref [] in
  Net.register net ~name:"b" (fun ~src payload -> inbox := (src, payload) :: !inbox);
  ignore (Net.send net ~src:"a" ~dst:"b" ~size_bytes:100 "hello");
  ignore (Net.send net ~src:"a" ~dst:"nobody" ~size_bytes:100 "dropped");
  ignore (Clock.run clock);
  Alcotest.(check (list (pair string string))) "delivered" [ ("a", "hello") ] !inbox;
  Alcotest.(check int) "only one delivered" 1 (Net.delivered net);
  Alcotest.(check int) "bytes counted for both" 200 (Net.bytes_sent net);
  (* the silent drop to an unregistered destination is now visible *)
  Alcotest.(check int) "drop to dead node counted" 1 (Net.dropped net)

let test_network_drop_fault () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:2 in
  let net = Net.create ~clock ~rng ~default_link:Network.lan_link in
  let got = ref 0 in
  Net.register net ~name:"b" (fun ~src:_ _ -> incr got);
  Net.set_fault net ~src:"a" ~dst:"b" { Network.drop = 1.0; duplicate = 0.; corrupt = 0. };
  ignore (Net.send net ~src:"a" ~dst:"b" ~size_bytes:10 "x");
  ignore (Clock.run clock);
  Alcotest.(check int) "all dropped" 0 !got;
  Alcotest.(check int) "counted" 1 (Net.dropped net);
  (* clearing the fault restores delivery *)
  Net.set_fault net ~src:"a" ~dst:"b" { Network.drop = 0.; duplicate = 0.; corrupt = 0. };
  ignore (Net.send net ~src:"a" ~dst:"b" ~size_bytes:10 "y");
  ignore (Clock.run clock);
  Alcotest.(check int) "delivered after clear" 1 !got;
  (* a partial drop rate loses roughly that fraction, deterministically *)
  Net.set_fault net ~src:"a" ~dst:"b" { Network.drop = 0.3; duplicate = 0.; corrupt = 0. };
  for _ = 1 to 1000 do
    ignore (Net.send net ~src:"a" ~dst:"b" ~size_bytes:10 "z")
  done;
  ignore (Clock.run clock);
  let lost = Net.dropped net - 1 in
  Alcotest.(check bool) "~30% lost" true (lost > 230 && lost < 370)

let test_network_duplicate_fault () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:3 in
  let net = Net.create ~clock ~rng ~default_link:Network.lan_link in
  let got = ref 0 in
  Net.register net ~name:"b" (fun ~src:_ _ -> incr got);
  Net.set_fault net ~src:"a" ~dst:"b" { Network.drop = 0.; duplicate = 1.0; corrupt = 0. };
  ignore (Net.send net ~src:"a" ~dst:"b" ~size_bytes:10 "x");
  ignore (Clock.run clock);
  Alcotest.(check int) "delivered twice" 2 !got;
  Alcotest.(check int) "duplication counted" 1 (Net.duplicated net);
  Alcotest.(check int) "both deliveries counted" 2 (Net.delivered net)

let test_network_partition_heal () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:4 in
  let net = Net.create ~clock ~rng ~default_link:Network.lan_link in
  let inbox = ref [] in
  List.iter
    (fun n -> Net.register net ~name:n (fun ~src payload -> inbox := (src, n, payload) :: !inbox))
    [ "a"; "b"; "c" ];
  Net.partition net ~name:"split" ~members:[ "c" ];
  ignore (Net.send net ~src:"a" ~dst:"c" ~size_bytes:10 "cut");
  ignore (Net.send net ~src:"c" ~dst:"a" ~size_bytes:10 "cut");
  ignore (Net.send net ~src:"a" ~dst:"b" ~size_bytes:10 "same side");
  ignore (Clock.run clock);
  Alcotest.(check (list (triple string string string)))
    "only the same-side message arrived"
    [ ("a", "b", "same side") ]
    !inbox;
  Alcotest.(check int) "partition drops counted" 2 (Net.dropped net);
  Net.heal net ~name:"split";
  ignore (Net.send net ~src:"a" ~dst:"c" ~size_bytes:10 "healed");
  ignore (Clock.run clock);
  Alcotest.(check bool) "healed link delivers" true
    (List.mem ("a", "c", "healed") !inbox)

let test_network_fault_free_stream_unchanged () =
  (* configuring no faults must not consume extra rng draws: two nets with
     the same seed, one with a fault set on an UNUSED link, produce
     identical delays on the used link *)
  let delays seed with_fault =
    let clock = Clock.create () in
    let rng = Rng.create ~seed in
    let net = Net.create ~clock ~rng ~default_link:Network.wan_link in
    Net.register net ~name:"b" (fun ~src:_ _ -> ());
    if with_fault then
      Net.set_fault net ~src:"x" ~dst:"y" { Network.drop = 0.5; duplicate = 0.5; corrupt = 0. };
    List.init 20 (fun _ -> Net.send net ~src:"a" ~dst:"b" ~size_bytes:100 "m")
  in
  Alcotest.(check (list (float 1e-12)))
    "same jitter stream" (delays 9 false) (delays 9 true)

let test_network_latency_model () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:1 in
  let net = Net.create ~clock ~rng ~default_link:Network.wan_link in
  let arrival = ref 0. in
  Net.register net ~name:"b" (fun ~src:_ _ -> arrival := Clock.now clock);
  let d = Net.send net ~src:"a" ~dst:"b" ~size_bytes:1_000_000 "big" in
  ignore (Clock.run clock);
  (* 8 Mbit over 55 Mbps ~ 145 ms plus ~50 ms latency *)
  Alcotest.(check bool) "transfer dominates" true (d > 0.150 && d < 0.250);
  Alcotest.(check (float 1e-9)) "arrival = delay" d !arrival;
  (* LAN is much faster *)
  let clock2 = Clock.create () in
  let net2 = Net.create ~clock:clock2 ~rng ~default_link:Network.lan_link in
  Net.register net2 ~name:"b" (fun ~src:_ _ -> ());
  let d2 = Net.send net2 ~src:"a" ~dst:"b" ~size_bytes:1_000_000 "big" in
  Alcotest.(check bool) "lan faster" true (d2 < d /. 10.)

let test_cpu_serialization () =
  let clock = Clock.create () in
  let cpu = Cpu.create clock in
  let finish = ref [] in
  Cpu.run cpu ~cost:1.0 (fun () -> finish := ("a", Clock.now clock) :: !finish);
  Cpu.run cpu ~cost:1.0 (fun () -> finish := ("b", Clock.now clock) :: !finish);
  ignore (Clock.run clock);
  match List.rev !finish with
  | [ ("a", ta); ("b", tb) ] ->
      Alcotest.(check (float 1e-9)) "a at 1s" 1.0 ta;
      Alcotest.(check (float 1e-9)) "b queued behind a" 2.0 tb
  | _ -> Alcotest.fail "wrong completion order"

let test_cpu_run_waves () =
  let clock = Clock.create () in
  let cpu = Cpu.create ~cores:2 clock in
  Alcotest.(check int) "cores" 2 (Cpu.cores cpu);
  let seen = ref None in
  Cpu.run_waves cpu ~head:0.5 ~tail:0.25 ~waves:[| 0; 0; 0; 1 |]
    ~costs:[| 1.0; 1.0; 1.0; 1.0 |] (fun stats ->
      seen := Some (stats, Clock.now clock));
  ignore (Clock.run clock);
  match !seen with
  | None -> Alcotest.fail "run_waves callback never fired"
  | Some (stats, t) ->
      Alcotest.(check int) "waves" 2 stats.Cpu.wave_count;
      (* wave 0: three 1 s jobs on 2 cores -> 2 s; wave 1: one job -> 1 s;
         head 0.5 shifts the start, tail 0.25 trails the last wave *)
      Alcotest.(check (float 1e-9)) "exec elapsed" 3.0 stats.Cpu.exec_elapsed;
      Alcotest.(check (float 1e-9)) "exec busy" 4.0 stats.Cpu.exec_busy;
      Alcotest.(check (float 1e-9)) "completion" 3.75 t

let test_workload_poisson_rate () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:5 in
  let count = ref 0 in
  Workload.run ~clock ~rng ~rate:100. ~duration:10. ~submit:(fun _ -> incr count);
  ignore (Clock.run clock);
  (* ~1000 arrivals expected; Poisson sd ~ 32 *)
  Alcotest.(check bool) "rate approx" true (!count > 850 && !count < 1150)

let test_cost_model_shapes () =
  let m = Cost_model.default in
  (* Calibration targets from Tables 4/5 (within 20%). *)
  let close msg expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.4f vs %.4f" msg expected actual)
      true
      (abs_float (actual -. expected) /. expected < 0.25)
  in
  let tet = Cost_model.tet m Cost_model.Simple in
  close "OE bet bs=100" 0.047 (Cost_model.oe_bet m ~n:100 ~tet);
  close "OE bet bs=500" 0.245 (Cost_model.oe_bet m ~n:500 ~tet);
  close "OE bct bs=100" 0.0083 (Cost_model.oe_bct m ~n:100);
  close "EO bet bs=100" 0.0186 (Cost_model.eo_bet m ~n:100 ~missing:0 ~tet);
  close "EO bct bs=100" 0.0167 (Cost_model.eo_bct m ~n:100);
  (* complex-join is ~160x simple *)
  let r = Cost_model.tet m Cost_model.Complex_join /. tet in
  Alcotest.(check bool) "160x" true (r > 140. && r < 180.);
  (* serial baseline peaks near 800 tps at bs=100 *)
  let serial_tput = 100. /. Cost_model.serial_bpt m ~n:100 ~tet in
  Alcotest.(check bool) "serial ~800tps" true (serial_tput > 650. && serial_tput < 950.);
  (* OE peak ~1800, EO peak ~2700 at bs=100 *)
  let oe_peak =
    100. /. (Cost_model.oe_bet m ~n:100 ~tet +. Cost_model.oe_bct m ~n:100)
  in
  let eo_peak =
    100. /. (Cost_model.eo_bet m ~n:100 ~missing:0 ~tet +. Cost_model.eo_bct m ~n:100)
  in
  Alcotest.(check bool) "OE peak ~1800" true (oe_peak > 1500. && oe_peak < 2100.);
  Alcotest.(check bool) "EO peak ~2700" true (eo_peak > 2400. && eo_peak < 3100.);
  Alcotest.(check bool) "EO > OE" true (eo_peak > oe_peak *. 1.3)

let test_parallel_time_makespan () =
  (* With no per-transaction start or check cost, the block estimates are
     the bare makespan of their executed jobs. *)
  let bare cores =
    { Cost_model.default with Cost_model.oe_start = 0.; eo_check = 0.; cores }
  in
  Alcotest.(check (float 0.)) "empty" 0.
    (Cost_model.eo_bet (bare 4) ~n:9 ~missing:0 ~tet:0.2);
  (* uniform jobs degrade to the old ceil-div arithmetic: ceil(9/4) rounds *)
  Alcotest.(check (float 1e-9)) "uniform = ceil-div rounds" 0.6
    (Cost_model.oe_bet (bare 4) ~n:9 ~tet:0.2);
  Alcotest.(check (float 1e-9)) "EO executes only the missing" 0.6
    (Cost_model.eo_bet (bare 4) ~n:100 ~missing:9 ~tet:0.2);
  Alcotest.check_raises "no cores" (Invalid_argument "Cost_model.parallel_time: cores < 1")
    (fun () -> ignore (Cost_model.oe_bet (bare 0) ~n:1 ~tet:0.2));
  (* the closed-form oe_bet still equals the pre-refactor ceil-div form *)
  let m = Cost_model.default in
  let tet = Cost_model.tet m Cost_model.Simple in
  let ceil_div a b = (a + b - 1) / b in
  let old_form =
    (100. *. m.Cost_model.oe_start)
    +. (tet *. float_of_int (ceil_div 100 m.Cost_model.cores))
  in
  Alcotest.(check (float 1e-12)) "oe_bet = ceil-div form" old_form
    (Cost_model.oe_bet m ~n:100 ~tet)

(* Simulation metrics are recorded into [Brdb_obs.Registry]; its [Stat]
   histogram backs every latency and per-block percentile. *)
let test_stat_percentile_edges () =
  let module Stat = Brdb_obs.Registry.Stat in
  let stat values =
    let s = Stat.create () in
    List.iter (Stat.add s) values;
    s
  in
  let check_all msg values expected =
    List.iter
      (fun q ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s p%g" msg q)
          expected
          (Stat.percentile (stat values) q))
      [ 0.; 50.; 95.; 100. ]
  in
  check_all "empty" [] 0.;
  check_all "single" [ 42. ] 42.;
  (* duplicates: percentiles sit on the repeated value *)
  check_all "dupes" [ 7.; 7.; 7.; 7. ] 7.;
  let s = stat [ 5.; 1.; 3.; 2.; 4. ] in
  Alcotest.(check (float 0.)) "p0 = min" (Stat.min s) (Stat.percentile s 0.);
  Alcotest.(check (float 0.)) "p100 = max" (Stat.max s) (Stat.percentile s 100.);
  Alcotest.(check bool) "monotone" true
    (Stat.percentile s 25. <= Stat.percentile s 75.);
  (* samples are retained in insertion order *)
  Alcotest.(check (list (float 0.)))
    "samples order" [ 5.; 1.; 3.; 2.; 4. ] (Stat.samples s)

let suites =
  [
    ( "sim.clock",
      [
        Alcotest.test_case "ordering" `Quick test_clock_ordering;
        Alcotest.test_case "same-instant fifo" `Quick test_clock_same_instant_fifo;
        Alcotest.test_case "nested" `Quick test_clock_nested_scheduling;
        Alcotest.test_case "until" `Quick test_clock_until;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "ranges" `Quick test_rng_ranges;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
      ] );
    ( "sim.network",
      [
        Alcotest.test_case "delivery" `Quick test_network_delivery;
        Alcotest.test_case "latency model" `Quick test_network_latency_model;
        Alcotest.test_case "drop fault" `Quick test_network_drop_fault;
        Alcotest.test_case "duplicate fault" `Quick test_network_duplicate_fault;
        Alcotest.test_case "partition and heal" `Quick test_network_partition_heal;
        Alcotest.test_case "fault-free rng stream unchanged" `Quick
          test_network_fault_free_stream_unchanged;
      ] );
    ( "sim.cpu",
      [
        Alcotest.test_case "serialization" `Quick test_cpu_serialization;
        Alcotest.test_case "wave scheduling" `Quick test_cpu_run_waves;
      ] );
    ( "sim.workload",
      [
        Alcotest.test_case "poisson rate" `Quick test_workload_poisson_rate;
      ] );
    ( "sim.cost_model",
      [
        Alcotest.test_case "calibration shapes" `Quick test_cost_model_shapes;
        Alcotest.test_case "parallel_time makespan" `Quick
          test_parallel_time_makespan;
      ] );
    ( "sim.metrics",
      [
        Alcotest.test_case "percentile edge cases" `Quick
          test_stat_percentile_edges;
      ] );
  ]
