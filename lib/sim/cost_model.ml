type contract_class = Simple | Complex_join | Complex_group | Custom of float

type t = {
  cores : int;
  tet_simple : float;
  tet_complex_join : float;
  tet_complex_group : float;
  oe_start : float;
  oe_commit : float;
  eo_check : float;
  eo_commit : float;
  eo_contention : float;
  serial_overhead : float;
  block_const : float;
  auth_cost : float;
}

(* Calibrated against Tables 4/5 of the paper:
   - OE, bs=100 @2100tps: bet 47ms -> 0.45ms/txn start + 0.2ms exec on 32
     cores; bct 8.3ms -> 0.083ms/txn; peak ~1800 tps.
   - EO, bs=100 @2400tps: bet 18.6ms -> 0.18ms/txn check; bct 16.7ms ->
     0.167ms/txn; peak ~2700 tps.
   - complex-join tet = 160x simple (§5.2). complex-group gives ~1.75x the
     complex-join peak, hence ~1/1.75 of its execution time. *)
let default =
  {
    cores = 32;
    tet_simple = 0.0002;
    tet_complex_join = 0.032;
    tet_complex_group = 0.0183;
    oe_start = 0.00045;
    oe_commit = 0.000083;
    eo_check = 0.00018;
    eo_commit = 0.000167;
    eo_contention = 0.00004;
    serial_overhead = 0.00055;
    block_const = 0.0005;
    auth_cost = 0.00005;
  }

let tet t = function
  | Simple -> t.tet_simple
  | Complex_join -> t.tet_complex_join
  | Complex_group -> t.tet_complex_group
  | Custom x -> x

(* The one place `cores` arithmetic lives: the makespan of [n] jobs of
   duration [d] on [cores] slots, d * ceil(n/cores), the closed form the
   calibration used, so the closed-form model and the wave scheduler
   (Cpu.run_waves) charge identical time for conflict-free blocks. Summed
   one round at a time rather than multiplied, as the busiest slot of a
   greedy earliest-free placement accumulates it. *)
let parallel_time ~cores ~n d =
  if cores < 1 then invalid_arg "Cost_model.parallel_time: cores < 1";
  let d = Float.max 0. d in
  let rec rounds acc k = if k <= 0 then acc else rounds (acc +. d) (k - 1) in
  rounds 0. ((max 0 n + cores - 1) / cores)

let oe_bet t ~n ~tet =
  if n = 0 then 0.
  else
    (float_of_int n *. t.oe_start)
    +. parallel_time ~cores:t.cores ~n tet

let oe_bct t ~n = float_of_int n *. t.oe_commit

let eo_bet t ~n ~missing ~tet =
  (float_of_int n *. t.eo_check)
  +. parallel_time ~cores:t.cores ~n:missing tet

let eo_bct t ~n = float_of_int n *. t.eo_commit

let eo_tet t ~tet ~active = tet +. (t.eo_contention *. float_of_int active)

let serial_bpt t ~n ~tet =
  t.block_const
  +. (float_of_int n *. (t.oe_start +. tet +. t.oe_commit +. t.serial_overhead))
