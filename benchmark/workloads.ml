(* The seed schema, the contracts, and the four workloads' configurations
   and generated calls. Every input is drawn from a [Brdb_sim.Rng] seeded
   by the run's seed, so the same seed gives the same calls. *)

module B = Brdb_core.Blockchain_db
module Value = Brdb_storage.Value
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api
module Node_core = Brdb_node.Node_core
module Service = Brdb_consensus.Service
module Cost_model = Brdb_sim.Cost_model
module Rng = Brdb_sim.Rng

type kind = Oe_insert | Eo_group | Oe_hot_rmw | Eo_sessions

let all = [ Oe_insert; Eo_group; Oe_hot_rmw; Eo_sessions ]

let name = function
  | Oe_insert -> "oe_insert"
  | Eo_group -> "eo_group"
  | Oe_hot_rmw -> "oe_hot_rmw"
  | Eo_sessions -> "eo_sessions"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

(* --- seed schema ----------------------------------------------------------- *)

let kv_rows = 20_000

let hot_rows = 10

let n_parts = 1_000

let n_groups = 20

let n_orders = 20_000

let n_customers = 500

let n_accounts = 10_000

let n_branches = 100

let opening_balance = 1_000

(* Rows per load transaction. Each load is settled alone, so it fills one
   block: the first block of a table is the one verified reads prove. *)
let rows_per_load = 1_000

let schema_contract =
  Registry.Native
    (fun ctx ->
      List.iter
        (fun sql -> ignore (Api.execute ctx sql))
        [
          "CREATE TABLE kvstore (k INT PRIMARY KEY, v INT)";
          "CREATE TABLE parts (part_id INT PRIMARY KEY, price INT, grp INT)";
          "CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, \
           part_id INT, qty INT)";
          "CREATE INDEX orders_customer ON orders (customer_id)";
          "CREATE TABLE summary (id INT PRIMARY KEY, customer_id INT, best INT)";
          "CREATE TABLE accounts (id INT PRIMARY KEY, branch INT, bal INT)";
          "CREATE INDEX accounts_branch ON accounts (branch)";
        ])

let row table i =
  match table with
  | "kvstore" when i < 0 -> Printf.sprintf "(%d, 0)" i
  | "kvstore" -> Printf.sprintf "(%d, %d)" i (i mod 997)
  | "parts" -> Printf.sprintf "(%d, %d, %d)" i ((i mod 50) + 1) (i mod n_groups)
  | "orders" ->
      Printf.sprintf "(%d, %d, %d, %d)" i (i mod n_customers)
        (i * 7919 mod n_parts)
        ((i mod 7) + 1)
  | "accounts" -> Printf.sprintf "(%d, %d, %d)" i (i mod n_branches) opening_balance
  | _ -> invalid_arg ("load: unknown table " ^ table)

(* load(table, first, count): one multi-row INSERT. *)
let load_contract =
  Registry.Native
    (fun ctx ->
      let table = Api.arg_text ctx 1 in
      let first = Api.arg_int ctx 2 and count = Api.arg_int ctx 3 in
      let rows = List.init count (fun j -> row table (first + j)) in
      ignore
        (Api.execute ctx
           (Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " rows))))

let contract_sources =
  [
    ("bm_insert", "INSERT INTO kvstore VALUES ($1, $2)");
    ( "bm_hot_rmw",
      "LET cur = SELECT v FROM kvstore WHERE k = $1;\n\
       REQUIRE :cur IS NOT NULL;\n\
       UPDATE kvstore SET v = :cur + 1 WHERE k = $1" );
    ( "bm_group",
      "LET best = SELECT SUM(o.qty * p.price) AS t FROM orders o JOIN parts p ON \
       o.part_id = p.part_id WHERE o.customer_id = $2 GROUP BY p.grp ORDER BY t \
       DESC LIMIT 1;\n\
       INSERT INTO summary VALUES ($1, $2, COALESCE(:best, 0))" );
    (* $3 is a per-call nonce: EO transaction ids hash (user, args,
       snapshot), so two equal deposits by one session must still differ *)
    ("bm_deposit", "UPDATE accounts SET bal = bal + $2 WHERE id = $1");
  ]

let contract_class = function
  | "bm_group" -> Cost_model.Complex_group
  | _ -> Cost_model.Simple

(* Every contract, parsed and determinism-checked once, so the cluster and
   the replay node install identical bodies. *)
let contracts =
  lazy
    (("bm_schema", schema_contract)
    :: ("bm_load", load_contract)
    :: List.map
         (fun (n, src) ->
           match Brdb_contracts.Procedural.parse src with
           | Error e -> failwith (n ^ ": " ^ e)
           | Ok program -> (
               match Brdb_contracts.Determinism.check_program program with
               | Error e -> failwith (n ^ ": " ^ e)
               | Ok () -> (n, Registry.Procedural program)))
         contract_sources)

(* The read SELECT of each workload's contract, with the parameters taken
   from a transaction's arguments (engine.query_us). *)
let read_select kind (args : Value.t list) =
  match (kind, args) with
  | (Oe_insert | Oe_hot_rmw), k :: _ -> ("SELECT v FROM kvstore WHERE k = $1", [| k |])
  | Eo_group, [ _; c ] ->
      ( "SELECT SUM(o.qty * p.price) AS t FROM orders o JOIN parts p ON \
         o.part_id = p.part_id WHERE o.customer_id = $1 GROUP BY p.grp ORDER BY t \
         DESC LIMIT 1",
        [| c |] )
  | Eo_sessions, k :: _ -> ("SELECT bal FROM accounts WHERE id = $1", [| k |])
  | _ -> invalid_arg "read_select: unexpected arguments"

(* --- workload shapes --------------------------------------------------------- *)

type shape = {
  flow : Node_core.flow;
  block_size : int;
  block_timeout : float;
  forward_delay : float;
  rate : float;  (** open-loop arrivals per simulated second; 0 = closed loop *)
  sim_seconds : float;  (** simulated length of the full-length window *)
}

let shape = function
  | Oe_insert ->
      {
        flow = Node_core.Order_execute;
        block_size = 500;
        block_timeout = 1.0;
        forward_delay = 0.;
        rate = 1500.;
        sim_seconds = 35.;
      }
  | Eo_group ->
      {
        flow = Node_core.Execute_order;
        block_size = 100;
        block_timeout = 1.0;
        forward_delay = 0.012;
        rate = 800.;
        sim_seconds = 20.;
      }
  | Oe_hot_rmw ->
      {
        flow = Node_core.Order_execute;
        block_size = 50;
        block_timeout = 1.0;
        forward_delay = 0.;
        rate = 500.;
        sim_seconds = 20.;
      }
  | Eo_sessions ->
      {
        flow = Node_core.Execute_order;
        block_size = 50;
        block_timeout = 0.05;
        forward_delay = 0.;
        rate = 0.;
        sim_seconds = 30.;
      }

let config kind ~seed =
  let s = shape kind in
  {
    (B.default_config ()) with
    B.flow = s.flow;
    ordering = Service.Kafka;
    n_orderers = 3;
    block_size = s.block_size;
    block_timeout = s.block_timeout;
    forward_delay_mean = s.forward_delay;
    contract_class_of = contract_class;
    seed;
  }

(* Load transactions of the seed schema, in commit order. *)
let loads kind =
  let table name count =
    List.init
      ((count + rows_per_load - 1) / rows_per_load)
      (fun b ->
        let first = b * rows_per_load in
        (name, first, min rows_per_load (count - first)))
  in
  table "kvstore" kv_rows
  @ [ ("kvstore", -hot_rows, hot_rows) ]
  @ table "parts" n_parts @ table "orders" n_orders
  @ if kind = Eo_sessions then table "accounts" n_accounts else []

(* --- generated calls --------------------------------------------------------- *)

(* One open-loop arrival: due time (simulated s), contract, arguments. *)
type call = { due : float; contract : string; args : Value.t list }

let arrivals kind rng ~sim_seconds =
  let s = shape kind in
  let rec go acc i t =
    let t = t +. Rng.exponential rng ~mean:(1. /. s.rate) in
    if t >= sim_seconds then List.rev acc
    else
      let call =
        match kind with
        | Oe_insert ->
            {
              due = t;
              contract = "bm_insert";
              args = [ Value.Int (kv_rows + i); Value.Int (Rng.int rng 1000) ];
            }
        | Eo_group ->
            {
              due = t;
              contract = "bm_group";
              args = [ Value.Int i; Value.Int (Rng.int rng n_customers) ];
            }
        | Oe_hot_rmw ->
            { due = t; contract = "bm_hot_rmw"; args = [ Value.Int (-1 - Rng.int rng hot_rows) ] }
        | Eo_sessions -> invalid_arg "arrivals: eo_sessions is a closed loop"
      in
      go (call :: acc) (i + 1) t
  in
  go [] 0 0.

(* eo_sessions: 16 logical sessions, called in turn every round; every
   32nd session turn also does a verified read. *)
let sessions = 16

let verified_every = 32

let round_gap = 0.05

(* One session turn: the key it reads, the branch it aggregates, whether
   it does a verified read (and of which key), and its deposit. *)
type turn = {
  read_key : int;
  branch : int;
  verified_key : int option;
  deposit_key : int;
  amount : int;
}

let turn rng ~index =
  let read_key = Rng.int rng n_accounts in
  let branch = Rng.int rng n_branches in
  let verified_key =
    if index mod verified_every = 0 then Some (Rng.int rng rows_per_load) else None
  in
  let deposit_key = rows_per_load + Rng.int rng (n_accounts - rows_per_load) in
  let amount = 1 + Rng.int rng 100 in
  { read_key; branch; verified_key; deposit_key; amount }
