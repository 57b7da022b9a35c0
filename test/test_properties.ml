(** End-to-end property tests for the paper's core claims:

    1. {b Serializability}: whatever subset of a block's transactions the
       node commits, there is a serial order — a topological order of the
       committed transactions' rw-dependency graph — whose one-at-a-time
       replay on a fresh node reproduces the same final state. (The serial
       order need not be the block order: rw antidependencies may point
       against the commit order; SSI only guarantees acyclicity.) A cycle
       among committed transactions fails the test outright.

    2. {b Cross-node determinism}: independent nodes processing the same
       blocks reach identical commit decisions and identical write-set
       hashes — under contended workloads and in both flows.

    Transactions are random read-compute-write programs over a tiny,
    hot keyspace to maximize conflicts. *)

open Brdb_node
module Block = Brdb_ledger.Block
module Assembler = Brdb_consensus.Assembler
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api

(* Failure-message rendering of a decision. *)
let status_to_string = function
  | Node_core.S_committed -> "committed"
  | Node_core.S_aborted r -> "aborted: " ^ Brdb_txn.Txn.abort_reason_to_string r
  | Node_core.S_rejected r -> "rejected: " ^ r

let keyspace = 5

(* A transaction: read [r1] and [r2], then add a value derived from the
   reads to key [w]. The write depends on the reads, so any missed rw
   anomaly shows up in the final state. *)
type op = { r1 : int; r2 : int; w : int; delta : int }

let op_args o = [ Value.Int o.r1; Value.Int o.r2; Value.Int o.w; Value.Int o.delta ]

let rw_contract =
  Registry.Native
    (fun ctx ->
      let read k =
        Api.set_local ctx "k" (Value.Int k);
        match Api.query1 ctx "SELECT v FROM kv WHERE k = :k" with
        | Some (Value.Int v) -> v
        | _ -> Api.fail "missing key"
      in
      let a = read (Api.arg_int ctx 1) in
      let b = read (Api.arg_int ctx 2) in
      let delta = Api.arg_int ctx 4 in
      Api.set_local ctx "w" (Value.Int (Api.arg_int ctx 3));
      Api.set_local ctx "nv" (Value.Int (delta + ((a + (2 * b)) mod 7)));
      ignore (Api.execute ctx "UPDATE kv SET v = v + :nv WHERE k = :w"))

let setup_contract =
  Registry.Native
    (fun ctx ->
      ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
      for k = 0 to keyspace - 1 do
        Api.set_local ctx "k" (Value.Int k);
        ignore (Api.execute ctx "INSERT INTO kv VALUES (:k, 100)")
      done)

(* ----------------------------------------------------------- infrastructure *)

let orderer = Identity.create "orderer/prop"

let client = Identity.create "org1/prop"

let admin = Identity.create "org1/admin"

let registry () =
  let r = Identity.Registry.create () in
  List.iter
    (fun id ->
      match Identity.Registry.register r id with Ok () -> () | Error _ -> assert false)
    [ orderer; client; admin ];
  r

let make_node ~flow ~registry name =
  let node =
    Node_core.create
      (Node_core.make_config ~name ~org:"org1" ~flow ~orgs:[ "org1" ] ())
      ~registry
  in
  Node_core.bootstrap node;
  Node_core.install_contract node ~name:"setup" setup_contract;
  Node_core.install_contract node ~name:"rw" rw_contract;
  node

let new_chain () = Chain.create ~identity:orderer ~metadata:"p"

let process node block =
  match Node_core.process_block node block with
  | Ok r -> r
  | Error e -> QCheck.Test.fail_reportf "process_block: %s" e

let init_node node chain_tx =
  let r = process node chain_tx in
  match r.Node_core.br_statuses with
  | [ (_, Node_core.S_committed) ] -> ()
  | _ -> QCheck.Test.fail_report "setup tx failed"

let state_of node =
  match Node_core.query node "SELECT k, v FROM kv ORDER BY k" with
  | Ok rs ->
      List.map
        (fun row -> Array.to_list (Array.map Value.to_string row))
        rs.Brdb_engine.Exec.rows
  | Error e -> QCheck.Test.fail_reportf "query: %s" e

(* ------------------------------------------------------------- generators *)

let gen_op =
  QCheck.Gen.(
    map
      (fun (r1, r2, w, delta) -> { r1; r2; w; delta })
      (quad (int_bound (keyspace - 1)) (int_bound (keyspace - 1))
         (int_bound (keyspace - 1)) (int_bound 9)))

let gen_ops = QCheck.Gen.(list_size (2 -- 12) gen_op)

let print_ops ops =
  String.concat ";"
    (List.map (fun o -> Printf.sprintf "r%d,r%d->w%d+%d" o.r1 o.r2 o.w o.delta) ops)

let arbitrary_ops = QCheck.make ~print:print_ops gen_ops

(* One OE tx per op, unique ids derived from position. *)
let txs_of_ops ops =
  List.mapi
    (fun i o ->
      Block.make_tx ~id:(Printf.sprintf "p-%d" i) ~identity:client ~contract:"rw"
        ~args:(op_args o))
    ops


(* Serial-equivalence order for a committed subset: A must precede B when
   A read a key that B wrote (rw antidependency; same-snapshot execution
   means nobody reads anybody's in-block writes; two committed
   transactions never write the same key within a block thanks to
   first-committer-wins). Deterministic Kahn toposort, lowest block
   position first; a cycle means SSI committed a non-serializable set. *)
let reads_of o = [ o.r1; o.r2; o.w ]

let must_precede (ai, a) (bi, b) = ai <> bi && List.mem b.w (reads_of a)

let topo_order (committed : (int * op) list) =
  let rec loop remaining acc =
    match remaining with
    | [] -> Some (List.rev acc)
    | _ -> (
        let ready =
          List.filter
            (fun b -> not (List.exists (fun a -> must_precede a b) remaining))
            remaining
        in
        match ready with
        | [] -> None (* cycle *)
        | ((bi, _) as b) :: _ ->
            loop (List.filter (fun (ai, _) -> ai <> bi) remaining) (b :: acc))
  in
  loop committed []

(* -------------------------------------------------------------- properties *)

let prop_oe_block_is_serializable =
  QCheck.Test.make ~name:"OE: committed subset == serial replay" ~count:60
    arbitrary_ops
    (fun ops ->
      let registry = registry () in
      (* Node A processes all ops in ONE block. *)
      let node_a = make_node ~flow:Node_core.Order_execute ~registry "A" in
      let chain_a = new_chain () in
      init_node node_a
        (Assembler.make chain_a
           [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]);
      let txs = txs_of_ops ops in
      let result = process node_a (Assembler.make chain_a txs) in
      let committed_ids =
        List.filter_map
          (fun (id, s) -> if s = Node_core.S_committed then Some id else None)
          result.Node_core.br_statuses
      in
      let committed_ops =
        List.mapi (fun i o -> (i, o)) ops
        |> List.filter (fun (i, _) -> List.mem (Printf.sprintf "p-%d" i) committed_ids)
      in
      (match topo_order committed_ops with
      | None -> QCheck.Test.fail_report "committed set has a dependency cycle"
      | Some order ->
          (* Node B replays the committed transactions serially in the
             dependency order. *)
          let node_b = make_node ~flow:Node_core.Order_execute ~registry "B" in
          let chain_b = new_chain () in
          init_node node_b
            (Assembler.make chain_b
               [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]);
          List.iter
            (fun (i, o) ->
              let tx =
                Block.make_tx ~id:(Printf.sprintf "p-%d" i) ~identity:client
                  ~contract:"rw" ~args:(op_args o)
              in
              let r = process node_b (Assembler.make chain_b [ tx ]) in
              match r.Node_core.br_statuses with
              | [ (_, Node_core.S_committed) ] -> ()
              | [ (_, s) ] ->
                  QCheck.Test.fail_reportf "serial replay of committed tx failed: %s"
                    (status_to_string s)
              | _ -> QCheck.Test.fail_report "bad replay result")
            order;
          if state_of node_a <> state_of node_b then
            QCheck.Test.fail_report "state differs from serial replay");
      true)

let prop_oe_nodes_identical =
  QCheck.Test.make ~name:"OE: independent nodes agree bit-for-bit" ~count:60
    arbitrary_ops
    (fun ops ->
      let registry = registry () in
      let nodes = List.map (make_node ~flow:Node_core.Order_execute ~registry) [ "A"; "B"; "C" ] in
      let chain = new_chain () in
      let setup_block =
        Assembler.make chain
          [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]
      in
      List.iter (fun n -> init_node n setup_block) nodes;
      (* split ops across two blocks to exercise cross-block state *)
      let n = List.length ops in
      let txs = txs_of_ops ops in
      let rec split i = function
        | [] -> ([], [])
        | x :: rest ->
            let a, b = split (i + 1) rest in
            if i < n / 2 then (x :: a, b) else (a, x :: b)
      in
      let first, second = split 0 txs in
      (* build blocks in order: @ evaluates right-to-left in OCaml *)
      let b1 = if first = [] then [] else [ Assembler.make chain first ] in
      let b2 = if second = [] then [] else [ Assembler.make chain second ] in
      let blocks = b1 @ b2 in
      let results = List.map (fun node -> List.map (process node) blocks) nodes in
      match results with
      | [] -> true
      | first_results :: rest ->
          List.for_all
            (fun rs ->
              List.for_all2
                (fun (a : Node_core.block_result) (b : Node_core.block_result) ->
                  a.Node_core.br_write_set_hash = b.Node_core.br_write_set_hash
                  && List.map
                       (fun (_, s) -> match s with Node_core.S_committed -> true | _ -> false)
                       a.Node_core.br_statuses
                     = List.map
                         (fun (_, s) ->
                           match s with Node_core.S_committed -> true | _ -> false)
                         b.Node_core.br_statuses)
                first_results rs)
            rest
          && List.for_all
               (fun node -> state_of node = state_of (List.hd nodes))
               nodes)

let prop_eo_serializable_with_pre_execution =
  QCheck.Test.make ~name:"EO: pre-executed contended txns stay serializable" ~count:40
    arbitrary_ops
    (fun ops ->
      let registry = registry () in
      let node = make_node ~flow:Node_core.Execute_order ~registry "A" in
      let chain = new_chain () in
      init_node node
        (Assembler.make chain
           [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]);
      (* All ops pre-execute at snapshot 1 (maximum contention), then land
         in separate consecutive blocks. *)
      let txs =
        List.map
          (fun o -> Block.make_eo_tx ~identity:client ~contract:"rw" ~args:(op_args o) ~snapshot:1)
          ops
      in
      (* EO ids are content hashes: drop duplicate submissions. *)
      let txs =
        List.fold_left
          (fun acc tx -> if List.exists (fun t -> t.Block.tx_id = tx.Block.tx_id) acc then acc else tx :: acc)
          [] txs
        |> List.rev
      in
      List.iter (fun tx -> ignore (Node_core.pre_execute node tx)) txs;
      let committed = ref [] in
      List.iter
        (fun tx ->
          let r = process node (Assembler.make chain [ tx ]) in
          match r.Node_core.br_statuses with
          | [ (id, Node_core.S_committed) ] -> committed := id :: !committed
          | _ -> ())
        txs;
      (* All committed transactions executed at snapshot 1 and survived the
         stale/phantom checks, so their reads are untouched initial values:
         the rw-dependency toposort is again a valid serial order. *)
      let committed_ops =
        List.mapi (fun i tx -> (i, tx)) txs
        |> List.filter (fun (_, tx) -> List.mem tx.Block.tx_id !committed)
        |> List.map (fun (i, tx) ->
               let o =
                 match tx.Block.tx_args with
                 | [ Value.Int r1; Value.Int r2; Value.Int w; Value.Int delta ] ->
                     { r1; r2; w; delta }
                 | _ -> QCheck.Test.fail_report "bad args"
               in
               (i, o))
      in
      (match topo_order committed_ops with
      | None -> QCheck.Test.fail_report "committed set has a dependency cycle"
      | Some order ->
          let node_b = make_node ~flow:Node_core.Order_execute ~registry "B" in
          let chain_b = new_chain () in
          init_node node_b
            (Assembler.make chain_b
               [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]);
          List.iter
            (fun (i, o) ->
              let replay =
                Block.make_tx ~id:(Printf.sprintf "replay-%d" i) ~identity:client
                  ~contract:"rw" ~args:(op_args o)
              in
              let r = process node_b (Assembler.make chain_b [ replay ]) in
              match r.Node_core.br_statuses with
              | [ (_, Node_core.S_committed) ] -> ()
              | _ -> QCheck.Test.fail_report "replay failed")
            order;
          if state_of node <> state_of node_b then
            QCheck.Test.fail_report "EO state differs from serial replay");
      true)

(* ------------------------------------------ schedule-independence oracle *)

(* The commit loop must be observationally independent of the wave
   schedule it runs (DESIGN.md §14): the default levelization, one
   transaction per wave (strict block order, the one-at-a-time loop) and
   a random valid levelization over Block_deps' scheduling edges must
   reach the same commit/abort decisions, write-set hashes, chained state
   digests and final state. *)

let decisions (r : Node_core.block_result) =
  List.map
    (fun (_, s) -> match s with Node_core.S_committed -> true | _ -> false)
    r.Node_core.br_statuses

let one_per_wave (d : Block_deps.t) =
  Array.init (Array.length d.Block_deps.waves) Fun.id

(* Each position's wave is 1 + the max wave of its predecessors, plus a
   random slack of 0-2 waves. Edges are (low, high), so one pass in
   position order sees every predecessor first. *)
let random_levels rng (d : Block_deps.t) =
  let waves = Array.make (Array.length d.Block_deps.waves) 0 in
  Array.iteri
    (fun j _ ->
      let base =
        List.fold_left
          (fun acc (a, b) -> if b = j then max acc (waves.(a) + 1) else acc)
          0 d.Block_deps.sched_edges
      in
      waves.(j) <- base + Random.State.int rng 3)
    waves;
  waves

(* Process blocks strictly in order (heights must be sequential). *)
let run_all ?schedule node blocks =
  let step block =
    match schedule with
    | None -> process node block
    | Some schedule -> (
        match Node_core.Testing.process_block_scheduled node block ~schedule with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "process_block: %s" e)
  in
  List.rev (List.fold_left (fun acc b -> step b :: acc) [] blocks)

let rec chunk size = function
  | [] -> []
  | l ->
      let rec take i = function
        | x :: rest when i < size ->
            let a, b = take (i + 1) rest in
            (x :: a, b)
        | rest -> ([], rest)
      in
      let a, b = take 0 l in
      a :: chunk size b

let check_equivalent ~reference ~other rs ro =
  List.iter2
    (fun (a : Node_core.block_result) (b : Node_core.block_result) ->
      let h = a.Node_core.br_height in
      if decisions a <> decisions b then
        QCheck.Test.fail_reportf "decisions diverge at height %d" h;
      if a.Node_core.br_write_set_hash <> b.Node_core.br_write_set_hash then
        QCheck.Test.fail_reportf "write-set hash diverges at height %d" h;
      if
        Node_core.state_digest reference ~height:h
        <> Node_core.state_digest other ~height:h
      then QCheck.Test.fail_reportf "state digest diverges at height %d" h)
    rs ro;
  if state_of reference <> state_of other then
    QCheck.Test.fail_report "final state diverges"

(* Four nodes on one block stream: the default schedule twice, one
   transaction per wave, random valid levels. The two default-schedule
   nodes must also agree on the wave partition itself: it drives every
   peer's modelled validation time (Cpu.run_waves). [prepare] runs on each
   node after setup. *)
let check_schedules ~flow ~ops ~block_txs ~prepare =
  let registry = registry () in
  let d = make_node ~flow ~registry "D" in
  let d2 = make_node ~flow ~registry "D2" in
  let s = make_node ~flow ~registry "S" in
  let r = make_node ~flow ~registry "R" in
  let nodes = [ d; d2; s; r ] in
  let chain = new_chain () in
  let setup_block =
    Assembler.make chain
      [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]
  in
  List.iter (fun n -> init_node n setup_block) nodes;
  List.iter prepare nodes;
  let blocks =
    List.rev (List.fold_left (fun acc c -> Assembler.make chain c :: acc) [] block_txs)
  in
  let rng = Random.State.make [| Hashtbl.hash (print_ops ops) |] in
  let rd = run_all d blocks in
  let rd2 = run_all d2 blocks in
  List.iter2
    (fun (a : Node_core.block_result) (b : Node_core.block_result) ->
      if a.Node_core.br_waves <> b.Node_core.br_waves then
        QCheck.Test.fail_reportf "wave partition diverges at height %d"
          a.Node_core.br_height)
    rd rd2;
  check_equivalent ~reference:d ~other:d2 rd rd2;
  check_equivalent ~reference:d ~other:s rd (run_all ~schedule:one_per_wave s blocks);
  check_equivalent ~reference:d ~other:r rd
    (run_all ~schedule:(random_levels rng) r blocks);
  true

let prop_parallel_equals_serial_oe =
  QCheck.Test.make
    ~name:"parallel == serial: OE decisions, hashes, digests under 3 schedules"
    ~count:20 arbitrary_ops
    (fun ops ->
      (* contended ops land 4 to a block so multi-wave schedules appear *)
      check_schedules ~flow:Node_core.Order_execute ~ops
        ~block_txs:(chunk 4 (txs_of_ops ops))
        ~prepare:ignore)

let prop_parallel_equals_serial_eo =
  QCheck.Test.make
    ~name:"parallel == serial: EO pre-executed contention, 3 schedules"
    ~count:12 arbitrary_ops
    (fun ops ->
      (* all ops pre-execute at snapshot 1 (maximum contention) on every
         node, then land 3 to a block *)
      let txs =
        List.map
          (fun o ->
            Block.make_eo_tx ~identity:client ~contract:"rw" ~args:(op_args o)
              ~snapshot:1)
          ops
      in
      let txs =
        List.fold_left
          (fun acc tx ->
            if List.exists (fun t -> t.Block.tx_id = tx.Block.tx_id) acc then acc
            else tx :: acc)
          [] txs
        |> List.rev
      in
      check_schedules ~flow:Node_core.Execute_order ~ops
        ~block_txs:(chunk 3 txs)
        ~prepare:(fun n -> List.iter (fun tx -> ignore (Node_core.pre_execute n tx)) txs))

let prop_chaos_parallel_validation =
  (* Multi-core wave timing under the full chaos harness — crashes
     (including mid-block crash points, which stop inside the same wave
     commit loop), healing partitions, loss and duplication — must
     preserve every convergence invariant of the single-core chaos
     properties above: the flag moves only modelled time. *)
  QCheck.Test.make ~name:"chaos: parallel validation preserves convergence"
    ~count:3
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 9999))
    (fun seed ->
      let spec =
        {
          Brdb_core.Chaos.default_spec with
          Brdb_core.Chaos.seed = seed + 23;
          parallel_validation = true;
          rate = 120.;
          duration = 0.7;
          block_size = 8;
          drop = 0.01 +. (0.008 *. float_of_int (seed mod 7));
          duplicate = float_of_int (seed mod 3) /. 100.;
          crashes = (seed mod 2) + 1;
          partitions = seed mod 2;
          crash_points = seed mod 2 = 1;
        }
      in
      let r = Brdb_core.Chaos.run spec in
      if r.Brdb_core.Chaos.decision_mismatches <> [] then
        QCheck.Test.fail_reportf "seed %d: cross-node decision mismatch on %s"
          seed
          (String.concat ", " r.Brdb_core.Chaos.decision_mismatches);
      if not r.Brdb_core.Chaos.converged then
        QCheck.Test.fail_reportf "seed %d diverged: %a" seed
          Brdb_core.Chaos.pp_report r;
      true)

let prop_prune_preserves_live_state =
  QCheck.Test.make ~name:"prune preserves live state (only history shrinks)" ~count:40
    arbitrary_ops
    (fun ops ->
      let registry = registry () in
      let node = make_node ~flow:Node_core.Order_execute ~registry "A" in
      let chain = new_chain () in
      init_node node
        (Assembler.make chain
           [ Block.make_tx ~id:"setup" ~identity:admin ~contract:"setup" ~args:[] ]);
      (* one block per op for plenty of superseded versions *)
      List.iteri
        (fun i o ->
          ignore
            (process node
               (Assembler.make chain
                  [
                    Block.make_tx ~id:(Printf.sprintf "p-%d" i) ~identity:client
                      ~contract:"rw" ~args:(op_args o);
                  ])))
        ops;
      let before = state_of node in
      let removed = Node_core.prune node ~before:(Node_core.height node) () in
      let after = state_of node in
      ignore removed;
      before = after)

let prop_chaos_schedules_preserve_determinism =
  (* Any seeded fault schedule — random crashes (clean or mid-block),
     healing partitions, up to 10% loss plus duplication — must leave all
     nodes on identical chains with identical per-block write-set hashes,
     and every client request decided (the ISSUE's chaos invariants). *)
  QCheck.Test.make ~name:"chaos: random fault schedules keep nodes identical"
    ~count:10
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 9999))
    (fun seed ->
      let spec =
        {
          Brdb_core.Chaos.default_spec with
          Brdb_core.Chaos.seed;
          rate = 100.;
          duration = 0.8;
          block_size = 8;
          drop = 0.01 +. (0.009 *. float_of_int (seed mod 11));
          duplicate = float_of_int (seed mod 3) /. 100.;
          crashes = (seed mod 2) + 1;
          partitions = seed mod 2;
          crash_points = seed mod 3 = 0;
        }
      in
      let r = Brdb_core.Chaos.run spec in
      if not r.Brdb_core.Chaos.converged then
        QCheck.Test.fail_reportf "seed %d diverged: %a" seed
          Brdb_core.Chaos.pp_report r;
      true)

let prop_chaos_decisions_agree_even_when_reasons_diverge =
  (* The CLAUDE.md gotcha as a property: under chaos, the *reason* a
     transaction aborted may legally differ across nodes (rw-conflict on
     one node can surface as a stale read on another), but the
     commit/abort *decision* and the write-set hashes never may. The
     harness records both; reason divergences are tolerated, decision
     mismatches fail the property. *)
  QCheck.Test.make
    ~name:"chaos: abort reasons may diverge, decisions and hashes never"
    ~count:5
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 9999))
    (fun seed ->
      let spec =
        {
          Brdb_core.Chaos.default_spec with
          Brdb_core.Chaos.seed = seed + 17;
          rate = 120.;
          duration = 0.7;
          block_size = 6;
          drop = 0.02 +. (0.008 *. float_of_int (seed mod 7));
          duplicate = float_of_int (seed mod 4) /. 100.;
          crashes = (seed mod 2) + 1;
          partitions = (seed + 1) mod 2;
          crash_points = seed mod 2 = 0;
        }
      in
      let r = Brdb_core.Chaos.run spec in
      if r.Brdb_core.Chaos.decision_mismatches <> [] then
        QCheck.Test.fail_reportf
          "seed %d: cross-node decision mismatch on %s" seed
          (String.concat ", " r.Brdb_core.Chaos.decision_mismatches);
      if not r.Brdb_core.Chaos.converged then
        QCheck.Test.fail_reportf "seed %d diverged: %a" seed
          Brdb_core.Chaos.pp_report r;
      (* reason_divergences is deliberately unconstrained: non-empty is
         legal and expected under contention. *)
      true)

let prop_bft_converges_with_f_crashed =
  (* The §4.4 byzantine bound as a property: with n = 3f+1 = 4 BFT
     orderers and f = 1 of them (the current primary) crashed mid-run
     under random seeds, the cluster must still converge — the survivors
     vote the primary out and resume cutting. *)
  QCheck.Test.make ~name:"chaos: n=3f+1 BFT orderers converge with f crashed"
    ~count:3
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 9999))
    (fun seed ->
      let spec =
        {
          Brdb_core.Chaos.default_spec with
          Brdb_core.Chaos.seed;
          ordering = Brdb_consensus.Service.Bft;
          n_orderers = 4;
          orderer_crashes = 1;
          rate = 60.;
          duration = 1.5;
          drop = float_of_int (seed mod 3) /. 100.;
          duplicate = 0.;
          crashes = 0;
          partitions = 0;
        }
      in
      let r = Brdb_core.Chaos.run spec in
      if not r.Brdb_core.Chaos.converged then
        QCheck.Test.fail_reportf "seed %d diverged: %a" seed
          Brdb_core.Chaos.pp_report r;
      if r.Brdb_core.Chaos.view_changes < 1 then
        QCheck.Test.fail_reportf
          "seed %d: primary crashed but no view change was entered" seed;
      true)

(* ------------------------------------------ executor list reference *)

(* The executor's operators (hash join, hash aggregation, top-k, pushdown,
   IN-probes, semi-joins) checked against answers computed directly from
   the generated tables with plain OCaml lists — a reference that shares no
   planning, scan or evaluation code with the executor. Random tiny tables
   over a hot value domain (lots of join matches, duplicate group keys,
   NULLs). *)

module Exec = Brdb_engine.Exec
module Manager = Brdb_txn.Manager
module Catalog = Brdb_storage.Catalog

(* Fresh single-node catalog: t1(a pk, b, c) and t2(d pk, e) with b/e drawn
   from a small domain; b and e are NULL when negative. Returns a runner
   that executes one auto-committed statement. *)
let exec_fixture rows1 rows2 =
  let catalog = Catalog.create () in
  let mgr = Manager.create catalog in
  let height = ref 0 in
  let n = ref 0 in
  let run ?mode sql =
    incr n;
    let txn =
      match
        Manager.begin_txn mgr
          ~global_id:(Printf.sprintf "ab-%d" !n)
          ~client:"prop" ~snapshot_height:!height ()
      with
      | Ok t -> t
      | Error `Duplicate_txid -> assert false
    in
    match Exec.execute_sql catalog txn ?mode sql with
    | Ok rs ->
        incr height;
        Brdb_txn.Manager.commit mgr txn ~height:!height;
        rs
    | Error e -> QCheck.Test.fail_reportf "%s: %s" sql (Exec.error_to_string e)
  in
  let lit v = if v < 0 then "NULL" else string_of_int v in
  ignore (run "CREATE TABLE t1 (a INT PRIMARY KEY, b INT, c INT)");
  ignore (run "CREATE TABLE t2 (d INT PRIMARY KEY, e INT)");
  List.iteri
    (fun i (b, c) ->
      ignore (run (Printf.sprintf "INSERT INTO t1 VALUES (%d, %s, %d)" i (lit b) c)))
    rows1;
  List.iteri
    (fun i e ->
      ignore (run (Printf.sprintf "INSERT INTO t2 VALUES (%d, %s)" i (lit e))))
    rows2;
  run

let multiset (rs : Exec.result_set) =
  List.sort
    (List.compare Value.compare_total)
    (List.map Array.to_list rs.Exec.rows)

let gen_tables =
  QCheck.Gen.(
    pair
      (list_size (0 -- 20) (pair (-1 -- 5) (int_bound 9)))
      (list_size (0 -- 12) (-1 -- 6)))

let print_tables (r1, r2) =
  Printf.sprintf "t1=[%s] t2=[%s]"
    (String.concat ";" (List.map (fun (b, c) -> Printf.sprintf "%d,%d" b c) r1))
    (String.concat ";" (List.map string_of_int r2))

let arbitrary_tables = QCheck.make ~print:print_tables gen_tables

(* The generated tables as the reference sees them, in primary-key order:
   t1 rows [(a, b, c)] and t2 rows [(d, e)], [None] for NULL. *)
let model (rows1, rows2) =
  let opt v = if v < 0 then None else Some v in
  ( List.mapi (fun a (b, c) -> (a, opt b, c)) rows1,
    List.mapi (fun d e -> (d, opt e)) rows2 )

(* SQL equality: NULL matches nothing. *)
let sql_eq x y = x <> None && x = y

(* [ordered = true] compares row lists exactly (the query pins its output
   order); [false] compares multisets. *)
let check_ref (run : ?mode:Exec.mode -> string -> Exec.result_set)
    (sql, ordered, expected) =
  let cell = function
    | Value.Int n -> Some n
    | Value.Null -> None
    | v -> QCheck.Test.fail_reportf "%s: unexpected %s" sql (Value.to_string v)
  in
  let norm = if ordered then Fun.id else List.sort compare in
  let got = List.map (fun r -> List.map cell (Array.to_list r)) (run sql).Exec.rows in
  if norm got <> norm expected then
    QCheck.Test.fail_reportf "executor/list reference mismatch on: %s" sql

let prop_hash_join_matches_nested_loop =
  QCheck.Test.make ~name:"executor: hash join == nested-loop list reference"
    ~count:60 arbitrary_tables
    (fun tables ->
      let t1, t2 = model tables in
      let run = exec_fixture (fst tables) (snd tables) in
      let join keep =
        List.concat_map
          (fun (a, b, c) ->
            List.filter_map
              (fun (d, e) -> if sql_eq b e && keep c then Some [ Some a; Some d ] else None)
              t2)
          t1
      in
      let left_join =
        List.concat_map
          (fun (a, b, c) ->
            match List.filter (fun (_, e) -> sql_eq b e) t2 with
            | [] -> [ [ Some a; None; Some c ] ]
            | ms -> List.map (fun (d, _) -> [ Some a; Some d; Some c ]) ms)
          t1
      in
      let self_join =
        List.concat_map
          (fun (xa, xb, _) ->
            List.filter_map
              (fun (ya, yb, _) ->
                if sql_eq xb yb && xa < ya then Some [ Some xa; Some ya ] else None)
              t1)
          t1
      in
      (* t1.b = t2.d probes t2's primary key once per t1 row: an indexed
         nested-loop join, not a hash join. *)
      let pk_join =
        List.concat_map
          (fun (a, b, _) ->
            List.filter_map
              (fun (d, _) -> if sql_eq b (Some d) then Some [ Some a; Some d ] else None)
              t2)
          t1
      in
      let q = "SELECT t1.a, t2.d FROM t1 JOIN t2 ON t1.b = t2.e" in
      List.iter (check_ref run)
        [
          (q, false, join (fun _ -> true));
          (q ^ " WHERE t1.c > 4", false, join (fun c -> c > 4));
          (q ^ " AND t1.c > 2", false, join (fun c -> c > 2));
          ( "SELECT t1.a, t2.d, t1.c FROM t1 LEFT JOIN t2 ON t1.b = t2.e \
             ORDER BY t1.a, t2.d",
            true,
            left_join );
          ("SELECT x.a, y.a FROM t1 x JOIN t1 y ON x.b = y.b WHERE x.a < y.a", false, self_join);
          ("SELECT t1.a, t2.d FROM t1 JOIN t2 ON t1.b = t2.d", false, pk_join);
        ];
      true)

let prop_hash_agg_matches_list_agg =
  QCheck.Test.make ~name:"executor: hash aggregation/top-k == list reference"
    ~count:60 arbitrary_tables
    (fun tables ->
      let t1, t2 = model tables in
      let run = exec_fixture (fst tables) (snd tables) in
      let sum = List.fold_left ( + ) 0 in
      let cs_where p = List.filter_map (fun (_, b, c) -> if p b then Some c else None) t1 in
      let a_where p = List.filter_map (fun (a, b, _) -> if p b then Some [ Some a ] else None) t1 in
      (* NULL sorts first, as in [Value.compare_total]. *)
      let keys = List.sort_uniq compare (List.map (fun (_, b, _) -> b) t1) in
      let groups = List.map (fun k -> (k, cs_where (( = ) k))) keys in
      let ge2 = cs_where (function Some b -> b >= 2 | None -> false) in
      let in_t2 b = List.exists (fun (_, e) -> sql_eq b e) t2 in
      let in_135 b = List.mem b [ Some 1; Some 3; Some 5 ] in
      (* The benchmark's group query: an indexed join, SUM of a product per
         group, top-k by the aggregate's output alias with a key tie-break. *)
      let top_groups k =
        let pairs =
          List.concat_map
            (fun (_, b, c) ->
              List.filter_map
                (fun (d, e) -> if sql_eq b (Some d) then Some (e, c * d) else None)
                t2)
            t1
        in
        List.sort_uniq compare (List.map fst pairs)
        |> List.map (fun e ->
               (e, sum (List.filter_map (fun (e', x) -> if e' = e then Some x else None) pairs)))
        |> List.sort (fun (e1, s1) (e2, s2) ->
               match compare s2 s1 with 0 -> compare e1 e2 | c -> c)
        |> List.filteri (fun i _ -> i < k)
        |> List.map (fun (e, s) -> [ e; Some s ])
      in
      let count_e b = List.length (List.filter (fun (_, e) -> sql_eq b e) t2) in
      let b_of a' = List.find_map (fun (a, b, _) -> if a = a' then b else None) t1 in
      let count p l = List.length (List.filter p l) in
      List.iter (check_ref run)
        [
          ( "SELECT t2.e, SUM(t1.c * t2.d) AS s FROM t1 JOIN t2 ON t1.b = t2.d \
             GROUP BY t2.e ORDER BY s DESC, t2.e LIMIT 2",
            true,
            top_groups 2 );
          ( "SELECT a, (SELECT COUNT(*) FROM t2 WHERE t2.e = t1.b) FROM t1",
            false,
            List.map (fun (a, b, _) -> [ Some a; Some (count_e b) ]) t1 );
          (* Correlated subqueries whose names the outer query shares: the
             inner FROM reuses the outer alias t2, or the inner x has the
             outer t1's column b. A WHERE conjunct reads the inner binding
             and filters at the inner scan that binds it. *)
          ( "SELECT t1.a, t2.d, (SELECT COUNT(*) FROM t2 x JOIN t2 ON x.d = t2.d \
             WHERE t2.e = t1.c) FROM t1 JOIN t2 ON t1.b = t2.d",
            false,
            List.concat_map
              (fun (a, b, c) ->
                List.filter_map
                  (fun (d, _) ->
                    if sql_eq b (Some d) then
                      Some [ Some a; Some d; Some (count (fun (_, e) -> sql_eq e (Some c)) t2) ]
                    else None)
                  t2)
              t1 );
          ( "SELECT a, (SELECT COUNT(*) FROM t2 JOIN t1 x ON x.a = t2.d WHERE b = t1.c) FROM t1",
            false,
            List.map
              (fun (a, _, c) ->
                [ Some a; Some (count (fun (d, _) -> sql_eq (b_of d) (Some c)) t2) ])
              t1 );
          ( "SELECT b, COUNT(*), SUM(c) FROM t1 GROUP BY b ORDER BY b",
            true,
            List.map (fun (k, cs) -> [ k; Some (List.length cs); Some (sum cs) ]) groups );
          ( "SELECT b, MAX(c) FROM t1 GROUP BY b HAVING COUNT(*) > 1",
            false,
            List.filter_map
              (fun (k, cs) ->
                if List.length cs > 1 then Some [ k; Some (List.fold_left max 0 cs) ] else None)
              groups );
          ("SELECT DISTINCT b FROM t1", false, List.map (fun k -> [ k ]) keys);
          ( "SELECT COUNT(*), SUM(c) FROM t1 WHERE b >= 2",
            true,
            [ [ Some (List.length ge2); (if ge2 = [] then None else Some (sum ge2)) ] ] );
          ("SELECT a FROM t1 WHERE b IN (SELECT e FROM t2)", false, a_where in_t2);
          ( "SELECT a, c FROM t1 ORDER BY c, a LIMIT 3",
            true,
            List.sort compare (List.map (fun (a, _, c) -> (c, a)) t1)
            |> List.filteri (fun i _ -> i < 3)
            |> List.map (fun (c, a) -> [ Some a; Some c ]) );
          ("SELECT a FROM t1 WHERE b IN (1, 3, 5)", false, a_where in_135);
        ];
      (* UPDATE/DELETE split WHERE into conjuncts pushed into the target
         scan and a residual (here the subquery); after each, compare the
         affected count and the re-read table with the model. *)
      let dml sql hit t1' =
        let affected = (run sql).Exec.affected in
        if affected <> hit then
          QCheck.Test.fail_reportf "%s: affected %d, reference %d" sql affected hit;
        check_ref run
          ( "SELECT a, b, c FROM t1 ORDER BY a",
            true,
            List.map (fun (a, b, c) -> [ Some a; b; Some c ]) t1' )
      in
      let upd (_, b, c) = in_t2 b && c > 3 in
      let hit = List.length (List.filter upd t1) in
      let t1 = List.map (fun ((a, b, c) as r) -> if upd r then (a, b, c + 100) else r) t1 in
      dml "UPDATE t1 SET c = c + 100 WHERE b IN (SELECT e FROM t2) AND c > 3" hit t1;
      let del (_, b, c) = in_135 b && c < 5 in
      dml "DELETE FROM t1 WHERE b IN (1, 3, 5) AND c < 5"
        (List.length (List.filter del t1))
        (List.filter (fun r -> not (del r)) t1);
      true)

(* Regression: the index probe (including IN-probes) must examine strictly
   fewer versions than a sequential scan of the same data — counted by the
   executor's own [op_visited], the number the §4.3 EO restriction is
   about. *)
let test_index_probe_scans_fewer_rows () =
  let run = exec_fixture [] [] in
  ignore (run "CREATE TABLE big (a INT PRIMARY KEY, b INT, c INT)");
  ignore (run "CREATE TABLE twin (a INT PRIMARY KEY, b INT, c INT)");
  ignore (run "CREATE INDEX big_b ON big (b)");
  for i = 0 to 99 do
    ignore
      (run (Printf.sprintf "INSERT INTO big VALUES (%d, %d, %d)" i (i mod 10) i));
    ignore
      (run (Printf.sprintf "INSERT INTO twin VALUES (%d, %d, %d)" i (i mod 10) i))
  done;
  let visited sql =
    let stats = Exec.new_stats () in
    let rs = run ~mode:{ Exec.default_mode with Exec.stats = Some stats } sql in
    let total =
      List.fold_left (fun acc (_, _, v) -> acc + v) 0 (Exec.visited_counts stats)
    in
    (rs, total)
  in
  let check_pair name probe_sql twin_sql =
    let probe_rs, probe_visited = visited probe_sql in
    let twin_rs, twin_visited = visited twin_sql in
    Alcotest.(check bool)
      (name ^ ": same answer") true
      (multiset probe_rs = multiset twin_rs);
    if probe_visited >= twin_visited then
      Alcotest.failf "%s: index probe visited %d >= seq twin %d" name
        probe_visited twin_visited
  in
  check_pair "eq probe" "SELECT c FROM big WHERE b = 3"
    "SELECT c FROM twin WHERE b = 3";
  check_pair "in probe" "SELECT c FROM big WHERE b IN (1, 4)"
    "SELECT c FROM twin WHERE b IN (1, 4)";
  (* Pushdown accounting on the seq side: the filter runs inside the scan,
     so the scan's produced rows (20) sit well below versions visited (100). *)
  let stats = Exec.new_stats () in
  ignore
    (run
       ~mode:{ Exec.default_mode with Exec.stats = Some stats }
       "SELECT c FROM twin WHERE b IN (1, 4)");
  (match (Exec.scan_counts stats, Exec.visited_counts stats) with
  | [ ("seq_scan", "twin", rows) ], [ ("seq_scan", "twin", visited) ] ->
      Alcotest.(check int) "pushdown rows" 20 rows;
      Alcotest.(check int) "pushdown visited" 100 visited
  | _ -> Alcotest.fail "unexpected operator counters");
  (* Rows an UPDATE moves from key 1 onto key 4 are not probed again. *)
  Alcotest.(check int) "IN-probe update" 20
    (run "UPDATE big SET b = b + 3 WHERE b IN (1, 4)").Exec.affected

let suites =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_oe_block_is_serializable;
        QCheck_alcotest.to_alcotest prop_oe_nodes_identical;
        QCheck_alcotest.to_alcotest prop_eo_serializable_with_pre_execution;
        QCheck_alcotest.to_alcotest prop_parallel_equals_serial_oe;
        QCheck_alcotest.to_alcotest prop_parallel_equals_serial_eo;
        QCheck_alcotest.to_alcotest prop_chaos_parallel_validation;
        QCheck_alcotest.to_alcotest prop_prune_preserves_live_state;
        QCheck_alcotest.to_alcotest prop_chaos_schedules_preserve_determinism;
        QCheck_alcotest.to_alcotest prop_bft_converges_with_f_crashed;
        QCheck_alcotest.to_alcotest
          prop_chaos_decisions_agree_even_when_reasons_diverge;
        QCheck_alcotest.to_alcotest prop_hash_join_matches_nested_loop;
        QCheck_alcotest.to_alcotest prop_hash_agg_matches_list_agg;
        Alcotest.test_case "index probe scans fewer rows than seq twin" `Quick
          test_index_probe_scans_fewer_rows;
      ] );
  ]
