(* Replays peer 0's committed block stream into a fresh Node_core and
   times each process_block call: the real work a peer does per block.

   With tracing on, the per-layer calls are re-run beside process_block
   (never inside its span) on the same inputs: block and transaction
   signature checks, SSI detection over the block's transactions, the
   write-set Merkle root, and the contract's read SELECT. They estimate
   each layer's share of a block. *)

module B = Brdb_core.Blockchain_db
module Node_core = Brdb_node.Node_core
module Peer = Brdb_node.Peer
module Block = Brdb_ledger.Block
module Block_store = Brdb_ledger.Block_store
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec
module Cutter = Brdb_consensus.Cutter

type result = {
  blocks : Wall.sample list;  (** process_block per replayed non-seed block *)
  final_height : int;
  digest : string option;  (** replay node's state digest at [final_height] *)
  statuses : int;  (** transaction statuses in replayed non-seed blocks *)
  aborts : int;
  visited : int;  (** executor versions visited in non-seed blocks *)
  window_txs : Block.tx list;  (** non-seed transactions, block order *)
  pairs : int list;  (** traced: n(n-1)/2 per block *)
  edges : int list;  (** traced: rw edges Detect finds per block *)
  ws_entries : int list;  (** traced: write-set entries per block *)
}

let visited_total node =
  List.fold_left (fun acc (_, _, n) -> acc + n) 0
    (Exec.visited_counts (Node_core.exec_totals node))

(* Contract read SELECTs timed per block (engine.query_us). *)
let queries_per_block = 16

let run db kind ~seed_height =
  let traced = !Wall.enabled in
  let registry = B.registry db in
  let store = Node_core.block_store (Peer.core (B.peer db 0)) in
  let flow = (Workloads.shape kind).Workloads.flow in
  let node =
    Node_core.create
      (Node_core.make_config ~name:"db-replay" ~org:"org1" ~flow
         ~orgs:(B.default_config ()).B.orgs ())
      ~registry
  in
  Node_core.bootstrap node;
  List.iter
    (fun (name, body) -> Node_core.install_contract node ~name body)
    (Lazy.force Workloads.contracts);
  let height = Block_store.height store in
  let blocks = ref [] in
  let statuses = ref 0 and aborts = ref 0 in
  let pairs = ref [] and edges = ref [] and ws_entries = ref [] in
  let window_txs = ref [] in
  let visited_at_seed = ref 0 in
  for h = 1 to height do
    let block = Option.get (Block_store.get store h) in
    let timed = h > seed_height in
    let group = Printf.sprintf "block/%d" h in
    let span name f = if timed then Wall.span ~group name f else f () in
    if timed then window_txs := List.rev_append block.Block.txs !window_txs;
    if timed && traced then begin
      ignore (span "crypto.block_verify" (fun () -> Block.verify registry block));
      List.iter
        (fun tx -> ignore (span "crypto.verify_tx" (fun () -> Block.verify_tx registry tx)))
        block.Block.txs
    end;
    if flow = Node_core.Execute_order then
      List.iter
        (fun tx -> ignore (span "node.pre_execute" (fun () -> Node_core.pre_execute node tx)))
        block.Block.txs;
    if timed then Wall.calibrate ();
    let br, sample =
      Wall.measure (fun () ->
          span "node.process_block" (fun () -> Node_core.process_block node block))
    in
    let br =
      match br with
      | Ok br -> br
      | Error e -> failwith (Printf.sprintf "replay of block %d failed: %s" h e)
    in
    if h = seed_height then visited_at_seed := visited_total node;
    if timed then begin
      blocks := sample :: !blocks;
      List.iter
        (fun (_, st) ->
          incr statuses;
          match st with Node_core.S_aborted _ -> incr aborts | _ -> ())
        br.Node_core.br_statuses
    end;
    if timed && traced then begin
      let txns =
        List.filter_map
          (fun (tx : Block.tx) -> Manager.find_by_global (Node_core.manager node) tx.Block.tx_id)
          block.Block.txs
      in
      let n = List.length txns in
      let g = span "ssi.detect" (fun () -> Brdb_ssi.Detect.compute (Node_core.catalog node) txns) in
      pairs := (n * (n - 1) / 2) :: !pairs;
      edges := Brdb_ssi.Graph.edge_count g :: !edges;
      let entries = Option.value (Node_core.write_set_entries_at node ~height:h) ~default:[] in
      ignore (span "crypto.ws_root" (fun () -> Brdb_crypto.Merkle.root entries));
      ws_entries := List.length entries :: !ws_entries;
      List.iteri
        (fun i (tx : Block.tx) ->
          if i < queries_per_block then
            let sql, params = Workloads.read_select kind tx.Block.tx_args in
            match span "engine.query" (fun () -> Node_core.query node ~params sql) with
            | Ok _ -> ()
            | Error e -> failwith ("replay read SELECT failed: " ^ e))
        block.Block.txs
    end
  done;
  {
    blocks = List.rev !blocks;
    final_height = height;
    digest = Node_core.state_digest node ~height;
    statuses = !statuses;
    aborts = !aborts;
    visited = visited_total node - !visited_at_seed;
    window_txs = List.rev !window_txs;
    pairs = !pairs;
    edges = !edges;
    ws_entries = !ws_entries;
  }

(* consensus.cut_us: the window's transactions fed through a fresh
   authenticating cutter with the workload's block size. *)
let cut db kind txs =
  let registry = B.registry db in
  let c =
    Cutter.create
      ~auth:(Block.verify_tx registry)
      ~block_size:(Workloads.shape kind).Workloads.block_size ()
  in
  List.iter (fun tx -> ignore (Wall.span "consensus.cut" (fun () -> Cutter.add c tx))) txs;
  ignore (Wall.span "consensus.cut" (fun () -> Cutter.cut c))
