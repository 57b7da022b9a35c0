module Block = Brdb_ledger.Block
module Clock = Brdb_sim.Clock

type t = {
  net : Msg.Net.net;
  name : string;
  identity : Brdb_crypto.Identity.t;
  metadata : string;
  block_timeout : float;
  peers : string list;
  cutter : Cutter.t;
  mutable next_height : int;
  mutable prev_hash : string;
  mutable blocks : int;
}

let create ~net ~name ~identity ~metadata ~auth ~block_size ~block_timeout ~peers
    =
  {
    net;
    name;
    identity;
    metadata;
    block_timeout;
    peers;
    cutter = Cutter.create ~auth ~block_size ();
    next_height = 1;
    prev_hash = Block.genesis_hash;
    blocks = 0;
  }

let cutter t = t.cutter

let blocks_cut t = t.blocks

let reset t ~next_height ~prev_hash =
  t.next_height <- next_height;
  t.prev_hash <- prev_hash

let make t txs =
  let b =
    Block.create ~height:t.next_height ~txs ~metadata:t.metadata
      ~prev_hash:t.prev_hash
  in
  let b = Block.sign b t.identity in
  t.next_height <- t.next_height + 1;
  t.prev_hash <- b.Block.hash;
  b

let deliver t block =
  t.blocks <- t.blocks + 1;
  let msg = Msg.Block_deliver block in
  let size_bytes = Msg.size msg in
  List.iter
    (fun peer -> ignore (Msg.Net.send t.net ~src:t.name ~dst:peer ~size_bytes msg))
    t.peers

let cut_block t ~cut txs = cut (fun () -> deliver t (make t txs))

let apply t ~cut ~ttc entry =
  match entry with
  | Msg.K_tx tx -> (
      match Cutter.add t.cutter tx with
      | Cutter.Cut txs -> cut_block t ~cut txs
      | Cutter.First ->
          let target = Cutter.epoch t.cutter in
          Clock.schedule (Msg.Net.clock t.net) ~delay:t.block_timeout (fun () ->
              if Cutter.epoch t.cutter = target && Cutter.pending t.cutter > 0 then
                ttc (Msg.K_ttc target))
      | Cutter.Buffered | Cutter.Duplicate -> ())
  | Msg.K_ttc target ->
      if target = Cutter.epoch t.cutter then
        Option.iter (cut_block t ~cut) (Cutter.cut t.cutter)
