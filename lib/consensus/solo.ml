module Block = Brdb_ledger.Block
module Clock = Brdb_sim.Clock
module Cpu = Brdb_sim.Cpu

type t = {
  net : Msg.Net.net;
  name : string;
  cutter : Cutter.t;
  assembler : Assembler.t;
  clock : Clock.t;
  cpu : Cpu.t;
  block_timeout : float;
  peers : string list;
  mutable blocks : int;
}

(* Modelled orderer CPU per received transaction and per cut block (s). *)
let tx_cpu = 0.00002

let block_cpu = 0.001

let deliver t block =
  t.blocks <- t.blocks + 1;
  List.iter
    (fun peer ->
      ignore
        (Msg.Net.send t.net ~src:t.name ~dst:peer
           ~size_bytes:(Msg.size (Msg.Block_deliver block))
           (Msg.Block_deliver block)))
    t.peers

let cut_block t txs = Cpu.run t.cpu ~cost:block_cpu (fun () -> deliver t (Assembler.make t.assembler txs))

let arm_timer t =
  let epoch = Cutter.epoch t.cutter in
  Clock.schedule t.clock ~delay:t.block_timeout (fun () ->
      if Cutter.epoch t.cutter = epoch then
        match Cutter.cut t.cutter with
        | Some txs -> cut_block t txs
        | None -> ())

let handle t ~src:_ msg =
  match msg with
  | Msg.Client_tx tx ->
      Cpu.run t.cpu ~cost:tx_cpu (fun () ->
          match Cutter.add t.cutter tx with
          | Cutter.Cut txs -> cut_block t txs
          | Cutter.First -> arm_timer t
          | Cutter.Buffered | Cutter.Duplicate -> ())
  | _ -> ()

let create ~net ~name ~identity ?auth ~block_size ~block_timeout ~peers () =
  let t =
    {
      net;
      name;
      cutter = Cutter.create ?auth ~block_size ();
      assembler = Assembler.create ~identity ~metadata:"solo";
      clock = Msg.Net.clock net;
      cpu = Cpu.create (Msg.Net.clock net);
      block_timeout;
      peers;
      blocks = 0;
    }
  in
  Msg.Net.register net ~name (fun ~src msg -> handle t ~src msg);
  t

let blocks_cut t = t.blocks

let queued t = Cutter.pending t.cutter

let auth_verified t = Cutter.auth_verified t.cutter

let auth_rejected t = Cutter.auth_rejected t.cutter

let replays t = Cutter.replays t.cutter
