module Block = Brdb_ledger.Block
module Clock = Brdb_sim.Clock
module Cpu = Brdb_sim.Cpu

(* --- broker cluster -------------------------------------------------- *)

type cluster = {
  c_net : Msg.Net.net;
  c_name : string;
  c_cpu : Cpu.t;
  c_orderers : string list;
  mutable c_next_offset : int;
}

(* Modelled broker CPU per published record (s): a ≈3300 records/s
   ceiling. *)
let publish_cpu = 0.0003

let create_cluster ~net ~name ~orderers () =
  let c =
    {
      c_net = net;
      c_name = name;
      c_cpu = Cpu.create (Msg.Net.clock net);
      c_orderers = orderers;
      c_next_offset = 0;
    }
  in
  Msg.Net.register net ~name (fun ~src:_ msg ->
      match msg with
      | Msg.Kafka_publish entry ->
          Cpu.run c.c_cpu ~cost:publish_cpu (fun () ->
              let offset = c.c_next_offset in
              c.c_next_offset <- offset + 1;
              let record = Msg.Kafka_record { offset; entry } in
              List.iter
                (fun o ->
                  ignore
                    (Msg.Net.send c.c_net ~src:c.c_name ~dst:o
                       ~size_bytes:(Msg.size record) record))
                c.c_orderers)
      | _ -> ());
  c

(* --- orderer node ------------------------------------------------------ *)

type t = {
  net : Msg.Net.net;
  name : string;
  cluster : string;
  clock : Clock.t;
  cpu : Cpu.t;
  cutter : Cutter.t;
  assembler : Assembler.t;
  block_timeout : float;
  peers : string list;
  (* In-order consumption: records can arrive jittered; buffer by offset. *)
  reorder : (int, Msg.kafka_entry) Hashtbl.t;
  mutable next_offset : int;
  mutable blocks : int;
}

(* Modelled orderer CPU per received transaction and per cut block (s). *)
let tx_cpu = 0.00002

let block_cpu = 0.001

let publish t entry =
  ignore
    (Msg.Net.send t.net ~src:t.name ~dst:t.cluster
       ~size_bytes:(Msg.size (Msg.Kafka_publish entry))
       (Msg.Kafka_publish entry))

let deliver t block =
  t.blocks <- t.blocks + 1;
  List.iter
    (fun peer ->
      ignore
        (Msg.Net.send t.net ~src:t.name ~dst:peer
           ~size_bytes:(Msg.size (Msg.Block_deliver block))
           (Msg.Block_deliver block)))
    t.peers

let cut_block t txs =
  Cpu.run t.cpu ~cost:block_cpu (fun () -> deliver t (Assembler.make t.assembler txs))

let arm_timer t =
  (* Time-to-cut (§4.4): each orderer publishes a TTC record naming the
     cutter batch (epoch) it wants cut. The cutter state is a deterministic
     function of the record stream, so the epoch means the same thing on
     every orderer; the first TTC for a still-open epoch cuts the block and
     later duplicates are stale. *)
  let target = Cutter.epoch t.cutter in
  Clock.schedule t.clock ~delay:t.block_timeout (fun () ->
      if Cutter.epoch t.cutter = target && Cutter.pending t.cutter > 0 then
        publish t (Msg.K_ttc target))

let apply_entry t entry =
  match entry with
  | Msg.K_tx tx -> (
      match Cutter.add t.cutter tx with
      | Cutter.Cut txs -> cut_block t txs
      | Cutter.First -> arm_timer t
      | Cutter.Buffered | Cutter.Duplicate -> ())
  | Msg.K_ttc target ->
      if target = Cutter.epoch t.cutter then
        match Cutter.cut t.cutter with
        | Some txs -> cut_block t txs
        | None -> ()

let rec drain t =
  match Hashtbl.find_opt t.reorder t.next_offset with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.reorder t.next_offset;
      t.next_offset <- t.next_offset + 1;
      apply_entry t entry;
      drain t

let handle t ~src:_ msg =
  match msg with
  | Msg.Client_tx tx -> Cpu.run t.cpu ~cost:tx_cpu (fun () -> publish t (Msg.K_tx tx))
  | Msg.Kafka_record { offset; entry } ->
      Hashtbl.replace t.reorder offset entry;
      drain t
  | _ -> ()

let create_orderer ~net ~name ~identity ~cluster ?auth ~block_size ~block_timeout
    ~peers () =
  let t =
    {
      net;
      name;
      cluster;
      clock = Msg.Net.clock net;
      cpu = Cpu.create (Msg.Net.clock net);
      cutter = Cutter.create ?auth ~block_size ();
      assembler = Assembler.create ~identity ~metadata:"kafka";
      block_timeout;
      peers;
      reorder = Hashtbl.create 64;
      next_offset = 0;
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
