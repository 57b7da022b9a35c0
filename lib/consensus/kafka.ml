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
  assembler : Assembler.t;
  (* In-order consumption: records can arrive jittered; buffer by offset. *)
  reorder : (int, Msg.kafka_entry) Hashtbl.t;
  mutable next_offset : int;
}

(* Modelled orderer CPU per received transaction and per cut block (s). *)
let tx_cpu = 0.00002

let block_cpu = 0.001

let publish t entry =
  ignore
    (Msg.Net.send t.net ~src:t.name ~dst:t.cluster
       ~size_bytes:(Msg.size (Msg.Kafka_publish entry))
       (Msg.Kafka_publish entry))

(* Apply the record stream in offset order. *)
let rec drain t ~cut ~ttc =
  match Hashtbl.find_opt t.reorder t.next_offset with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.reorder t.next_offset;
      t.next_offset <- t.next_offset + 1;
      Assembler.apply t.assembler ~cut ~ttc entry;
      drain t ~cut ~ttc

let create_orderer ~net ~name ~identity ~cluster ~auth ~block_size ~block_timeout
    ~peers () =
  let t =
    {
      net;
      name;
      cluster;
      assembler =
        Assembler.create ~net ~name ~identity ~metadata:"kafka" ~auth ~block_size
          ~block_timeout ~peers;
      reorder = Hashtbl.create 64;
      next_offset = 0;
    }
  in
  let cpu = Cpu.create (Msg.Net.clock net) in
  (* Time-to-cut (§4.4): each orderer publishes a TTC record naming the
     cutter batch (epoch) it wants cut. The cutter state is a
     deterministic function of the record stream, so the epoch means the
     same thing on every orderer; the first TTC for a still-open epoch
     cuts the block and later duplicates are stale. *)
  let cut = Cpu.run cpu ~cost:block_cpu and ttc = publish t in
  Msg.Net.register net ~name (fun ~src:_ msg ->
      match msg with
      | Msg.Client_tx tx -> Cpu.run cpu ~cost:tx_cpu (fun () -> publish t (Msg.K_tx tx))
      | Msg.Kafka_record { offset; entry } ->
          Hashtbl.replace t.reorder offset entry;
          drain t ~cut ~ttc
      | _ -> ());
  t

let assembler t = t.assembler
