module Cpu = Brdb_sim.Cpu

type t = Assembler.t

(* Modelled orderer CPU per received transaction and per cut block (s). *)
let tx_cpu = 0.00002

let block_cpu = 0.001

let create ~net ~name ~identity ~auth ~block_size ~block_timeout ~peers () =
  let assembler =
    Assembler.create ~net ~name ~identity ~metadata:"solo" ~auth ~block_size
      ~block_timeout ~peers
  in
  let cpu = Cpu.create (Msg.Net.clock net) in
  let cut = Cpu.run cpu ~cost:block_cpu in
  (* The degenerate ordered stream: every entry is applied where it is
     made, a submission as a K_tx and its batch's timer as a K_ttc. *)
  let rec apply entry = Assembler.apply assembler ~cut ~ttc:apply entry in
  Msg.Net.register net ~name (fun ~src:_ msg ->
      match msg with
      | Msg.Client_tx tx -> Cpu.run cpu ~cost:tx_cpu (fun () -> apply (Msg.K_tx tx))
      | _ -> ());
  assembler

let assembler t = t
