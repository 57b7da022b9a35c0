(* One linear chain of signed blocks, as an orderer assembles it: an
   [Assembler] on a network of its own with no peers connected, so its
   blocks go only where a test hands them ([Assembler.make]). *)

let create ~identity ~metadata =
  let net =
    Brdb_consensus.Msg.Net.create ~clock:(Brdb_sim.Clock.create ())
      ~rng:(Brdb_sim.Rng.create ~seed:1) ~default_link:Brdb_sim.Network.lan_link
  in
  Brdb_consensus.Assembler.create ~net ~name:"orderer" ~identity ~metadata
    ~auth:(fun _ -> true) ~block_size:1 ~block_timeout:1.0 ~peers:[]
