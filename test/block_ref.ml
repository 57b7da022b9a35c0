(* Block authentication as it was before [Block.check]: the header-hash
   test and the orderer-signature rule, with the tx root rebuilt from the
   transactions' payloads by the list-based Merkle reference and the
   header formula spelled out. test_ledger.ml pins [Block.check] to it.
   [audit] is the §3.5 item 6 store audit the tampering tests run. *)

module Block = Brdb_ledger.Block
module Identity = Brdb_crypto.Identity
module Sha256 = Brdb_crypto.Sha256

let hash_matches (b : Block.t) =
  let tx_root = Merkle_ref.root (List.map Block.tx_payload b.Block.txs) in
  String.equal b.Block.hash
    (Sha256.digest_concat
       [ string_of_int b.Block.height; tx_root; b.Block.metadata; b.Block.prev_hash ])

let verify registry (b : Block.t) =
  hash_matches b
  && b.Block.signatures <> []
  && List.for_all
       (fun (name, sg) -> Identity.Registry.verify registry ~name b.Block.hash sg)
       b.Block.signatures

(* Walk the stored chain in order; the height of the first block that does
   not chain from its predecessor or fails [Block.verify]. *)
let audit store registry =
  let bad = ref None in
  let prev = ref None in
  Brdb_ledger.Block_store.iter store (fun b ->
      if !bad = None then begin
        if not (Block.chains_from b ~prev:!prev && Block.verify registry b) then
          bad := Some b.Block.height;
        prev := Some b
      end);
  match !bad with None -> Ok () | Some h -> Error h
