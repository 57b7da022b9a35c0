(* The receipt builder as it was before the block store kept tx roots:
   every successor header's tx root is recomputed from the stored block's
   payloads, and the inclusion path comes from the list-based Merkle
   reference. [build] returns the receipt, carrying the library's
   uncached [Merkle.prove] path, with the reference path's text form;
   test_client.ml pins [Proof.build_receipt] to both. *)

module Block = Brdb_ledger.Block
module Block_store = Brdb_ledger.Block_store
module Proof = Brdb_client.Proof

let payloads (b : Block.t) = List.map Block.tx_payload b.Block.txs

let successors store ~above ~upto =
  let rec collect h acc =
    if h > upto then List.rev acc
    else
      match Block_store.get store h with
      | None -> List.rev acc
      | Some b ->
          collect (h + 1)
            ({
               Proof.h_height = h;
               h_tx_root = Merkle_ref.root (payloads b);
               h_metadata = b.Block.metadata;
             }
            :: acc)
  in
  collect (above + 1) []

let build store ~tx_id =
  let tip = Block_store.height store in
  let rec find h =
    if h > tip then None
    else
      match Block_store.get store h with
      | None -> None
      | Some b -> (
          match
            List.find_index
              (fun (tx : Block.tx) -> String.equal tx.Block.tx_id tx_id)
              b.Block.txs
          with
          | None -> find (h + 1)
          | Some i ->
              let leaves = payloads b in
              Some
                ( {
                    Proof.rc_height = h;
                    rc_payload = List.nth leaves i;
                    rc_proof = Brdb_crypto.Merkle.prove leaves i;
                    rc_metadata = b.Block.metadata;
                    rc_prev_hash = b.Block.prev_hash;
                    rc_chain = successors store ~above:h ~upto:tip;
                  },
                  Merkle_ref.proof leaves i ))
  in
  find 1
