module Merkle = Brdb_crypto.Merkle
module Sha256 = Brdb_crypto.Sha256
module Hex = Brdb_util.Hex
module Value = Brdb_storage.Value
module Block = Brdb_ledger.Block
module Block_store = Brdb_ledger.Block_store
module Node_core = Brdb_node.Node_core

type header = { h_height : int; h_tx_root : string; h_metadata : string }

type receipt = {
  rc_height : int;
  rc_payload : string;
  rc_proof : Merkle.proof;
  rc_metadata : string;
  rc_prev_hash : string;
  rc_chain : header list;
}

type provenance = {
  pv_height : int;
  pv_entry : string;
  pv_proof : Merkle.proof;
  pv_prefix : string;
  pv_roots : string list;
  pv_tip : int;
}

(* Successor headers read the tx root the store kept when each block was
   appended: no block above the receipt's is rehashed. *)
let successors store ~above ~upto =
  let rec collect h acc =
    if h > upto then List.rev acc
    else
      match (Block_store.get store h, Block_store.tx_root store h) with
      | Some b, Some tx_root ->
          collect (h + 1)
            ({ h_height = h; h_tx_root = tx_root; h_metadata = b.Block.metadata }
            :: acc)
      | _ -> List.rev acc
  in
  collect (above + 1) []

let build_receipt core ~tx_id =
  let store = Node_core.block_store core in
  let tip = Block_store.height store in
  let rec find h =
    if h > tip then Error (Printf.sprintf "transaction %s is in no stored block" tx_id)
    else
      match Block_store.get store h with
      | None -> Error (Printf.sprintf "transaction %s is in no stored block" tx_id)
      | Some b -> (
          match
            List.find_index
              (fun (tx : Block.tx) -> String.equal tx.Block.tx_id tx_id)
              b.Block.txs
          with
          | None -> find (h + 1)
          | Some i ->
              let leaves = List.map Block.tx_payload b.Block.txs in
              Ok
                {
                  rc_height = h;
                  rc_payload = List.nth leaves i;
                  rc_proof = Merkle.prove leaves i;
                  rc_metadata = b.Block.metadata;
                  rc_prev_hash = b.Block.prev_hash;
                  rc_chain = successors store ~above:h ~upto:tip;
                })
  in
  find 1

let verify_receipt ~tip_hash rc =
  let tx_root = Merkle.apply ~leaf:rc.rc_payload rc.rc_proof in
  let h0 =
    Block.header_hash ~height:rc.rc_height ~tx_root ~metadata:rc.rc_metadata
      ~prev_hash:rc.rc_prev_hash
  in
  let rec chain prev height = function
    | [] -> String.equal prev tip_hash
    | hd :: rest ->
        hd.h_height = height + 1
        && chain
             (Block.header_hash ~height:hd.h_height ~tx_root:hd.h_tx_root
                ~metadata:hd.h_metadata ~prev_hash:prev)
             hd.h_height rest
  in
  chain h0 rc.rc_height rc.rc_chain

let build_provenance core ~height ~matches =
  let tip = Node_core.history_size core in
  if height < 1 || height > tip then
    Error (Printf.sprintf "height %d out of range (tip %d)" height tip)
  else
    match Node_core.write_set_tree_at core ~height with
    | None ->
        Error
          (Printf.sprintf
             "height %d is below this node's provenance floor (installed from \
              a snapshot)"
             height)
    | Some (entries, tree) -> (
        let rec index i = function
          | [] -> None
          | e :: rest -> if matches e then Some (i, e) else index (i + 1) rest
        in
        match index 0 entries with
        | None -> Error (Printf.sprintf "no matching write entry at height %d" height)
        | Some (i, entry) ->
            let prefix =
              if height = 1 then Block.genesis_hash
              else
                match Node_core.state_digest core ~height:(height - 1) with
                | Some d -> d
                | None -> Block.genesis_hash
            in
            Ok
              {
                pv_height = height;
                pv_entry = entry;
                pv_proof = Merkle.prove_tree tree entries i;
                pv_prefix = prefix;
                pv_roots = Node_core.history_path core ~height;
                pv_tip = tip;
              })

(* The anchor names the history's size beside its root, as an RFC 6962
   tree head does: a root alone does not fix the size (leaf 2 of 3 and
   leaf 1 of 2 take the same single left step), and without the size a
   proof could claim another height. *)
let tree_head ~size root = Printf.sprintf "%d:%s" size (Hex.encode root)

let verify_provenance ~tip_digest pv =
  let ws_root = Merkle.apply ~leaf:pv.pv_entry pv.pv_proof in
  let digest = Hex.encode (Sha256.digest_concat [ pv.pv_prefix; ws_root ]) in
  match
    Merkle.history_apply ~leaf:digest ~index:(pv.pv_height - 1) ~size:pv.pv_tip
      pv.pv_roots
  with
  | Some root -> String.equal (tree_head ~size:pv.pv_tip root) tip_digest
  | None -> false

let row_write_matches ~table ~values =
  let vals =
    String.concat "," (List.map Value.encode (Array.to_list values))
  in
  (* Insert leaves read "<gid>|I|<table>|<vals>"; update leaves end with
     ";U+|<table>|<new vals>" (Manager.write_set_entries). Both suffixes
     are built once per row, not once per entry tested. *)
  let insert = Printf.sprintf "|I|%s|%s" table vals
  and update = Printf.sprintf ";U+|%s|%s" table vals in
  fun entry ->
    String.ends_with ~suffix:insert entry || String.ends_with ~suffix:update entry

let tip_hash core =
  let store = Node_core.block_store core in
  match Block_store.last store with
  | Some b -> b.Block.hash
  | None -> Block.genesis_hash

let tip_digest core =
  match Node_core.history_size core with
  | 0 -> Block.genesis_hash
  | size -> tree_head ~size (Node_core.history_root core)

let describe_receipt rc =
  Printf.sprintf "receipt: block %d, payload %s, %d-step proof, %d successors"
    rc.rc_height
    (Hex.short (Sha256.digest rc.rc_payload))
    (String.length (Merkle.proof_to_string rc.rc_proof) / 65)
    (List.length rc.rc_chain)

let describe_provenance pv =
  Printf.sprintf
    "provenance: block %d, entry %S, %d-step proof, %d-step history path to tip %d"
    pv.pv_height pv.pv_entry
    (String.length (Merkle.proof_to_string pv.pv_proof) / 65)
    (List.length pv.pv_roots) pv.pv_tip
