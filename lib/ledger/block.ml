open Brdb_crypto

type tx = {
  tx_id : string;
  tx_user : string;
  tx_contract : string;
  tx_args : Brdb_storage.Value.t list;
  tx_snapshot : int option;
  tx_signature : Schnorr.signature;
}

let tx_core_parts tx =
  [
    tx.tx_id;
    tx.tx_user;
    tx.tx_contract;
    String.concat "," (List.map Brdb_storage.Value.encode tx.tx_args);
    (match tx.tx_snapshot with None -> "-" | Some h -> string_of_int h);
  ]

let tx_payload tx = Sha256.digest_concat (tx_core_parts tx)

let unsigned ~id ~user ~contract ~args ~snapshot =
  {
    tx_id = id;
    tx_user = user;
    tx_contract = contract;
    tx_args = args;
    tx_snapshot = snapshot;
    tx_signature = { Schnorr.e = 0L; s = 0L };
  }

let make_tx ~id ~identity ~contract ~args =
  let tx =
    unsigned ~id ~user:(Identity.name identity) ~contract ~args ~snapshot:None
  in
  { tx with tx_signature = Identity.sign identity (tx_payload tx) }

let eo_id ~user ~contract ~args ~snapshot =
  Brdb_util.Hex.encode
    (Sha256.digest_concat
       [
         user;
         contract;
         String.concat "," (List.map Brdb_storage.Value.encode args);
         string_of_int snapshot;
       ])

let make_eo_tx ~identity ~contract ~args ~snapshot =
  let user = Identity.name identity in
  let id = eo_id ~user ~contract ~args ~snapshot in
  let tx = unsigned ~id ~user ~contract ~args ~snapshot:(Some snapshot) in
  { tx with tx_signature = Identity.sign identity (tx_payload tx) }

type signed_tx = { tx : tx; payload : string }

let verify_signed registry { tx; payload } =
  Identity.Registry.verify registry ~name:tx.tx_user payload tx.tx_signature

let verify_tx registry tx = verify_signed registry { tx; payload = tx_payload tx }

type t = {
  height : int;
  txs : tx list;
  metadata : string;
  prev_hash : string;
  hash : string;
  signatures : (string * Schnorr.signature) list;
}

let header_hash ~height ~tx_root ~metadata ~prev_hash =
  Sha256.digest_concat [ string_of_int height; tx_root; metadata; prev_hash ]

let genesis_hash = Sha256.digest "brdb-genesis"

let create ~height ~txs ~metadata ~prev_hash =
  {
    height;
    txs;
    metadata;
    prev_hash;
    hash =
      header_hash ~height ~tx_root:(Merkle.root (List.map tx_payload txs)) ~metadata
        ~prev_hash;
    signatures = [];
  }

let sign t identity =
  let sg = Identity.sign identity t.hash in
  { t with signatures = t.signatures @ [ (Identity.name identity, sg) ] }

type checked = { block : t; signed : signed_tx list; tx_root : string }

(* The one place a received block's contents are hashed: each payload
   once, then the tx root and the header. *)
let hash_contents t =
  let signed = List.map (fun tx -> { tx; payload = tx_payload tx }) t.txs in
  let tx_root = Merkle.root (List.map (fun s -> s.payload) signed) in
  let hash =
    header_hash ~height:t.height ~tx_root ~metadata:t.metadata ~prev_hash:t.prev_hash
  in
  (signed, tx_root, hash)

let check_hash t =
  let signed, tx_root, hash = hash_contents t in
  if String.equal t.hash hash then Ok { block = t; signed; tx_root }
  else Error "invalid block (hash or signatures)"

let orderer_signed registry t =
  t.signatures <> []
  && List.for_all
       (fun (name, sg) -> Identity.Registry.verify registry ~name t.hash sg)
       t.signatures

let check registry t =
  if orderer_signed registry t then check_hash t
  else Error "invalid block (hash or signatures)"

let check_decoded registry t =
  let signed, tx_root, hash = hash_contents t in
  let block = { t with hash } in
  if (t.hash = "" || String.equal t.hash hash) && orderer_signed registry block then
    Ok { block; signed; tx_root }
  else Error "invalid block (hash or signatures)"

let verify registry t = Result.is_ok (check registry t)

let chains_from t ~prev =
  match prev with
  | None -> t.height = 1 && String.equal t.prev_hash genesis_hash
  | Some p -> t.height = p.height + 1 && String.equal t.prev_hash p.hash
