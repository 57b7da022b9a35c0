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

let verify_tx ?payload registry tx =
  let payload = match payload with Some p -> p | None -> tx_payload tx in
  Identity.Registry.verify registry ~name:tx.tx_user payload tx.tx_signature

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

let merkle_tx_root txs = Merkle.root (List.map tx_payload txs)

let compute_hash ~height ~txs ~metadata ~prev_hash =
  header_hash ~height ~tx_root:(merkle_tx_root txs) ~metadata ~prev_hash

let hash_matches ?tx_root t =
  let tx_root = match tx_root with Some r -> r | None -> merkle_tx_root t.txs in
  String.equal t.hash
    (header_hash ~height:t.height ~tx_root ~metadata:t.metadata ~prev_hash:t.prev_hash)

let genesis_hash = Sha256.digest "brdb-genesis"

let create ~height ~txs ~metadata ~prev_hash =
  {
    height;
    txs;
    metadata;
    prev_hash;
    hash = compute_hash ~height ~txs ~metadata ~prev_hash;
    signatures = [];
  }

let sign t identity =
  let sg = Identity.sign identity t.hash in
  { t with signatures = t.signatures @ [ (Identity.name identity, sg) ] }

let verify ?tx_root registry t =
  hash_matches ?tx_root t
  && t.signatures <> []
  && List.for_all
       (fun (name, sg) -> Identity.Registry.verify registry ~name t.hash sg)
       t.signatures

let chains_from t ~prev =
  match prev with
  | None -> t.height = 1 && String.equal t.prev_hash genesis_hash
  | Some p -> t.height = p.height + 1 && String.equal t.prev_hash p.hash
