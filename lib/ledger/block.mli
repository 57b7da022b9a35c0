(** Transactions and blocks.

    A transaction envelope matches §3.3/§3.4 of the paper: a unique
    identifier, the invoking user, the contract invocation (name +
    arguments), an optional snapshot height (execute-order-in-parallel
    only) and the client's signature over the rest.

    A block carries a sequence number, the transactions, consensus
    metadata, the previous block's hash, its own hash over all of that,
    and orderer signatures on the hash. *)

type tx = {
  tx_id : string;
  tx_user : string;
  tx_contract : string;
  tx_args : Brdb_storage.Value.t list;
  tx_snapshot : int option;  (** EO: block height the client executed at *)
  tx_signature : Brdb_crypto.Schnorr.signature;
}

(** Canonical bytes covered by the client signature. *)
val tx_payload : tx -> string

(** OE transaction: the caller supplies a fresh unique id. *)
val make_tx :
  id:string ->
  identity:Brdb_crypto.Identity.t ->
  contract:string ->
  args:Brdb_storage.Value.t list ->
  tx

(** EO transaction: the id is [hash(user, contract+args, snapshot)]
    (§3.4.3), so two different submissions can never collide on id. *)
val make_eo_tx :
  identity:Brdb_crypto.Identity.t ->
  contract:string ->
  args:Brdb_storage.Value.t list ->
  snapshot:int ->
  tx

(** The client signature over {!tx_payload}[ tx], hashed here. *)
val verify_tx : Brdb_crypto.Identity.Registry.t -> tx -> bool

(** A transaction of a {!checked} block and its {!tx_payload}. *)
type signed_tx = private { tx : tx; payload : string }

(** {!verify_tx} on the payload {!check_hash} already computed. *)
val verify_signed : Brdb_crypto.Identity.Registry.t -> signed_tx -> bool

type t = {
  height : int;
  txs : tx list;
  metadata : string;
  prev_hash : string;
  hash : string;
  signatures : (string * Brdb_crypto.Schnorr.signature) list;
      (** orderer name, signature over [hash] *)
}

(** The header formula: [H(height, tx_root, metadata, prev_hash)], where
    [tx_root] is the Merkle root of the block's {!tx_payload}s. Receipt
    verifiers use it on roots alone. *)
val header_hash :
  height:int -> tx_root:string -> metadata:string -> prev_hash:string -> string

(** The hash of "block 0"; the first real block has height 1 and chains
    from this. *)
val genesis_hash : string

val create : height:int -> txs:tx list -> metadata:string -> prev_hash:string -> t

(** [sign block identity] appends an orderer signature. *)
val sign : t -> Brdb_crypto.Identity.t -> t

(** A block whose [hash] is the {!header_hash} of its contents, with its
    payloads in block order and its tx root; only {!check_hash} builds it. *)
type checked = private { block : t; signed : signed_tx list; tx_root : string }

(** [check_hash block] hashes each payload once; the block store and the
    commit path reuse the result and hash nothing again. *)
val check_hash : t -> (checked, string) result

(** At least one orderer signature, all valid over [block.hash]; append
    checks it again, as user management can change [registry] (§4.4). *)
val orderer_signed : Brdb_crypto.Identity.Registry.t -> t -> bool

(** {!orderer_signed}, then {!check_hash}: the admission test (§3.3, §4.4). *)
val check : Brdb_crypto.Identity.Registry.t -> t -> (checked, string) result

(** {!check} for a block whose [hash] did not travel with it (snapshot
    decode, DESIGN.md §11, leaves it [""]): the same single hashing pass as
    {!check_hash} derives the hash from the contents, and the orderer
    signatures must hold over it. A non-empty [block.hash] (an in-process
    snapshot) must equal the derived hash. *)
val check_decoded : Brdb_crypto.Identity.Registry.t -> t -> (checked, string) result

(** [verify registry block] is [Result.is_ok (check registry block)]. *)
val verify : Brdb_crypto.Identity.Registry.t -> t -> bool

(** [chains_from block ~prev] — sequence number and hash chain agree. *)
val chains_from : t -> prev:t option -> bool
