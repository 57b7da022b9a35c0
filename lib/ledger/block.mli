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

(** [verify_tx registry tx] checks the client signature over
    {!tx_payload}[ tx]. [payload], when given, must be that payload as the
    caller just computed it from [tx]'s contents; it saves hashing the
    transaction again. *)
val verify_tx : ?payload:string -> Brdb_crypto.Identity.Registry.t -> tx -> bool

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

(** The Merkle root of [txs]' {!tx_payload}s — a block's tx root. *)
val merkle_tx_root : tx list -> string

(** {!header_hash} with the tx root computed from [txs]. *)
val compute_hash :
  height:int -> txs:tx list -> metadata:string -> prev_hash:string -> string

(** [hash_matches block] — [block.hash] is the header hash of its contents.
    [tx_root], when given, must be the Merkle root of the payloads the
    caller just computed from [block.txs]. *)
val hash_matches : ?tx_root:string -> t -> bool

(** The hash of "block 0"; the first real block has height 1 and chains
    from this. *)
val genesis_hash : string

val create : height:int -> txs:tx list -> metadata:string -> prev_hash:string -> t

(** [sign block identity] appends an orderer signature. *)
val sign : t -> Brdb_crypto.Identity.t -> t

(** [verify registry block] — hash integrity ({!hash_matches}, with the
    same [tx_root]) plus at least one valid orderer signature. *)
val verify : ?tx_root:string -> Brdb_crypto.Identity.Registry.t -> t -> bool

(** [chains_from block ~prev] — sequence number and hash chain agree. *)
val chains_from : t -> prev:t option -> bool
