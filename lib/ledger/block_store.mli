(** Append-only block store (the [pgBlockstore] analogue).

    Blocks must arrive in sequence and chain correctly; [append] rejects
    gaps, duplicates and hash-chain breaks. {!audit} re-verifies the whole
    chain, which is how tampering by a malicious node is detected
    (§3.5 item 6). *)

type t

type error = [ `Out_of_sequence | `Broken_chain | `Bad_block ]

val create : unit -> t

val height : t -> int

(** [append store block]; [`Bad_block] when {!Block.hash_matches} fails
    ([tx_root] is passed through to it, and computed from the payloads
    when absent). The store keeps the root beside the block. *)
val append : ?tx_root:string -> t -> Block.t -> (unit, error) result

val get : t -> int -> Block.t option

val last : t -> Block.t option

(** [tx_root store h] is the Merkle root of block [h]'s payloads, as
    checked when the block was appended (or restored); [None] when no
    block [h] is stored. Reading it hashes nothing. *)
val tx_root : t -> int -> string option

val iter : t -> (Block.t -> unit) -> unit

(** Full-chain integrity check; returns the height of the first bad block. *)
val audit : t -> Brdb_crypto.Identity.Registry.t -> (unit, int) result

(** [restore t blocks] replaces the store's contents with [blocks]
    (heights 1..n, snapshot install — DESIGN.md §11). The sequence is
    validated exactly as by repeated {!append}; on [Error] the store is
    unchanged. Signatures are not checked here — run {!audit} after. *)
val restore : t -> Block.t list -> (unit, string) result

(** Tamper with a stored block (testing §3.5 scenarios only). *)
val tamper_for_test : t -> int -> Block.t -> unit
