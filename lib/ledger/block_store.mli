(** Append-only block store (the [pgBlockstore] analogue).

    Blocks must arrive in sequence and chain correctly; [append] rejects
    gaps, duplicates and hash-chain breaks. Re-verifying the stored chain
    ({!Block.chains_from} and {!Block.verify} over {!get}) is how
    tampering by a malicious node is detected (§3.5 item 6). *)

type t

type error = [ `Out_of_sequence | `Broken_chain ]

val create : unit -> t

val height : t -> int

(** [append store checked] stores a block {!Block.check_hash} accepted. It
    checks only sequence and chain, and hashes nothing; the store keeps
    the checked tx root beside the block (not the payloads). *)
val append : t -> Block.checked -> (unit, error) result

val get : t -> int -> Block.t option

val last : t -> Block.t option

(** [tx_root store h] is the Merkle root of block [h]'s payloads, as
    checked when the block was appended (or restored); [None] when no
    block [h] is stored. Reading it hashes nothing. *)
val tx_root : t -> int -> string option

val iter : t -> (Block.t -> unit) -> unit

(** [restore t blocks] replaces the store's contents with [blocks]
    (heights 1..n, snapshot install — DESIGN.md §11). The sequence and
    chain are validated exactly as by repeated {!append}; on [Error] the
    store is unchanged. *)
val restore : t -> Block.checked list -> (unit, string) result

module Testing : sig
  (** [tamper t h b] replaces the stored block at height [h] with [b],
      unchecked (the §3.5 forged-store scenarios). *)
  val tamper : t -> int -> Block.t -> unit
end
