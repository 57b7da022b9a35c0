(** Read receipts and provenance proofs (ISSUE 10, after bcdb-server's
    tamper-evidence design).

    Both proof kinds are verifiable by an untrusting client against
    {e hashes alone} — no trust in the serving peer is needed beyond the
    anchor, which the client obtains by majority (the tip block hash for
    receipts, the head of the history tree over the chained state digests
    for provenance proofs):

    - a {b receipt} shows a transaction is included in block [h]: the
      signed payload bytes, a Merkle proof to the block's transaction
      root, and the successor headers up to the tip — the verifier
      recomputes every block hash from [h] to the tip and compares the
      last one against the trusted tip hash.
    - a {b provenance proof} shows a write entry (["<gid>|<op>|<table>|
      <values>"]) was committed at block [h]: a Merkle proof to the
      block's write-set root, the chained digest prefix [a_{h-1}], which
      gives [a_h] with one chain hash, and the path from leaf [h - 1] of
      the node's history tree over [a_1 .. a_tip]
      ({!Brdb_node.Node_core.history_root}) to its root — O(log tip)
      hashes, whatever the distance to the tip. The verifier compares the
      root and the tree size against the trusted tree head.

    Proofs for heights a node installed from a snapshot cannot be built
    there (the write entries were never replayed — the provenance floor);
    any node that processed the block serves them. *)

module Merkle = Brdb_crypto.Merkle

(** Successor block header: enough to recompute its hash given the
    previous one. *)
type header = { h_height : int; h_tx_root : string; h_metadata : string }

type receipt = {
  rc_height : int;  (** block containing the transaction *)
  rc_payload : string;  (** canonical signed tx bytes — the Merkle leaf *)
  rc_proof : Merkle.proof;  (** to the block's transaction root *)
  rc_metadata : string;
  rc_prev_hash : string;
  rc_chain : header list;  (** heights [rc_height+1 .. tip], ascending *)
}

type provenance = {
  pv_height : int;
      (** block whose write set contains the entry; its digest is leaf
          [pv_height - 1] of the history tree, and the verifier takes the
          path's sides from that index, so the height is bound *)
  pv_entry : string;  (** the write entry — the Merkle leaf *)
  pv_proof : Merkle.proof;  (** to the block's write-set root *)
  pv_prefix : string;  (** chained state digest before [pv_height] *)
  pv_roots : string list;
      (** the history path: roots of the sibling subtrees of chained
          digests, leaf to root, at most ⌈log2 pv_tip⌉ *)
  pv_tip : int;  (** the history tree's size: the tip height it was served at *)
}

(** [build_receipt core ~tx_id] — serve a receipt from the node's block
    store; [Error] when the transaction is in no stored block. Cost: a
    scan from height 1 to the transaction's block, whose payloads are
    hashed once for the Merkle path; successor headers read the tx roots
    the store kept at append ({!Brdb_ledger.Block_store.tx_root}), so no
    later block is rehashed. *)
val build_receipt :
  Brdb_node.Node_core.t -> tx_id:string -> (receipt, string) result

(** [verify_receipt ~tip_hash r] — recompute the tx root from leaf +
    proof, then the block hash chain up to the tip; true iff the final
    hash equals the trusted [tip_hash]. Pure. *)
val verify_receipt : tip_hash:string -> receipt -> bool

(** [build_provenance core ~height ~matches] — proof for the first write
    entry of block [height] satisfying [matches] (first in canonical
    write order, so every node picks the same entry). [Error] when none
    matches or the height is below the node's provenance floor. Cost: one
    [matches] call per entry up to the match, then the path from the
    Merkle tree the node kept at commit
    ({!Brdb_node.Node_core.write_set_tree_at}): at most 26 hashes inside
    the entry's 16-entry bucket ({!Brdb_crypto.Merkle.prove_tree})
    whatever the block's size, plus the history path read from the
    node's history tree ({!Brdb_node.Node_core.history_path}): at most
    one hash per level for the tree's right edge, once per tip. *)
val build_provenance :
  Brdb_node.Node_core.t ->
  height:int ->
  matches:(string -> bool) ->
  (provenance, string) result

(** [verify_provenance ~tip_digest p] — recompute the write-set root from
    leaf + proof, chain it onto [pv_prefix] into the block's state digest,
    climb the history path with each step's side taken from
    [(pv_height - 1, pv_tip)], and compare the tree head
    ["<pv_tip>:<hex root>"] against the trusted [tip_digest]. A path of
    the wrong length, a height outside [1 .. pv_tip], or any other height
    or tip than the one served fails. Pure. Cost: one hash per proof step,
    one chain hash and at most ⌈log2 pv_tip⌉ history hashes. *)
val verify_provenance : tip_digest:string -> provenance -> bool

(** Entry predicate for "this row was written": matches an insert of, or
    an update to, exactly [values] in [table] (the canonical entry
    encodings of {!Brdb_txn.Manager.write_set_entries}). Apply it to
    [~table ~values] once: the two suffixes it compares are built then,
    and each entry tested costs two suffix comparisons. *)
val row_write_matches :
  table:string -> values:Brdb_storage.Value.t array -> string -> bool

(** The node's current tip block hash (genesis hash at height 0) — what a
    client cross-checks across peers to obtain the trusted anchor. *)
val tip_hash : Brdb_node.Node_core.t -> string

(** The provenance anchor: the head of the node's history tree over the
    chained state digests of heights [1 .. tip], ["<tip>:<hex root>"]
    (genesis hash at height 0). The root commits to every chained digest,
    the tip's included; the size in front binds the tree's shape, which
    the root alone does not. A client cross-checks it across peers, as it
    did the tip digest. *)
val tip_digest : Brdb_node.Node_core.t -> string

(** Human-readable one-line renderings (CLI). *)
val describe_receipt : receipt -> string

val describe_provenance : provenance -> string
