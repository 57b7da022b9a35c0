(** Binary Merkle trees over SHA-256.

    Used to digest the set of transactions in a block and the per-block
    write sets exchanged during checkpointing. Leaves are domain-separated
    from internal nodes so a leaf cannot be reinterpreted as a subtree. *)

(** A hashed tree, kept so inclusion proofs can be served without
    rehashing every leaf. Only the levels at and above 16-leaf buckets are
    retained: about [n/8] digests for [n] leaves, packed 32 bytes each. *)
type tree

(** [tree leaves] hashes every leaf and internal node once: at most
    [2n - 1] hashes for [n] leaves. *)
val tree : string list -> tree

(** The Merkle root of the leaves the tree was built from; the root of
    [[]] is a fixed sentinel digest. *)
val tree_root : tree -> string

(** [root leaves] is [tree_root (tree leaves)]. *)
val root : string list -> string

type proof

(** [prove_tree t leaves i] is the inclusion proof for the [i]-th leaf,
    where [leaves] are the leaves [t] was built from. Inside the 16-leaf
    bucket holding leaf [i] it hashes only the path's sibling subtrees
    (the bucket's other leaves and at most 11 nodes, so at most 26
    hashes); the rest of the path is read from [t]. The proof equals
    [prove leaves i] byte for byte. Raises
    [Invalid_argument] when [i] is out of range or the leaf count differs
    from the tree's (the leaves' contents are not re-checked). *)
val prove_tree : tree -> string list -> int -> proof

(** [prove leaves i] builds an inclusion proof for the [i]-th leaf, by
    hashing the whole tree first; {!prove_tree} serves repeated proofs
    over the same leaves. Raises [Invalid_argument] when [i] is out of
    range. *)
val prove : string list -> int -> proof

(** [apply ~leaf proof] is the root the proof implies for [leaf] — an
    untrusting verifier recomputes it and compares against a root bound
    into a trusted hash chain (ISSUE 10). *)
val apply : leaf:string -> proof -> string

(** Canonical printable encoding of a proof: per step, a ['L']/['R'] tag
    naming the sibling's side followed by its hex digest, in leaf-to-root
    order. Used by read receipts and provenance proofs (ISSUE 10) so an
    untrusting client can carry proofs as plain strings. *)
val proof_to_string : proof -> string

(** {2 Append-only history tree}

    A Merkle tree over a growing sequence of leaves, of the same shape
    as {!root} (bottom-up pairing, an odd last node promoted unchanged):
    [history_root h] equals [root] of the leaves appended so far. It
    keeps each level's complete aligned subtrees, packed 32 bytes each,
    about [2n] digests for [n] leaves, so a leaf's inclusion path is read
    in O(log n) (after Crosby and Wallach's history trees and RFC 6962's
    audit paths). *)
type history

(** An empty history. *)
val history : unit -> history

(** Number of leaves appended (and not truncated away). *)
val history_size : history -> int

(** [history_append h leaf] adds [leaf] at index [history_size h]: one
    leaf hash plus about one node hash, amortized. *)
val history_append : history -> string -> unit

(** [history_truncate h n] keeps the first [n] leaves. Raises
    [Invalid_argument] unless [0 <= n <= history_size h]. *)
val history_truncate : history -> int -> unit

(** [history_reset h] is [history_truncate h 0]. *)
val history_reset : history -> unit

(** The root over every leaf: computed on first use after a change (at
    most one hash per level) and kept until the next one. The root of an
    empty history is {!root}'s sentinel. *)
val history_root : history -> string

(** [history_path h i] is leaf [i]'s path at the current size: the
    sibling subtrees' roots, leaf to root, at most ⌈log2 n⌉ of them. Each
    sibling's side is not stored: {!history_apply} derives it from the
    index and size. Raises [Invalid_argument] when [i] is out of range. *)
val history_path : history -> int -> string list

(** [history_apply ~leaf ~index ~size path] is the root [path] implies
    for [leaf] at [index] of a [size]-leaf history, taking each step's
    side from [(index, size)] as RFC 6962 does; [None] when [index] is
    out of range or [path] has the wrong length. Claiming another index
    at the same size changes the sides or the length, so the root binds
    the position; the size itself is not bound by the root and must come
    from the verifier's anchor. *)
val history_apply : leaf:string -> index:int -> size:int -> string list -> string option
