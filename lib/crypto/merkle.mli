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
