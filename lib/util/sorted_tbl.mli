(** Deterministic drains of hashtables.

    [Hashtbl] iteration order depends on insertion history and hashing, so
    it must never reach committed state, hashes or rendered output
    (CLAUDE.md; enforced for [lib/engine] and [lib/storage] by
    [tools/lint.sh]). This helper is the sanctioned way to turn a
    hashtable into an ordered sequence. *)

(** Distinct keys in ascending [compare] order. *)
val sorted_keys : ?compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list
