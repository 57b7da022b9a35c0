(** Pure-OCaml SHA-256 (FIPS 180-4).

    Used for block hashing, transaction identifiers, write-set digests and
    as the PRF inside the toy signature scheme. Digests are raw 32-byte
    strings; use {!Brdb_util.Hex.encode} to display them. *)

(** [digest s] is the 32-byte SHA-256 of [s]. *)
val digest : string -> string

(** [hex s] is [Hex.encode (digest s)]. *)
val hex : string -> string

(** [digest_concat parts] hashes a length-prefixed concatenation of
    [parts], so that [["ab"; "c"]] and [["a"; "bc"]] hash differently. *)
val digest_concat : string list -> string
