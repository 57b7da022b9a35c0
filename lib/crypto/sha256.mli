(** Pure-OCaml SHA-256 (FIPS 180-4).

    Used for block hashing, transaction identifiers, write-set digests and
    as the PRF inside the toy signature scheme. Digests are raw 32-byte
    strings; use {!Brdb_util.Hex.encode} to display them.

    Words are native [int]s masked to 32 bits, and every call resets and
    reuses one module-private context (state, message schedule, block
    buffer, length header). A digest therefore allocates only its 32-byte
    result, whatever the input length.

    The functions are not reentrant. That is safe here for two reasons: a
    digest runs to completion without calling back into other code, so no
    digest can start while another is in progress; and the libraries run
    on one domain ([tools/lint.sh] bans [Domain], [Mutex] and [Atomic]
    under [lib/] outside [sim/cpu.ml]). Hashing from several domains would
    need one context per domain. *)

(** [digest s] is the 32-byte SHA-256 of [s]. *)
val digest : string -> string

(** [hex s] is [Hex.encode (digest s)]. *)
val hex : string -> string

(** [digest_concat parts] hashes a length-prefixed concatenation of
    [parts], so that [["ab"; "c"]] and [["a"; "bc"]] hash differently. *)
val digest_concat : string list -> string
