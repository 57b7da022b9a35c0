(** Pure-OCaml SHA-256 (FIPS 180-4).

    Used for block hashing, transaction identifiers, write-set digests and
    as the PRF inside the toy signature scheme. Digests are raw 32-byte
    strings; use {!Brdb_util.Hex.encode} to display them.

    Words are native [int]s masked to 32 bits, and every call resets and
    reuses one module-private context (state, message schedule, block
    buffer, length header). A digest therefore allocates only its 32-byte
    result, whatever the input length.

    Rotations run on the doubled word: for [x] masked to 32 bits,
    [x2 = x lor (x lsl 32)] holds bits 0-30 of [x] again at bits 32-62, so
    [rotr x n] is the low 32 bits of [x2 lsr n] for every [n <= 31]. Each
    of Σ0, Σ1, σ0 and σ1 is then one doubling and three shifts. Both
    preconditions matter: a word with bits above 31 set, or a shift
    above 31, gives a wrong rotation.

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
