(** SHA-256 (FIPS 180-4).

    Used for block hashing, transaction identifiers, write-set digests and
    as the PRF inside the toy signature scheme. Digests are raw 32-byte
    strings; use {!Brdb_util.Hex.encode} to display them.

    Padding, buffering and the {!digest_concat} framing are OCaml; the
    compression function is C ([sha256_stubs.c]). It runs on the x86 SHA
    extensions when CPUID, read once as this module initialises, reports
    SHA, SSSE3 and SSE4.1, and as portable C on every other CPU. Both
    kernels give the same digests; no option chooses between them.

    Every call resets and reuses one module-private context: the state, an
    [int array] of 8 words each below 2^32 (a, ..., h in FIPS order), a
    64-byte block buffer and a length header. A digest therefore allocates
    only its 32-byte result, whatever the input length. The compression
    external is [[@@noalloc]], which is safe because the C stub allocates
    nothing, never releases the runtime lock and never calls back into
    OCaml: it only reads 64 bytes of a [Bytes] and stores immediates into
    the state array, so no GC can run or move a value during the call.

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

(** Test hooks (DESIGN.md §3). *)
module Testing : sig
  (** [digest_portable s] is [digest s] computed by the portable C kernel,
      whichever kernel [digest] runs on this CPU. *)
  val digest_portable : string -> string
end
