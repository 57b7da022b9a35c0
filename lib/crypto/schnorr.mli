(** Schnorr signatures over [Z_p^*] with [p = 2^61 - 1].

    Toy parameters (see DESIGN.md §4): the code paths — key generation,
    deterministic nonces, signing, verification — are structurally those of
    a real discrete-log signature scheme, but 61-bit keys offer no security.
    The blockchain protocol only depends on the interface: distinct keys
    produce unforgeable-for-testing signatures and verification is
    public-key-only. *)

type secret_key

type public_key = int64

type signature = {
  e : int64; (* challenge *)
  s : int64; (* response *)
}

(** [keygen ~seed] derives a deterministic keypair from an arbitrary seed
    string (e.g. "org1/alice"). *)
val keygen : seed:string -> secret_key * public_key

(** [sign sk msg] uses an RFC6979-style deterministic nonce. *)
val sign : secret_key -> string -> signature

(** [verify pk msg sg] checks [sg] against [msg]. Only canonical
    signatures ([e] in [[1, n)], [s] in [[0, n)], [n] the group order)
    verify; any other value is rejected without raising. *)
val verify : public_key -> string -> signature -> bool
