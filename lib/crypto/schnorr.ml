type secret_key = int64

type public_key = int64

type signature = { e : int64; s : int64 }

(* Generator of a large subgroup of Z_p^*. Any element works for the
   verification identity since exponent arithmetic is done mod (p - 1),
   a multiple of every element order. *)
let g = 37L

let nonzero_exponent bytes =
  let x = Field61.Order.norm (Field61.of_bytes bytes) in
  if Int64.equal x 0L then 1L else x

let keygen ~seed =
  let sk = nonzero_exponent (Sha256.digest ("brdb-keygen:" ^ seed)) in
  (sk, Field61.pow g sk)

(* Challenge e = H(r || m) as an exponent. *)
let challenge r msg =
  nonzero_exponent (Sha256.digest_concat [ Int64.to_string r; msg ])

let sign sk msg =
  (* Deterministic nonce k = H(sk || m), never reused across messages. *)
  let k = nonzero_exponent (Sha256.digest_concat [ Int64.to_string sk; msg ]) in
  let r = Field61.pow g k in
  let e = challenge r msg in
  (* s = k - e * sk (mod p - 1). *)
  let s = Field61.Order.sub k (Field61.Order.mul e sk) in
  { e; s }

(* Honest signers only produce e in [1, n) and s in [0, n). Rejecting
   everything else closes the malleability s + n (g^n = 1) and keeps the
   exponents non-negative, so a garbage signature is [false], never an
   exception. *)
let canonical { e; s } =
  let n = Field61.Order.n in
  Int64.compare e 0L > 0
  && Int64.compare e n < 0
  && Int64.compare s 0L >= 0
  && Int64.compare s n < 0

let verify pk msg ({ e; s } as sg) =
  (* r' = g^s * pk^e in one joint exponentiation; valid iff
     H(r' || m) = e. *)
  canonical sg && Int64.equal (challenge (Field61.joint_pow g s pk e) msg) e
