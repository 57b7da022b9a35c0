(* Boxed-[int64] reference for [Brdb_crypto.Field61] and
   [Brdb_crypto.Schnorr]: the split multiply, the square-and-multiply
   [pow], the double-and-add [Order.mul] and the two-ladder [verify] as
   they were before the arithmetic moved to native [int] and [verify] to
   one joint exponentiation. test_crypto.ml pins the library to these on
   random and edge operands. *)

open Brdb_crypto

let p = 2305843009213693951L (* 2^61 - 1 *)

let norm x =
  let x = Int64.rem x p in
  if Int64.compare x 0L < 0 then Int64.add x p else x

let add a b =
  let s = Int64.add a b in
  if Int64.compare s p >= 0 then Int64.sub s p else s

let sub a b = if Int64.compare a b >= 0 then Int64.sub a b else Int64.add (Int64.sub a b) p

(* Reduce a value < 2^63 using 2^61 = 1 (mod p): split into low 61 bits and
   the high remainder. *)
let reduce x =
  let lo = Int64.logand x (Int64.sub (Int64.shift_left 1L 61) 1L) in
  let hi = Int64.shift_right_logical x 61 in
  let s = Int64.add lo hi in
  if Int64.compare s p >= 0 then Int64.sub s p else s

(* a * b mod p with a, b < 2^61. Split a = a1*2^31 + a0 (a1 < 2^30,
   a0 < 2^31):
     a*b = a1*b*2^31 + a0*b.
   Each partial product is itself reduced by splitting b. *)
let mul a b =
  let mask31 = 0x7fffffffL in
  let a1 = Int64.shift_right_logical a 31 in
  let a0 = Int64.logand a mask31 in
  let b1 = Int64.shift_right_logical b 31 in
  let b0 = Int64.logand b mask31 in
  (* a1*b1 < 2^60; times 2^62 = 2 (mod p). *)
  let t_hh = reduce (Int64.mul a1 b1) in
  let t_hh = add t_hh t_hh in
  (* mid = a1*b0 + a0*b1 < 2^62; mid * 2^31 (mod p): split mid into
     mid_hi*2^30 + mid_lo so mid*2^31 = mid_hi*2^61 + mid_lo*2^31
                                      = mid_hi + mid_lo*2^31 (mod p). *)
  let mid = Int64.add (Int64.mul a1 b0) (Int64.mul a0 b1) in
  let mid_hi = Int64.shift_right_logical mid 30 in
  let mid_lo = Int64.logand mid 0x3fffffffL in
  let t_mid = add (reduce mid_hi) (reduce (Int64.shift_left mid_lo 31)) in
  (* a0*b0 < 2^62. *)
  let t_ll = reduce (Int64.mul a0 b0) in
  add (add t_hh t_mid) t_ll

let pow b e =
  if Int64.compare e 0L < 0 then invalid_arg "Field61.pow: negative exponent";
  let rec loop acc b e =
    if Int64.equal e 0L then acc
    else
      let acc = if Int64.equal (Int64.logand e 1L) 1L then mul acc b else acc in
      loop acc (mul b b) (Int64.shift_right_logical e 1)
  in
  loop 1L (norm b) e

module Order = struct
  let n = Int64.sub p 1L

  let norm x =
    let x = Int64.rem x n in
    if Int64.compare x 0L < 0 then Int64.add x n else x

  let add a b =
    let s = Int64.add a b in
    if Int64.compare s n >= 0 then Int64.sub s n else s

  let sub a b =
    if Int64.compare a b >= 0 then Int64.sub a b else Int64.add (Int64.sub a b) n

  (* Multiplication mod (p - 1) via mod-p tricks is unsound; use the
     double-and-add ladder instead (log-time, overflow-free). *)
  let mul a b =
    let a = norm a and b = norm b in
    let rec loop acc a b =
      if Int64.equal b 0L then acc
      else
        let acc = if Int64.equal (Int64.logand b 1L) 1L then add acc a else acc in
        loop acc (add a a) (Int64.shift_right_logical b 1)
    in
    loop 0L a b
end

(* --- Schnorr ------------------------------------------------------------------- *)

let g = 37L

let nonzero_exponent bytes =
  let x = Order.norm (Field61.of_bytes bytes) in
  if Int64.equal x 0L then 1L else x

let keygen ~seed =
  let sk = nonzero_exponent (Sha256.digest ("brdb-keygen:" ^ seed)) in
  (sk, pow g sk)

(* Challenge e = H(r || m) as an exponent. *)
let challenge r msg =
  nonzero_exponent (Sha256.digest_concat [ Int64.to_string r; msg ])

let sign sk msg =
  (* Deterministic nonce k = H(sk || m), never reused across messages. *)
  let k = nonzero_exponent (Sha256.digest_concat [ Int64.to_string sk; msg ]) in
  let r = pow g k in
  let e = challenge r msg in
  (* s = k - e * sk (mod p - 1). *)
  let s = Order.sub k (Order.mul e sk) in
  { Schnorr.e; s }

let verify pk msg { Schnorr.e; s } =
  (* r' = g^s * pk^e; valid iff H(r' || m) = e. *)
  let r' = mul (pow g s) (pow pk e) in
  Int64.equal (challenge r' msg) e
