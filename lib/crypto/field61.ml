let p = 2305843009213693951L (* 2^61 - 1 *)

let norm x =
  let x = Int64.rem x p in
  if Int64.compare x 0L < 0 then Int64.add x p else x

(* The hot arithmetic runs on native OCaml [int] (63 bits), never boxed.
   Elements are below 2^61. The split multiply below sums terms whose
   total stays below 2^63: that may set bit 62 (the sign bit), but only
   [land], [lsr] and [+] touch the sum before it is folded under 2^62,
   so it is read as an unsigned 63-bit value and nothing overflows.
   [int64] appears only at the interface. *)

let mask30 = (1 lsl 30) - 1

let mask31 = (1 lsl 31) - 1

let mask61 = (1 lsl 61) - 1

let p_int = mask61

(* a * b mod p with a, b < p. Split a = a1*2^31 + a0 and b likewise
   (a1, b1 < 2^30; a0, b0 < 2^31), and mid = a1*b0 + a0*b1 < 2^62:
     a*b = a1*b1*2^62 + mid*2^31 + a0*b0.
   With 2^61 = 1 (mod p): a1*b1*2^62 = 2*a1*b1, and splitting
   mid = mid_hi*2^30 + mid_lo gives mid*2^31 = mid_hi + mid_lo*2^31. *)
let mul_int a b =
  let a1 = a lsr 31 and a0 = a land mask31 in
  let b1 = b lsr 31 and b0 = b land mask31 in
  let mid = (a1 * b0) + (a0 * b1) and ll = a0 * b0 in
  (* 2^61 + 2^32 + 2^61 + 2^61 + 1 < 2^63 *)
  let s =
    ((a1 * b1) lsl 1) + (mid lsr 30) + ((mid land mask30) lsl 31) + (ll land mask61)
    + (ll lsr 61)
  in
  let s = (s land mask61) + (s lsr 61) in
  if s >= p_int then s - p_int else s

(* Square-and-multiply over the exponent's bits, lowest first. [lsr]
   walks all 63 bits, so an [int64] exponent at or above 2^62 (negative
   as an [int]) is still read bit for bit. *)
let pow_int b e =
  let rec loop acc b e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul_int acc b else acc in
      loop acc (mul_int b b) (e lsr 1)
  in
  loop 1 b e

(* b1^e1 * b2^e2 with one shared ladder (Shamir's trick): from the top
   bit down, square once and multiply by b1, b2 or b1*b2 as the two
   exponent bits say. *)
let joint_pow_int b1 e1 b2 e2 =
  let b12 = mul_int b1 b2 in
  let either = e1 lor e2 in
  let rec top i = if i <= 0 || (either lsr i) land 1 = 1 then i else top (i - 1) in
  let rec loop acc i =
    if i < 0 then acc
    else
      let acc = mul_int acc acc in
      let acc =
        match ((e1 lsr i) land 1, (e2 lsr i) land 1) with
        | 0, 0 -> acc
        | 1, 0 -> mul_int acc b1
        | 0, _ -> mul_int acc b2
        | _ -> mul_int acc b12
      in
      loop acc (i - 1)
  in
  loop 1 (top 62)

let exponent name e =
  if Int64.compare e 0L < 0 then invalid_arg (name ^ ": negative exponent");
  Int64.to_int e

let pow b e =
  let e = exponent "Field61.pow" e in
  Int64.of_int (pow_int (Int64.to_int (norm b)) e)

let joint_pow b1 e1 b2 e2 =
  let e1 = exponent "Field61.joint_pow" e1 and e2 = exponent "Field61.joint_pow" e2 in
  Int64.of_int
    (joint_pow_int (Int64.to_int (norm b1)) e1 (Int64.to_int (norm b2)) e2)

module Order = struct
  let n = Int64.sub p 1L

  let norm x =
    let x = Int64.rem x n in
    if Int64.compare x 0L < 0 then Int64.add x n else x

  let sub a b =
    if Int64.compare a b >= 0 then Int64.sub a b else Int64.add (Int64.sub a b) n

  (* The same split multiply modulo n = 2^61 - 2, where 2^61 = 2 (mod n):
     a1*b1*2^62 = 4*a1*b1 and mid*2^31 = 2*mid_hi + mid_lo*2^31. *)
  let n_int = mask61 - 1

  let mul_int a b =
    let a1 = a lsr 31 and a0 = a land mask31 in
    let b1 = b lsr 31 and b0 = b land mask31 in
    let mid = (a1 * b0) + (a0 * b1) and ll = a0 * b0 in
    let hh = (a1 * b1) lsl 2 in
    let hh = (hh land mask61) + ((hh lsr 61) lsl 1) in
    (* (2^61 + 2) + 2^33 + 2^61 + 2^61 + 2 < 2^63 *)
    let s =
      hh + ((mid lsr 30) lsl 1) + ((mid land mask30) lsl 31) + (ll land mask61)
      + ((ll lsr 61) lsl 1)
    in
    let s = (s land mask61) + ((s lsr 61) lsl 1) in
    if s >= n_int then s - n_int else s

  let mul a b = Int64.of_int (mul_int (Int64.to_int (norm a)) (Int64.to_int (norm b)))
end

let of_bytes s =
  if String.length s < 8 then invalid_arg "Field61.of_bytes: need 8 bytes";
  let x = ref 0L in
  for i = 0 to 7 do
    x := Int64.logor (Int64.shift_left !x 8) (Int64.of_int (Char.code s.[i]))
  done;
  norm (Int64.logand !x Int64.max_int)
