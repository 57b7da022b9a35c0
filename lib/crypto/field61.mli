(** Arithmetic modulo the Mersenne prime [p = 2^61 - 1].

    Elements are non-negative [int64] values strictly below [p]. This is
    the base field for the toy Schnorr signatures in {!Schnorr}; 61-bit
    parameters are NOT cryptographically secure — see DESIGN.md §4.
    [pow], [joint_pow] and [Order.mul] compute on native [int]
    internally, multiplying mod [p] without 128-bit integers by
    exploiting [2^61 ≡ 1 (mod p)]; [int64] is only their interface. *)

(** [pow b e] with [e >= 0] interpreted as a plain exponent; [b] is first
    reduced into [[0, p)]. Raises [Invalid_argument] when [e < 0]. *)
val pow : int64 -> int64 -> int64

(** [joint_pow b1 e1 b2 e2] is [b1^e1 * b2^e2], computed with one shared
    square-and-multiply ladder (Shamir's trick). Raises [Invalid_argument]
    when an exponent is negative. *)
val joint_pow : int64 -> int64 -> int64 -> int64 -> int64

(** Operations modulo the group order [p - 1] (for Schnorr exponents). *)
module Order : sig
  val n : int64

  val norm : int64 -> int64

  val sub : int64 -> int64 -> int64

  (** The split multiply of [pow], using [2^61 = 2 (mod n)]. *)
  val mul : int64 -> int64 -> int64
end

(** [of_bytes s] maps the first 8 bytes of [s] (big-endian) into [[0, p)].
    Raises [Invalid_argument] when [s] is shorter than 8 bytes. *)
val of_bytes : string -> int64
