type t =
  | Full_scan of { table : string }
  | Range of { table : string; column : int; lo : Index.bound; hi : Index.bound }

let table = function Full_scan { table } | Range { table; _ } -> table

(* Structural equality, as [compare p q = 0] has it: the same constructor
   with equal payloads, floats by [Float.equal] (a NaN equals itself). *)
let value_equal a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Float.equal x y
  | Value.Int x, Value.Int y -> x = y
  | Value.Text x, Value.Text y -> String.equal x y
  | Value.Bool x, Value.Bool y -> x = y
  | Value.Null, Value.Null -> true
  | _ -> false

let bound_equal a b =
  match (a, b) with
  | Index.Unbounded, Index.Unbounded -> true
  | Index.Incl x, Index.Incl y | Index.Excl x, Index.Excl y -> value_equal x y
  | _ -> false

let equal p q =
  match (p, q) with
  | Full_scan { table = a }, Full_scan { table = b } -> String.equal a b
  | Range r, Range s ->
      r.column = s.column && String.equal r.table s.table && bound_equal r.lo s.lo
      && bound_equal r.hi s.hi
  | _ -> false

(* Mixes the same fields [equal] reads, in OCaml arithmetic (no C call):
   a transaction's dedup set hashes every predicate it records, and again
   when it grows. An FNV-style step per field, then the high bits folded
   into the low ones the table indexes by. Equal floats hash alike: every
   zero as 0., every NaN as one value. *)
let mix h x = (h lxor x) * 0x100000001b3

let finish h = h lxor (h lsr 31)

let string_hash s =
  let h = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

let value_hash = function
  | Value.Null -> 0
  | Value.Int i -> i
  | Value.Float f ->
      if f = 0. then 0
      else if Float.is_nan f then 1
      else Int64.to_int (Int64.bits_of_float f)
  | Value.Text s -> string_hash s
  | Value.Bool b -> if b then 1 else 2

let bound_hash = function
  | Index.Unbounded -> 3
  | Index.Incl v -> mix 5 (value_hash v)
  | Index.Excl v -> mix 7 (value_hash v)

let hash = function
  | Full_scan { table } -> finish (string_hash table)
  | Range { table; column; lo; hi } ->
      finish (mix (mix (mix (string_hash table) column) (bound_hash lo)) (bound_hash hi))

let bound_ok_lo lo v =
  match lo with
  | Index.Unbounded -> true
  | Index.Incl b -> Value.compare_total v b >= 0
  | Index.Excl b -> Value.compare_total v b > 0

let bound_ok_hi hi v =
  match hi with
  | Index.Unbounded -> true
  | Index.Incl b -> Value.compare_total v b <= 0
  | Index.Excl b -> Value.compare_total v b < 0

let matches p ~table:tbl row =
  match p with
  | Full_scan { table } -> String.equal table tbl
  | Range { table; column; lo; hi } ->
      String.equal table tbl
      && column < Array.length row
      && bound_ok_lo lo row.(column)
      && bound_ok_hi hi row.(column)
