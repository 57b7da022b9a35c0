type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

(* [x] against [y], exactly: [float_of_int] rounds past 2^53, so the
   float is cut to an int instead. A NaN sorts below every number, as
   [Float.compare] places it; the infinities and every float beyond the
   int range sort past every int. Below 2^62 in magnitude [y]'s integral
   part is an int and its fraction is exact. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    let t = Float.to_int y in
    if x < t then -1
    else if x > t then 1
    else Float.compare 0. (y -. Float.of_int t)

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> compare_int_float x y = 0
  | Text x, Text y -> String.equal x y
  | Bool x, Bool y -> x = y
  | _ -> false

let rank = function Null -> 0 | Bool _ -> 1 | Int _ | Float _ -> 2 | Text _ -> 3

let compare_total a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | Text x, Text y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let compare_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Bool x, Bool y -> Some (Bool.compare x y)
  | Int x, Int y -> Some (Int.compare x y)
  | Float x, Float y -> Some (Float.compare x y)
  | Int x, Float y -> Some (compare_int_float x y)
  | Float x, Int y -> Some (-compare_int_float y x)
  | Text x, Text y -> Some (String.compare x y)
  | _ -> None

let is_null = function Null -> true | _ -> false

let conforms ty v =
  let open Brdb_sql.Ast in
  match (ty, v) with
  | _, Null -> true
  | T_int, Int _ -> true
  | T_float, (Float _ | Int _) -> true
  | T_text, Text _ -> true
  | T_bool, Bool _ -> true
  | _ -> false

let of_lit =
  let open Brdb_sql.Ast in
  function
  | L_null -> Null
  | L_int i -> Int i
  | L_float f -> Float f
  | L_text s -> Text s
  | L_bool b -> Bool b

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.12g" f
  | Text s -> s
  | Bool true -> "true"
  | Bool false -> "false"

(* [String.make 1 tag ^ string_of_int i] in one allocation. The digits
   are taken from the non-positive side, where [min_int] fits. *)
let tagged_int tag i =
  let n = if i < 0 then i else -i in
  let rec width n w = if n > -10 then w else width (n / 10) (w + 1) in
  let len = width n 2 + if i < 0 then 1 else 0 in
  let b = Bytes.create len in
  Bytes.unsafe_set b 0 tag;
  if i < 0 then Bytes.unsafe_set b 1 '-';
  let rec fill n pos =
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 - (n mod 10)));
    if n <= -10 then fill (n / 10) (pos - 1)
  in
  fill n (len - 1);
  Bytes.unsafe_to_string b

let encode = function
  | Null -> "N"
  | Int i -> tagged_int 'I' i
  | Float f -> "F" ^ Int64.to_string (Int64.bits_of_float f)
  | Text s -> "T" ^ string_of_int (String.length s) ^ ":" ^ s
  | Bool b -> if b then "B1" else "B0"

let decode s =
  let n = String.length s in
  if n = 0 then None
  else
    let rest () = String.sub s 1 (n - 1) in
    match s.[0] with
    | 'N' when n = 1 -> Some Null
    | 'I' -> Option.map (fun i -> Int i) (int_of_string_opt (rest ()))
    | 'F' ->
        Option.map
          (fun bits -> Float (Int64.float_of_bits bits))
          (Int64.of_string_opt (rest ()))
    | 'T' -> (
        match String.index_opt s ':' with
        | None -> None
        | Some colon -> (
            let body = String.sub s (colon + 1) (n - colon - 1) in
            match int_of_string_opt (String.sub s 1 (colon - 1)) with
            | Some len when len = String.length body -> Some (Text body)
            | _ -> None))
    | 'B' when s = "B1" -> Some (Bool true)
    | 'B' when s = "B0" -> Some (Bool false)
    | _ -> None
