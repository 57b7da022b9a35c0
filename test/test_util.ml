open Brdb_util

(* A vector's contents, read through [Vec.get]. *)
let to_list v = List.init (Vec.length v) (Vec.get v)

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  let i0 = Vec.push v "a" in
  let i1 = Vec.push v "b" in
  Alcotest.(check int) "idx0" 0 i0;
  Alcotest.(check int) "idx1" 1 i1;
  Alcotest.(check int) "len" 2 (Vec.length v);
  Alcotest.(check string) "get0" "a" (Vec.get v 0);
  Alcotest.(check string) "get1" "b" (Vec.get v 1)

let test_vec_set () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.set v 1 42;
  Alcotest.(check (list int)) "set" [ 1; 42; 3 ] (to_list v)

let test_vec_out_of_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 1 out of bounds (length 1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index -1 out of bounds (length 1)")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_truncate () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Vec.truncate v 2;
  Alcotest.(check (list int)) "truncated" [ 1; 2 ] (to_list v);
  Vec.truncate v 10;
  Alcotest.(check (list int)) "noop" [ 1; 2 ] (to_list v)

let test_vec_iter () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  let seen = ref [] in
  Vec.iter (fun x -> seen := x :: !seen) v;
  Alcotest.(check (list int)) "iter" [ 1; 2; 3 ] (List.rev !seen);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (0, 1); (1, 2); (2, 3) ] (List.rev !acc)

let test_vec_last_clear () =
  let v = Vec.of_list [ 10; 20; 30 ] in
  Alcotest.(check (option int)) "last" (Some 30) (Vec.last v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Alcotest.(check (option int)) "last of empty" None (Vec.last v)

(* The inverse of [Hex.encode], which the system never needs: [None] when
   [s] has odd length or non-hex characters. *)
let hex_decode s =
  let digit c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let b = Bytes.create (n / 2) in
    let rec loop i =
      if i >= n then Some (Bytes.to_string b)
      else
        match (digit s.[i], digit s.[i + 1]) with
        | Some hi, Some lo ->
            Bytes.set b (i / 2) (Char.chr ((hi lsl 4) lor lo));
            loop (i + 2)
        | _ -> None
    in
    loop 0

let test_hex_roundtrip () =
  let cases = [ ""; "a"; "abc"; "\x00\xff\x10" ] in
  List.iter
    (fun s ->
      match hex_decode (Hex.encode s) with
      | Some s' -> Alcotest.(check string) "roundtrip" s s'
      | None -> Alcotest.fail "decode failed")
    cases

let test_hex_known () =
  Alcotest.(check string) "encode" "68656c6c6f" (Hex.encode "hello");
  Alcotest.(check (option string)) "decode" (Some "hello") (hex_decode "68656c6c6f");
  Alcotest.(check (option string)) "upper" (Some "hello") (hex_decode "68656C6C6F")

let test_hex_invalid () =
  Alcotest.(check (option string)) "odd length" None (hex_decode "abc");
  Alcotest.(check (option string)) "bad char" None (hex_decode "zz")

let test_hex_short () =
  Alcotest.(check string) "short" "68656c6c6f" (Hex.short ~n:12 "hello");
  Alcotest.(check string) "truncated" "6865" (Hex.short ~n:4 "hello")

let prop_vec_matches_list =
  QCheck.Test.make ~name:"vec push/to_list = list" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (fun x -> ignore (Vec.push v x)) xs;
      to_list v = xs && Vec.length v = List.length xs)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex decode . encode = id" ~count:200
    QCheck.(string)
    (fun s -> hex_decode (Hex.encode s) = Some s)

let suites =
  [
    ( "util.vec",
      [
        Alcotest.test_case "push/get" `Quick test_vec_push_get;
        Alcotest.test_case "set" `Quick test_vec_set;
        Alcotest.test_case "out-of-bounds" `Quick test_vec_out_of_bounds;
        Alcotest.test_case "truncate" `Quick test_vec_truncate;
        Alcotest.test_case "iter/iteri" `Quick test_vec_iter;
        Alcotest.test_case "last/clear" `Quick test_vec_last_clear;
        QCheck_alcotest.to_alcotest prop_vec_matches_list;
      ] );
    ( "util.hex",
      [
        Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "known vectors" `Quick test_hex_known;
        Alcotest.test_case "invalid input" `Quick test_hex_invalid;
        Alcotest.test_case "short" `Quick test_hex_short;
        QCheck_alcotest.to_alcotest prop_hex_roundtrip;
      ] );
  ]
