open Brdb_crypto

(* An inclusion proof verifies when it implies the expected root. *)
let merkle_check ~root ~leaf proof = String.equal (Merkle.apply ~leaf proof) root

(* [Sha256.digest] runs the SHA-NI kernel on a CPU that has it and the
   portable kernel otherwise; [digest_portable] runs the portable one on
   every CPU, so every vector and property below checks both. *)
let digest_portable = Sha256.Testing.digest_portable

(* FIPS 180-4 / NIST test vectors. *)
let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ("The quick brown fox jumps over the lazy dog",
       "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
      ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
         ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) ("sha256 of " ^ input) expected (Sha256.hex input);
      Alcotest.(check string) ("portable sha256 of " ^ input) expected
        (Brdb_util.Hex.encode (digest_portable input)))
    cases

(* [digest_concat] feeds each part behind a 4-byte big-endian length;
   this is the one-shot input it must hash the same as. *)
let framed parts =
  String.concat ""
    (List.map
       (fun p ->
         let len = String.length p in
         String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff)) ^ p)
       parts)

let test_sha256_million_a () =
  (* The classic 1,000,000 x 'a' vector exercises multi-block input, and
     the same bytes fed as 1,000 framed chunks must match the one-shot
     digest of their framing. *)
  let million = String.make 1_000_000 'a' in
  let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" in
  Alcotest.(check string) "million a" expected (Sha256.hex million);
  Alcotest.(check string) "million a, portable" expected
    (Brdb_util.Hex.encode (digest_portable million));
  let chunks = List.init 1000 (fun _ -> String.make 1000 'a') in
  Alcotest.(check string) "million a, chunked"
    (Sha256.hex (framed chunks))
    (Brdb_util.Hex.encode (Sha256.digest_concat chunks))

let test_sha256_incremental_equals_oneshot () =
  (* Feed in awkward chunk sizes across the 64-byte block boundary. *)
  let msg = String.init 300 (fun i -> Char.chr (i mod 251)) in
  List.iter
    (fun sizes ->
      let pos = ref 0 in
      let parts =
        List.map
          (fun sz ->
            let take = min sz (String.length msg - !pos) in
            let part = String.sub msg !pos take in
            pos := !pos + take;
            part)
          sizes
      in
      let parts = parts @ [ String.sub msg !pos (String.length msg - !pos) ] in
      Alcotest.(check string) "incremental" (Sha256.hex (framed parts))
        (Brdb_util.Hex.encode (Sha256.digest_concat parts)))
    [ [ 1; 63; 64; 65 ]; [ 55; 1; 200 ]; [ 64; 64; 64 ]; [ 299 ]; [] ]

let test_digest_concat_unambiguous () =
  let a = Sha256.digest_concat [ "ab"; "c" ] in
  let b = Sha256.digest_concat [ "a"; "bc" ] in
  Alcotest.(check bool) "different splits differ" false (String.equal a b);
  let c = Sha256.digest_concat [ "ab"; "c" ] in
  Alcotest.(check bool) "deterministic" true (String.equal a c)

(* Both kernels against the boxed-Int32 reference: random lengths 0–300,
   weighted towards the padding boundaries where the length field moves
   into a second block. *)
let message =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      string_size ~gen:char
        (frequency [ (1, oneofl [ 55; 56; 63; 64; 119; 120 ]); (3, 0 -- 300) ]))

let prop_sha256_matches_reference =
  QCheck.Test.make ~name:"sha256 digest = boxed Int32 reference" ~count:300 message
    (fun s ->
      let expected = Sha256_ref.digest s in
      String.equal (Sha256.digest s) expected && String.equal (digest_portable s) expected)

(* Words of all-[\xff] and all-[\x80] bytes have bit 31 set in every
   message word, which a signed byte load or a sign-extending word
   conversion would corrupt; lengths 0–130 cover one, two and three
   blocks and every padding boundary between them. *)
let test_sha256_high_bit_words () =
  List.iter
    (fun c ->
      for len = 0 to 130 do
        let s = String.make len c in
        let expected = Sha256_ref.digest s in
        if not (String.equal (Sha256.digest s) expected) then
          Alcotest.failf "digest of %d x %C differs from the reference" len c;
        if not (String.equal (digest_portable s) expected) then
          Alcotest.failf "portable digest of %d x %C differs from the reference" len c
      done)
    [ '\xff'; '\x80' ]

(* Part lists of 0–8 parts, empty parts included, up to 150 bytes each so
   that parts and their length headers straddle 64-byte blocks. The
   portable kernel hashes the framed one-shot input. *)
let prop_digest_concat_matches_reference =
  QCheck.Test.make ~name:"sha256 digest_concat = boxed Int32 reference" ~count:200
    QCheck.(
      list_of_size Gen.(0 -- 8)
        (string_gen_of_size Gen.(frequency [ (1, return 0); (3, 0 -- 150) ]) Gen.char))
    (fun parts ->
      let expected = Sha256_ref.digest_concat parts in
      String.equal (Sha256.digest_concat parts) expected
      && String.equal (digest_portable (framed parts)) expected)

(* Every digest shares one context: digests evaluated within one
   expression, or nested as another's input, must not see each other. *)
let prop_sha256_interleaved =
  QCheck.Test.make ~name:"sha256 digests in one expression stay independent"
    ~count:100 (QCheck.pair message message)
    (fun (a, b) ->
      String.equal (Sha256.digest a ^ Sha256.digest b)
        (Sha256_ref.digest a ^ Sha256_ref.digest b)
      && String.equal
           (Sha256.digest_concat [ Sha256.digest a; b; Sha256.digest b ])
           (Sha256_ref.digest_concat [ Sha256_ref.digest a; b; Sha256_ref.digest b ]))

(* A digest allocates only its 32-byte result (5 words on 64-bit), at
   any input length; the boxed-Int32 code allocated 320–27,968 words. *)
let test_sha256_allocation () =
  List.iter
    (fun len ->
      let s = String.make len 'x' in
      ignore (Sys.opaque_identity (Sha256.digest s));
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Sha256.digest s));
      let words = Gc.minor_words () -. before in
      if words > 16. then
        Alcotest.failf "digest of %d bytes allocated %.0f minor words (at most 16)" len
          words)
    [ 0; 64; 200; 8192 ]

(* The same bound for [digest_concat] on the shapes the block path hashes
   most. Boxing each loaded word as an [Int32] adds 48 minor words per
   compression and fails it. *)
let test_sha256_concat_allocation () =
  let d = String.make 32 '\xab' in
  List.iter
    (fun (shape, parts) ->
      ignore (Sys.opaque_identity (Sha256.digest_concat parts));
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Sha256.digest_concat parts));
      let words = Gc.minor_words () -. before in
      if words > 16. then
        Alcotest.failf "digest_concat of a %s allocated %.0f minor words (at most 16)" shape
          words)
    [
      ("Merkle node", [ "\x01"; d; d ]);
      ("transaction payload", [ "tx-000042"; "org1/alice"; "put"; "'k42',42"; "-" ]);
      ("Schnorr challenge", [ "1234567890123456789"; d ]);
    ]

module Ref = Field61_ref

(* The library's native multiply mod p, reached through its interface:
   [joint_pow a 1 b 1] computes [a * b] with one split multiply (and one
   multiply by 1). *)
let mul a b = Field61.joint_pow a 1L b 1L

let test_field61_basics () =
  let p = Ref.p in
  Alcotest.(check int64) "p" 2305843009213693951L p;
  Alcotest.(check int64) "p = Order.n + 1" p (Int64.add Field61.Order.n 1L);
  Alcotest.(check int64) "norm negative" (Int64.sub p 1L) (Ref.norm (-1L));
  Alcotest.(check int64) "add wraps" 0L (Ref.add (Int64.sub p 1L) 1L);
  Alcotest.(check int64) "sub wraps" (Int64.sub p 1L) (Ref.sub 0L 1L);
  Alcotest.(check int64) "mul small" 12L (mul 3L 4L);
  Alcotest.(check int64) "pow" 1024L (Field61.pow 2L 10L);
  (* Fermat: a^(p-1) = 1 mod p for a != 0. *)
  Alcotest.(check int64) "fermat" 1L (Field61.pow 123456789L (Int64.sub p 1L))

let prop_field61_mul_matches_reference =
  (* Cross-check mul against a reference built from pow/add on small
     decompositions: a*b = sum over set bits of b of a*2^i. *)
  let gen = QCheck.int64 in
  QCheck.Test.make ~name:"field61 mul = shift-add reference" ~count:500
    (QCheck.pair gen gen)
    (fun (a, b) ->
      let a = Ref.norm a and b = Ref.norm b in
      let reference =
        let acc = ref 0L and cur = ref a and e = ref b in
        while not (Int64.equal !e 0L) do
          if Int64.equal (Int64.logand !e 1L) 1L then acc := Ref.add !acc !cur;
          cur := Ref.add !cur !cur;
          e := Int64.shift_right_logical !e 1
        done;
        !acc
      in
      Int64.equal (mul a b) reference)

let prop_field61_mul_commutative_assoc =
  let gen = QCheck.int64 in
  QCheck.Test.make ~name:"field61 mul commutative+associative" ~count:300
    (QCheck.triple gen gen gen)
    (fun (a, b, c) ->
      let a = Ref.norm a and b = Ref.norm b and c = Ref.norm c in
      Int64.equal (mul a b) (mul b a)
      && Int64.equal (mul a (mul b c)) (mul (mul a b) c))

let prop_field61_distributive =
  let gen = QCheck.int64 in
  QCheck.Test.make ~name:"field61 distributivity" ~count:300
    (QCheck.triple gen gen gen)
    (fun (a, b, c) ->
      let a = Ref.norm a and b = Ref.norm b and c = Ref.norm c in
      Int64.equal
        (mul a (Ref.add b c))
        (Ref.add (mul a b) (mul a c)))

let prop_field61_pow_laws =
  QCheck.Test.make ~name:"field61 pow: g^(a+b) = g^a * g^b" ~count:200
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let g = 37L in
      let pa = Field61.pow g (Int64.of_int a) in
      let pb = Field61.pow g (Int64.of_int b) in
      Int64.equal (Field61.pow g (Int64.of_int (a + b))) (mul pa pb))

(* --- native arithmetic pinned to the boxed reference (field61_ref.ml) ----- *)

(* 0, 1, 2^31 - 1, 2^31, 2^31 + 1, n - 1, p - 1: the split points and the
   tops of both moduli. *)
let edge_operands =
  [ 0L; 1L; 2147483647L; 2147483648L; 2147483649L; Int64.sub Field61.Order.n 1L;
    Int64.sub Ref.p 1L ]

(* An edge operand a third of the time, otherwise uniform over [0, p). *)
let element =
  QCheck.make ~print:Int64.to_string
    QCheck.Gen.(frequency [ (1, oneofl edge_operands); (2, map Ref.norm ui64) ])

(* Exponents over the whole non-negative int64 range, edges included. *)
let exponent =
  QCheck.make ~print:Int64.to_string
    QCheck.Gen.(
      frequency
        [
          (1, oneofl (Int64.max_int :: Int64.shift_left 1L 62 :: edge_operands));
          (2, map (Int64.logand Int64.max_int) ui64);
        ])

let prop_field61_mul_matches_boxed_reference =
  QCheck.Test.make ~name:"field61 mul = boxed int64 reference" ~count:1000
    (QCheck.pair element element)
    (fun (a, b) -> Int64.equal (mul a b) (Ref.mul a b))

let prop_field61_pow_matches_boxed_reference =
  QCheck.Test.make ~name:"field61 pow = boxed int64 reference" ~count:300
    (QCheck.pair element exponent)
    (fun (b, e) -> Int64.equal (Field61.pow b e) (Ref.pow b e))

let prop_field61_joint_pow_matches_two_ladders =
  QCheck.Test.make ~name:"field61 joint_pow = product of reference pows" ~count:300
    QCheck.(quad element exponent element exponent)
    (fun (b1, e1, b2, e2) ->
      Int64.equal (Field61.joint_pow b1 e1 b2 e2) (Ref.mul (Ref.pow b1 e1) (Ref.pow b2 e2)))

let prop_field61_order_mul_matches_boxed_reference =
  (* Arbitrary int64 operands: both sides reduce mod n first. *)
  let operand =
    QCheck.make ~print:Int64.to_string
      QCheck.Gen.(frequency [ (1, oneofl (Int64.min_int :: -1L :: edge_operands)); (2, ui64) ])
  in
  QCheck.Test.make ~name:"field61 Order.mul = boxed double-and-add reference" ~count:1000
    (QCheck.pair operand operand)
    (fun (a, b) -> Int64.equal (Field61.Order.mul a b) (Ref.Order.mul a b))

let prop_schnorr_sign_matches_reference =
  QCheck.Test.make ~name:"schnorr keygen/sign = boxed reference" ~count:100
    QCheck.(pair small_string string)
    (fun (seed, msg) ->
      let sk, pk = Schnorr.keygen ~seed and rsk, rpk = Ref.keygen ~seed in
      Int64.equal pk rpk && Schnorr.sign sk msg = Ref.sign rsk msg)

let prop_schnorr_verify_matches_two_ladder_reference =
  (* Honest signatures, then the same with e, s or the message perturbed;
     the perturbed s stays canonical so both sides must agree. *)
  QCheck.Test.make ~name:"schnorr joint-exponentiation verify = two-ladder reference"
    ~count:100
    QCheck.(triple small_string string (int_bound 3))
    (fun (seed, msg, how) ->
      let sk, pk = Schnorr.keygen ~seed in
      let sg = Schnorr.sign sk msg in
      let sg, msg =
        match how with
        | 0 -> (sg, msg)
        | 1 -> ({ sg with Schnorr.e = Int64.logxor sg.Schnorr.e 1L }, msg)
        | 2 -> ({ sg with Schnorr.s = Ref.Order.add sg.Schnorr.s 1L }, msg)
        | _ -> (sg, msg ^ "!")
      in
      Bool.equal (Schnorr.verify pk msg sg) (Ref.verify pk msg sg))

(* Captured before the native-int port: the port must not move one bit. *)
let test_schnorr_golden_signature () =
  let sk, pk = Schnorr.keygen ~seed:"org1/alice" in
  Alcotest.(check int64) "public key" 2060370290858864936L pk;
  let sg = Schnorr.sign sk "m" in
  Alcotest.(check string) "signature" "5a81f59f8798da:9e653f73c479529"
    (Printf.sprintf "%Lx:%Lx" sg.Schnorr.e sg.Schnorr.s)

let test_schnorr_canonical_only () =
  let sk, pk = Schnorr.keygen ~seed:"org1/alice" in
  let sg = Schnorr.sign sk "m" in
  let n = Field61.Order.n in
  let shifted = { sg with Schnorr.s = Int64.add sg.Schnorr.s n } in
  (* g^n = 1, so the reference accepts the shifted response. *)
  Alcotest.(check bool) "reference is malleable" true (Ref.verify pk "m" shifted);
  Alcotest.(check bool) "s + n rejected" false (Schnorr.verify pk "m" shifted);
  List.iter
    (fun (label, bad) -> Alcotest.(check bool) label false (Schnorr.verify pk "m" bad))
    [
      ("s = -1", { sg with Schnorr.s = -1L });
      ("s = min_int", { sg with Schnorr.s = Int64.min_int });
      ("s = n", { sg with Schnorr.s = n });
      ("e = 0", { sg with Schnorr.e = 0L });
      ("e = -1", { sg with Schnorr.e = -1L });
      ("e + n", { sg with Schnorr.e = Int64.add sg.Schnorr.e n });
    ];
  Alcotest.(check bool) "honest still verifies" true (Schnorr.verify pk "m" sg)

let test_schnorr_sign_verify () =
  let sk, pk = Schnorr.keygen ~seed:"org1/alice" in
  let msg = "transfer 10 from a to b" in
  let sg = Schnorr.sign sk msg in
  Alcotest.(check bool) "valid" true (Schnorr.verify pk msg sg);
  Alcotest.(check bool) "wrong msg" false (Schnorr.verify pk (msg ^ "!") sg);
  let _, pk2 = Schnorr.keygen ~seed:"org2/bob" in
  Alcotest.(check bool) "wrong key" false (Schnorr.verify pk2 msg sg)

let test_schnorr_deterministic () =
  let sk, pk = Schnorr.keygen ~seed:"org1/alice" in
  let s1 = Schnorr.sign sk "m" and s2 = Schnorr.sign sk "m" in
  (* Equal signatures verify alike, on the signed message and off it. *)
  Alcotest.(check (list bool)) "same signature"
    (List.map (fun m -> Schnorr.verify pk m s1) [ "m"; "m'" ])
    (List.map (fun m -> Schnorr.verify pk m s2) [ "m"; "m'" ]);
  Alcotest.(check bool) "same fields" true (s1 = s2)

let test_schnorr_garbage_signature () =
  let _, pk = Schnorr.keygen ~seed:"x" in
  List.iter
    (fun (label, e, s) ->
      Alcotest.(check bool) label false (Schnorr.verify pk "payload" { Schnorr.e; s }))
    [ ("zero", 0L, 0L); ("all ones", -1L, -1L); ("max", Int64.max_int, Int64.max_int) ]

let prop_schnorr_roundtrip =
  QCheck.Test.make ~name:"schnorr verify(sign m) over random messages" ~count:100
    QCheck.(pair small_string string)
    (fun (seed, msg) ->
      let sk, pk = Schnorr.keygen ~seed in
      Schnorr.verify pk msg (Schnorr.sign sk msg))

let test_merkle_empty_and_single () =
  let r0 = Merkle.root [] in
  let r1 = Merkle.root [ "tx1" ] in
  Alcotest.(check bool) "empty != single" false (String.equal r0 r1);
  Alcotest.(check string) "deterministic" (Brdb_util.Hex.encode r1)
    (Brdb_util.Hex.encode (Merkle.root [ "tx1" ]))

let test_merkle_order_sensitive () =
  let a = Merkle.root [ "t1"; "t2" ] and b = Merkle.root [ "t2"; "t1" ] in
  Alcotest.(check bool) "order matters" false (String.equal a b)

let test_merkle_proofs () =
  let leaves = [ "a"; "b"; "c"; "d"; "e" ] in
  let r = Merkle.root leaves in
  List.iteri
    (fun i leaf ->
      let proof = Merkle.prove leaves i in
      Alcotest.(check bool) (Printf.sprintf "leaf %d verifies" i) true
        (merkle_check ~root:r ~leaf proof);
      Alcotest.(check bool) (Printf.sprintf "leaf %d wrong leaf fails" i) false
        (merkle_check ~root:r ~leaf:"zzz" proof))
    leaves

let test_merkle_proof_wrong_position_fails () =
  let leaves = [ "a"; "b"; "c"; "d" ] in
  let r = Merkle.root leaves in
  (* a proof for position 0 must not verify leaf at position 1 *)
  let proof0 = Merkle.prove leaves 0 in
  Alcotest.(check bool) "cross-position fails" false
    (merkle_check ~root:r ~leaf:"b" proof0)

let test_merkle_proof_out_of_range () =
  Alcotest.check_raises "oob" (Invalid_argument "Merkle.prove: index out of range")
    (fun () -> ignore (Merkle.prove [ "a" ] 1))

let prop_merkle_proofs_verify =
  QCheck.Test.make ~name:"merkle proofs verify for random leaf sets" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) small_string)
    (fun leaves ->
      let r = Merkle.root leaves in
      List.for_all
        (fun i -> merkle_check ~root:r ~leaf:(List.nth leaves i) (Merkle.prove leaves i))
        (List.init (List.length leaves) Fun.id))

(* The bucketed tree against the list-based reference: the root and every
   proof, byte for byte. *)
let tree_matches_reference leaves =
  let t = Merkle.tree leaves in
  String.equal (Merkle.tree_root t) (Merkle_ref.root leaves)
  && List.for_all2
       (fun i expected ->
         String.equal (Merkle.proof_to_string (Merkle.prove_tree t leaves i)) expected)
       (List.init (List.length leaves) Fun.id)
       (Merkle_ref.all_proofs leaves)

let prop_merkle_tree_matches_reference =
  QCheck.Test.make ~name:"merkle tree roots and proofs equal the list reference"
    ~count:10
    QCheck.(pair (int_bound 300) small_string)
    (fun (n, salt) -> tree_matches_reference (List.init n (Printf.sprintf "%s-%d" salt)))

let test_merkle_tree_bucket_edges () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%d leaves" n)
        true
        (tree_matches_reference (List.init n (Printf.sprintf "e%d"))))
    [ 0; 1; 2; 15; 16; 17; 31; 32; 33; 1000 ]

(* The history tree against the list reference, after [n] appends, a
   truncation to [m] and [k] appends of fresh leaves: the root, and each
   sampled index's path equal to the reference proof's sibling hashes in
   order; [history_apply] climbs the path back to the root and rejects it
   at a neighbouring index or with a step added or dropped. *)
let history_matches_reference (n, m, k, salt) =
  let m = m mod (n + 1) in
  let h = Merkle.history () in
  let first = List.init n (Printf.sprintf "%s-%d" salt) in
  List.iter (Merkle.history_append h) first;
  let before = String.equal (Merkle.history_root h) (Merkle_ref.root first) in
  Merkle.history_truncate h m;
  let fresh = List.init k (Printf.sprintf "%s+%d" salt) in
  List.iter (Merkle.history_append h) fresh;
  let leaves = List.filteri (fun i _ -> i < m) first @ fresh in
  let size = List.length leaves in
  let levels = Merkle_ref.levels leaves in
  let sibling = function Merkle_ref.Left s | Merkle_ref.Right s -> s in
  let path_ok i =
    let path = Merkle.history_path h i in
    let leaf = List.nth leaves i and root = Merkle.history_root h in
    let applied ~index p = Merkle.history_apply ~leaf ~index ~size p in
    List.equal String.equal path (List.map sibling (Merkle_ref.prove_in levels i))
    && applied ~index:i path = Some root
    && List.for_all (fun j -> j < 0 || j >= size || applied ~index:j path <> Some root)
         [ i - 1; i + 1 ]
    && applied ~index:i (path @ [ root ]) = None
    && (path = [] || applied ~index:i (List.tl path) = None)
  in
  before
  && Merkle.history_size h = size
  && String.equal (Merkle.history_root h) (Merkle_ref.root leaves)
  && (size = 0
     || List.for_all path_ok
          (List.sort_uniq compare [ 0; size - 1; size / 2; (size * 7 / 13) mod size ]))

let prop_history_matches_reference =
  QCheck.Test.make ~name:"history tree roots and paths equal the list reference"
    ~count:12
    QCheck.(quad (int_range 1 300) (int_bound 300) (int_bound 40) small_string)
    history_matches_reference

let test_history_edges () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%d leaves, truncated to each edge" n)
        true
        (List.for_all
           (fun m -> history_matches_reference (n, m, 3, "e"))
           [ 0; 1; n / 2; n - 1; n ]))
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 17 ]

let test_identity_registry () =
  let reg = Identity.Registry.create () in
  let alice = Identity.create "org1/alice" in
  let bob = Identity.create "org1/bob" in
  Alcotest.(check bool) "register alice" true (Identity.Registry.register reg alice = Ok ());
  Alcotest.(check bool) "register bob" true (Identity.Registry.register reg bob = Ok ());
  Alcotest.(check bool) "re-register same ok" true (Identity.Registry.register reg alice = Ok ());
  (* A name already bound to another key refuses the identity's own key. *)
  let _, fake_pk = Schnorr.keygen ~seed:"org1/alice-evil" in
  let forged = Identity.Registry.create () in
  Identity.Registry.set forged ~name:"org1/alice" fake_pk;
  Alcotest.(check bool) "conflict" true (Identity.Registry.register forged alice = Error `Conflict);
  let sg = Identity.sign alice "hello" in
  Alcotest.(check bool) "verify ok" true (Identity.Registry.verify reg ~name:"org1/alice" "hello" sg);
  Alcotest.(check bool) "verify wrong name" false
    (Identity.Registry.verify reg ~name:"org1/bob" "hello" sg);
  Alcotest.(check bool) "verify unknown" false
    (Identity.Registry.verify reg ~name:"nobody" "hello" sg);
  Identity.Registry.remove reg "org1/bob";
  let known name id = Identity.Registry.verify reg ~name "m" (Identity.sign id "m") in
  Alcotest.(check bool) "removed" false (known "org1/bob" bob);
  Alcotest.(check bool) "kept" true (known "org1/alice" alice)

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "million 'a'" `Slow test_sha256_million_a;
        Alcotest.test_case "incremental = one-shot" `Quick test_sha256_incremental_equals_oneshot;
        Alcotest.test_case "digest_concat unambiguous" `Quick test_digest_concat_unambiguous;
        QCheck_alcotest.to_alcotest prop_sha256_matches_reference;
        QCheck_alcotest.to_alcotest prop_digest_concat_matches_reference;
        QCheck_alcotest.to_alcotest prop_sha256_interleaved;
        Alcotest.test_case "digest allocates only its result" `Quick test_sha256_allocation;
        Alcotest.test_case "digest_concat allocates only its result" `Quick
          test_sha256_concat_allocation;
        Alcotest.test_case "words with bit 31 set" `Quick test_sha256_high_bit_words;
      ] );
    ( "crypto.field61",
      [
        Alcotest.test_case "basics" `Quick test_field61_basics;
        QCheck_alcotest.to_alcotest prop_field61_mul_matches_reference;
        QCheck_alcotest.to_alcotest prop_field61_mul_commutative_assoc;
        QCheck_alcotest.to_alcotest prop_field61_distributive;
        QCheck_alcotest.to_alcotest prop_field61_pow_laws;
        QCheck_alcotest.to_alcotest prop_field61_mul_matches_boxed_reference;
        QCheck_alcotest.to_alcotest prop_field61_pow_matches_boxed_reference;
        QCheck_alcotest.to_alcotest prop_field61_joint_pow_matches_two_ladders;
        QCheck_alcotest.to_alcotest prop_field61_order_mul_matches_boxed_reference;
      ] );
    ( "crypto.schnorr",
      [
        Alcotest.test_case "sign/verify" `Quick test_schnorr_sign_verify;
        Alcotest.test_case "deterministic" `Quick test_schnorr_deterministic;
        Alcotest.test_case "garbage signatures" `Quick test_schnorr_garbage_signature;
        QCheck_alcotest.to_alcotest prop_schnorr_roundtrip;
        Alcotest.test_case "golden signature" `Quick test_schnorr_golden_signature;
        Alcotest.test_case "only canonical signatures verify" `Quick
          test_schnorr_canonical_only;
        QCheck_alcotest.to_alcotest prop_schnorr_sign_matches_reference;
        QCheck_alcotest.to_alcotest prop_schnorr_verify_matches_two_ladder_reference;
      ] );
    ( "crypto.merkle",
      [
        Alcotest.test_case "empty/single" `Quick test_merkle_empty_and_single;
        Alcotest.test_case "order sensitive" `Quick test_merkle_order_sensitive;
        Alcotest.test_case "inclusion proofs" `Quick test_merkle_proofs;
        Alcotest.test_case "proof out of range" `Quick test_merkle_proof_out_of_range;
        Alcotest.test_case "cross-position proof fails" `Quick test_merkle_proof_wrong_position_fails;
        QCheck_alcotest.to_alcotest prop_merkle_proofs_verify;
        Alcotest.test_case "tree at bucket edges" `Quick test_merkle_tree_bucket_edges;
        QCheck_alcotest.to_alcotest prop_merkle_tree_matches_reference;
        Alcotest.test_case "history tree at power-of-two edges" `Quick test_history_edges;
        QCheck_alcotest.to_alcotest prop_history_matches_reference;
      ] );
    ("crypto.identity", [ Alcotest.test_case "registry" `Quick test_identity_registry ]);
  ]
