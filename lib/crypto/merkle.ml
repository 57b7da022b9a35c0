let leaf_hash x = Sha256.digest ("\x00" ^ x)

let node_hash l r = Sha256.digest_concat [ "\x01"; l; r ]

let empty_root = Sha256.digest "brdb-merkle-empty"

(* Odd levels promote the last node unchanged (Bitcoin-style duplication
   would allow two different leaf multisets with the same root). Levels
   are lists, so the garbage a tree leaves behind dies young. *)
let rec level = function
  | [] -> []
  | [ x ] -> [ x ]
  | a :: b :: rest -> node_hash a b :: level rest

let rec fold = function
  | [] -> empty_root
  | [ x ] -> x
  | xs -> fold (level xs)

(* Leaves are grouped into buckets of [1 lsl bucket_bits]. Node [j] of
   level [k] covers leaves [j * 2^k .. (j+1) * 2^k - 1], so bucket
   boundaries are even at every level below [bucket_bits]: pairing inside
   a bucket is the pairing of the whole tree, and the bucket's own root is
   the whole tree's node at level [bucket_bits]. *)
let bucket_bits = 4

let bucket = 1 lsl bucket_bits

let digest_len = 32

(* [levels] packs each level from the bucket roots up to the root as one
   string of [digest_len]-byte digests; the last level is the root alone.
   Levels below the buckets are hashed once and dropped. *)
type tree = { n : int; levels : string array }

let tree leaves =
  let rec below k nodes = if k = 0 then nodes else below (k - 1) (level nodes) in
  let rec up nodes acc =
    let acc = String.concat "" nodes :: acc in
    match nodes with
    | [ _ ] -> Array.of_list (List.rev acc)
    | _ -> up (level nodes) acc
  in
  match leaves with
  | [] -> { n = 0; levels = [| empty_root |] }
  | _ ->
      {
        n = List.length leaves;
        levels = up (below bucket_bits (List.map leaf_hash leaves)) [];
      }

let tree_root t = t.levels.(Array.length t.levels - 1)

let root leaves = tree_root (tree leaves)

type step = Left of string | Right of string

type proof = step list

let rec drop k = function _ :: rest when k > 0 -> drop (k - 1) rest | l -> l

let rec take k = function x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []

let prove_tree t leaves i =
  if i < 0 || i >= t.n then invalid_arg "Merkle.prove_tree: index out of range";
  if List.compare_length_with leaves t.n <> 0 then
    invalid_arg "Merkle.prove_tree: leaf count does not match the tree";
  let b = i / bucket and j = i mod bucket in
  (* Inside leaf [i]'s bucket, hash only the sibling subtrees of its path
     (the bucket's other leaves and at most 11 nodes): the sibling at
     level [k] is the aligned run of up to [2^k] leaves next to [i]'s. A
     node with no sibling (an odd tail) is promoted and adds no step. *)
  let bucket_leaves = take bucket (drop (b * bucket) leaves) in
  let acc = ref [] in
  for k = 0 to bucket_bits - 1 do
    let lo = ((j lsr k) lxor 1) lsl k in
    match take (1 lsl k) (drop lo bucket_leaves) with
    | [] -> ()
    | run ->
        let r = fold (List.map leaf_hash run) in
        acc := (if lo > j then Right r else Left r) :: !acc
  done;
  (* Above the bucket, read the path from the stored levels. *)
  for k = 0 to Array.length t.levels - 2 do
    let packed = t.levels.(k) and p = b lsr k in
    let q = p lxor 1 in
    if q * digest_len < String.length packed then
      let r = String.sub packed (q * digest_len) digest_len in
      acc := (if q > p then Right r else Left r) :: !acc
  done;
  List.rev !acc

let prove leaves i =
  if i < 0 || i >= List.length leaves then invalid_arg "Merkle.prove: index out of range";
  prove_tree (tree leaves) leaves i

(* Canonical text form: one 'L'/'R' tag plus the hex sibling digest per
   step, root-ward order preserved. Hex keeps proofs printable for the
   CLI and JSON receipts without a second framing layer. *)
let proof_to_string proof =
  String.concat ""
    (List.map
       (function
         | Left l -> "L" ^ Brdb_util.Hex.encode l
         | Right r -> "R" ^ Brdb_util.Hex.encode r)
       proof)

let apply ~leaf proof =
  List.fold_left
    (fun h step ->
      match step with Left l -> node_hash l h | Right r -> node_hash h r)
    (leaf_hash leaf) proof
