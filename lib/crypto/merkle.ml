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

(* --- append-only history tree ------------------------------------------- *)

(* [h_levels.(k)] packs level [k]'s complete aligned subtrees, leaf hashes
   first: node [j] covers leaves [j * 2^k .. (j+1) * 2^k - 1] and is
   stored once all of them are in, so level [k] holds [size lsr k] nodes.
   Such a node hashes alike in every tree that holds its leaves, whatever
   the size, so an append only adds nodes and a truncation only cuts each
   level. The last node of a level that is not complete (the right edge)
   is recomputed from the stored ones: at most one hash per level. *)
type history = {
  mutable size : int;
  mutable h_levels : Buffer.t array;
  (* the last node of every level, leaves first and the root last;
     [None] until asked for after a change *)
  mutable edge : string array option;
}

let history () = { size = 0; h_levels = [||]; edge = None }

let history_size h = h.size

let node_at h k j = Buffer.sub h.h_levels.(k) (j * digest_len) digest_len

let push h k d =
  if k = Array.length h.h_levels then
    h.h_levels <- Array.append h.h_levels [| Buffer.create (16 * digest_len) |];
  Buffer.add_string h.h_levels.(k) d

(* Adding leaf [n - 1] completes the node at level [k + 1] ending there
   whenever [2^(k+1)] divides [n]: about one node hash per append. *)
let history_append h leaf =
  push h 0 (leaf_hash leaf);
  h.size <- h.size + 1;
  let n = h.size in
  let k = ref 0 in
  while n land ((2 lsl !k) - 1) = 0 do
    let j = (n lsr !k) - 1 in
    push h (!k + 1) (node_hash (node_at h !k (j - 1)) (node_at h !k j));
    incr k
  done;
  h.edge <- None

let history_truncate h n =
  if n < 0 || n > h.size then invalid_arg "Merkle.history_truncate: size out of range";
  if n < h.size then begin
    Array.iteri (fun k b -> Buffer.truncate b ((n lsr k) * digest_len)) h.h_levels;
    h.size <- n;
    h.edge <- None
  end

let history_reset h = history_truncate h 0

(* Number of levels above the leaves in a tree of [n >= 1] leaves. *)
let depth n =
  let rec go k = if (n - 1) lsr k = 0 then k else go (k + 1) in
  go 0

let edges h =
  match h.edge with
  | Some e -> e
  | None ->
      let n = h.size in
      let d = depth n in
      let e = Array.make (d + 1) "" in
      e.(0) <- node_at h 0 (n - 1);
      for k = 1 to d do
        let last = (n - 1) lsr k in
        e.(k) <-
          (if (last + 1) lsl k <= n then node_at h k last
           else
             (* the child on the edge: paired with its complete left
                sibling when it is a right child, else promoted *)
             let child = (n - 1) lsr (k - 1) in
             if child land 1 = 1 then node_hash (node_at h (k - 1) (child - 1)) e.(k - 1)
             else e.(k - 1))
      done;
      h.edge <- Some e;
      e

let history_root h =
  if h.size = 0 then empty_root
  else
    let e = edges h in
    e.(Array.length e - 1)

let history_path h i =
  if i < 0 || i >= h.size then invalid_arg "Merkle.history_path: index out of range";
  let n = h.size in
  let e = edges h in
  List.filter_map
    (fun k ->
      let q = (i lsr k) lxor 1 and last = (n - 1) lsr k in
      if q > last then None else Some (if q = last then e.(k) else node_at h k q))
    (List.init (depth n) Fun.id)

(* The sibling's side at level [k] is [index]'s bit [k]; a level where
   [index]'s node is the promoted last one takes no step. *)
let history_apply ~leaf ~index ~size path =
  let rec go k acc path =
    let last = (size - 1) lsr k in
    if last = 0 then match path with [] -> Some acc | _ :: _ -> None
    else
      let p = index lsr k in
      let q = p lxor 1 in
      if q > last then go (k + 1) acc path
      else
        match path with
        | [] -> None
        | s :: rest -> go (k + 1) (if q > p then node_hash acc s else node_hash s acc) rest
  in
  if index < 0 || index >= size then None else go 0 (leaf_hash leaf) path
