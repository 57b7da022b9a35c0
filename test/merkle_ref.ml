(* List-based reference for [Brdb_crypto.Merkle]: the root and the
   inclusion proof as they were computed before the library kept a
   bucketed tree, rebuilding every level from the leaves. test_crypto.ml
   pins [Merkle.tree_root] and [Merkle.prove_tree] to these, and the
   client and recovery tests compare served proofs against [proof]. *)

open Brdb_crypto

let leaf_hash x = Sha256.digest ("\x00" ^ x)

let node_hash l r = Sha256.digest_concat [ "\x01"; l; r ]

let empty_root = Sha256.digest "brdb-merkle-empty"

let rec level = function
  | [] -> []
  | [ x ] -> [ x ]
  | a :: b :: rest -> node_hash a b :: level rest

let rec fold = function [] -> empty_root | [ x ] -> x | xs -> fold (level xs)

let root leaves = fold (List.map leaf_hash leaves)

type step = Left of string | Right of string

(* Every level, leaf hashes first and the root last, each as an array —
   the sequence [prove] used to rebuild with [level] on its way up. *)
let levels leaves =
  let rec go nodes acc =
    match nodes with
    | [] | [ _ ] -> List.rev (Array.of_list nodes :: acc)
    | _ -> go (level nodes) (Array.of_list nodes :: acc)
  in
  go (List.map leaf_hash leaves) []

(* The path for leaf [i], read off [levels leaves]; built once, a tree's
   levels serve every index. *)
let prove_in levels i =
  let rec build levels i acc =
    match levels with
    | [] | [ _ ] -> List.rev acc
    | arr :: rest ->
        let sibling =
          if i mod 2 = 0 then
            if i + 1 < Array.length arr then Some (Right arr.(i + 1)) else None
          else Some (Left arr.(i - 1))
        in
        let acc = match sibling with Some s -> s :: acc | None -> acc in
        (* A node with no sibling is promoted, keeping its index meaningful. *)
        build rest (i / 2) acc
  in
  build levels i []

let prove leaves i =
  if i < 0 || i >= List.length leaves then invalid_arg "Merkle.prove: index out of range";
  prove_in (levels leaves) i

(* The canonical text form, as [Merkle.proof_to_string] prints it. *)
let to_string steps =
  String.concat ""
    (List.map
       (function
         | Left l -> "L" ^ Brdb_util.Hex.encode l
         | Right r -> "R" ^ Brdb_util.Hex.encode r)
       steps)

let proof leaves i = to_string (prove leaves i)

(* [proof leaves i] for every index, hashing the tree once. *)
let all_proofs leaves =
  let lv = levels leaves in
  List.mapi (fun i _ -> to_string (prove_in lv i)) leaves
