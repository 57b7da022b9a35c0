(* Pairwise reference rw-antidependency detector for [Brdb_ssi.Detect].
   It checks every ordered pair of transactions, so it is quadratic in the
   block size; its edge set is the one the indexed [Detect.compute] must
   reproduce (test_ssi.ml compares the two on random SQL workloads). *)

open Brdb_ssi
open Brdb_storage
module Txn = Brdb_txn.Txn

let version_values catalog table vid =
  match Catalog.find catalog table with
  | None -> None
  | Some tbl -> (
      match Table.get_version tbl vid with
      | v -> Some v.Version.values
      | exception Invalid_argument _ -> None)

(* Edges from [reader] to [writer] (one direction). *)
let edges_between g catalog (reader : Txn.t) (writer : Txn.t) =
  if reader.Txn.txid <> writer.Txn.txid then begin
    (* Writer overwrote something the reader read. *)
    let claimed = Txn.claimed writer in
    let reads = Txn_ref.reads_of_txn reader in
    if List.exists (fun rw -> List.mem rw reads) claimed then Graph.add_edge g ~reader:reader.Txn.txid ~writer:writer.Txn.txid
    else
      (* Writer created a row that falls under one of the reader's
         predicates (reader could not have seen it). *)
      let phantom =
        List.exists
          (fun (table, vid) ->
            match version_values catalog table vid with
            | None -> false
            | Some values ->
                List.exists
                  (fun p -> Predicate.matches p ~table values)
                  reader.Txn.predicates)
          (Txn.created writer)
      in
      if phantom then Graph.add_edge g ~reader:reader.Txn.txid ~writer:writer.Txn.txid
  end

let compute catalog txns =
  let g = Graph.create () in
  let rec loop = function
    | [] -> ()
    | txn :: rest ->
        List.iter
          (fun other ->
            edges_between g catalog txn other;
            edges_between g catalog other txn)
          rest;
        loop rest
  in
  loop txns;
  g
