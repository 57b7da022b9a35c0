open Brdb_storage
module Txn = Brdb_txn.Txn
module Vid_tbl = Hashtbl.Make (Int)

(* Claims index: each table mapped to the vids updated or deleted in it,
   each vid to the txids that claimed it. A reader's read set is per
   table too, so it finds its table's claims once and probes by vid. *)
let claims_index txns =
  let idx = Hashtbl.create 16 in
  List.iter
    (fun (w : Txn.t) ->
      List.iter
        (fun (table, vid) ->
          let by_vid =
            match Hashtbl.find_opt idx table with
            | Some by_vid -> by_vid
            | None ->
                let by_vid = Vid_tbl.create 64 in
                Hashtbl.replace idx table by_vid;
                by_vid
          in
          let prev = Option.value ~default:[] (Vid_tbl.find_opt by_vid vid) in
          Vid_tbl.replace by_vid vid (w.Txn.txid :: prev))
        (Txn.claimed w))
    txns;
  idx

(* [None] when the table is gone or the version was pruned: such a
   version can fall under no predicate. *)
let version_values catalog table vid =
  match Catalog.find catalog table with
  | None -> None
  | Some tbl -> Option.map (fun v -> v.Version.values) (Table.find_version tbl vid)

(* Creations index: each table mapped to the versions created in it, as
   (creator txid, decoded values). *)
let creations_index catalog txns =
  let idx = Hashtbl.create 16 in
  List.iter
    (fun (w : Txn.t) ->
      List.iter
        (fun (table, vid) ->
          match version_values catalog table vid with
          | None -> ()
          | Some values ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt idx table) in
              Hashtbl.replace idx table ((w.Txn.txid, values) :: prev))
        (Txn.created w))
    txns;
  idx

let compute catalog txns =
  let g = Graph.create () in
  let claims = claims_index txns in
  let creations = creations_index catalog txns in
  let probe_claims = Hashtbl.length claims > 0 in
  List.iter
    (fun (r : Txn.t) ->
      let reader = r.Txn.txid in
      (* [Graph.add_edge] drops reader = writer, so a transaction that
         claims what it read, or creates what it scanned, gets no edge. *)
      let add writer = Graph.add_edge g ~reader ~writer in
      if probe_claims then
        List.iter
          (fun reads ->
            match Hashtbl.find_opt claims (Txn.reads_table reads) with
            | None -> ()
            | Some by_vid ->
                Txn.iter_vids
                  (fun vid -> Option.iter (List.iter add) (Vid_tbl.find_opt by_vid vid))
                  reads)
          r.Txn.reads;
      List.iter
        (fun p ->
          let table = Predicate.table p in
          match Hashtbl.find_opt creations table with
          | None -> ()
          | Some created ->
              List.iter
                (fun (writer, values) -> if Predicate.matches p ~table values then add writer)
                created)
        r.Txn.predicates)
    txns;
  g
