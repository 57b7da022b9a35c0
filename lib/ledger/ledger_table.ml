open Brdb_storage

type entry = { e_txid : int; e_gid : string; e_user : string; e_query : string }

let ledger catalog =
  match Catalog.find catalog Catalog.ledger_table with
  | Some t -> t
  | None -> failwith "internal: pgledger missing"

(* Column positions in the pgledger schema. *)
let c_txid = 0
let c_blocknumber = 2
let c_status = 5

let system_insert table ~height values =
  let v = Table.insert_version table ~xmin:0 values in
  v.Version.creator_block <- height;
  v

let record_txs catalog ~height ~time entries =
  let table = ledger catalog in
  List.iter
    (fun e ->
      ignore
        (system_insert table ~height
           [|
             Value.Int e.e_txid;
             Value.Text e.e_gid;
             Value.Int height;
             Value.Text e.e_user;
             Value.Text e.e_query;
             Value.Null;
             Value.Int time;
           |]))
    entries

let live_row table ~txid f =
  (* No block deletes above the unset sentinel, so this walks the live
     versions only: not aborted, no deleter. Keep the committed one. *)
  Table.pk_lookup ~height:Version.unset_block table (Value.Int txid) (fun v ->
      if v.Version.creator_block <> Version.unset_block then f v)

let record_statuses catalog ~height statuses =
  let table = ledger catalog in
  List.iter
    (fun (txid, status) ->
      live_row table ~txid (fun v ->
          (* MVCC update by the system: retire the NULL-status version and
             append one carrying the outcome. *)
          let values = Array.copy v.Version.values in
          values.(c_status) <- Value.Text status;
          Table.mark_deleted table v ~xmax:0 ~height;
          ignore (system_insert table ~height values)))
    statuses

let last_recorded_block catalog =
  let best = ref 0 in
  Table.iter_versions (ledger catalog) (fun v ->
      if not v.Version.xmin_aborted then
        match v.Version.values.(c_blocknumber) with
        | Value.Int h when h > !best -> best := h
        | _ -> ());
  !best

let block_txs catalog ~height =
  let acc = Hashtbl.create 16 in
  Table.iter_versions (ledger catalog) (fun v ->
      if
        (not v.Version.xmin_aborted)
        && v.Version.deleter_block = Version.unset_block
        && v.Version.values.(c_blocknumber) = Value.Int height
      then
        match (v.Version.values.(c_txid), v.Version.values.(c_status)) with
        | Value.Int txid, Value.Text s -> Hashtbl.replace acc txid (Some s)
        | Value.Int txid, _ -> Hashtbl.replace acc txid None
        | _ -> ());
  Hashtbl.fold (fun txid s l -> (txid, s) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let erase_block catalog ~height =
  let table = ledger catalog in
  Table.iter_versions table (fun v ->
      if v.Version.values.(c_blocknumber) = Value.Int height then
        Table.mark_aborted table v)
