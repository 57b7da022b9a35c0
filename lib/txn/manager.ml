open Brdb_storage

type t = {
  catalog : Catalog.t;
  mutable next_txid : int;
  txns : (int, Txn.t) Hashtbl.t;
  by_global : (string, int) Hashtbl.t;
}

let create catalog = { catalog; next_txid = 1; txns = Hashtbl.create 64; by_global = Hashtbl.create 64 }

let pending t =
  Hashtbl.fold (fun _ txn acc -> if Txn.is_pending txn then txn :: acc else acc) t.txns []
  |> List.sort (fun a b -> compare a.Txn.txid b.Txn.txid)

let pending_count t = List.length (pending t)

let begin_txn t ~global_id ~client ?description ~snapshot_height () =
  if Hashtbl.mem t.by_global global_id then Error `Duplicate_txid
  else begin
    let txid = t.next_txid in
    t.next_txid <- txid + 1;
    let txn = Txn.create ~txid ~global_id ~client ?description ~snapshot_height () in
    Hashtbl.replace t.txns txid txn;
    Hashtbl.replace t.by_global global_id txid;
    Ok txn
  end

let find t txid = Hashtbl.find_opt t.txns txid

(* --- snapshot support (DESIGN.md §11) ------------------------------------- *)

let next_txid t = t.next_txid

let export_globals t =
  Hashtbl.fold (fun gid txid acc -> (gid, txid) :: acc) t.by_global []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let restore_globals t ~next_txid globals =
  Hashtbl.reset t.txns;
  Hashtbl.reset t.by_global;
  t.next_txid <- next_txid;
  List.iter (fun (gid, txid) -> Hashtbl.replace t.by_global gid txid) globals

let find_by_global t global_id =
  match Hashtbl.find_opt t.by_global global_id with
  | None -> None
  | Some txid -> find t txid

let table_exn t name =
  match Catalog.find t.catalog name with
  | Some tbl -> tbl
  | None -> invalid_arg ("Manager: unknown table " ^ name)

let check_lost_update t txn =
  let rec loop = function
    | [] -> None
    | (table, vid) :: rest ->
        let v = Table.get_version (table_exn t table) vid in
        if v.Version.deleter_block <> Version.unset_block then
          Some (Txn.Ww_conflict v.Version.xmax)
        else loop rest
  in
  loop (Txn.claimed txn)

let check_unique t txn ~height =
  let rec check_created = function
    | [] -> None
    | (table_name, vid) :: rest ->
        let table = table_exn t table_name in
        let w = Table.get_version table vid in
        let rec check_cols = function
          | [] -> check_created rest
          | col :: cols -> (
              let key = w.Version.values.(col) in
              if Value.is_null key then check_cols cols
              else
                let dup = ref false in
                Table.iter_index ~height table ~column:col ~lo:(Index.Incl key)
                  ~hi:(Index.Incl key) (fun u ->
                    if
                      u.Version.vid <> vid
                      && Version.visible_at u ~height
                      && not (Version.claimed_by u txn.Txn.txid)
                    then dup := true);
                if !dup then
                  let cname = (Table.schema table).Schema.columns.(col).Schema.name in
                  Some (Txn.Duplicate_key (Printf.sprintf "%s.%s=%s" table_name cname (Value.to_string key)))
                else check_cols cols)
        in
        check_cols (Table.unique_columns table)
  in
  check_created (Txn.created txn)

let check_stale_phantom t txn ~upto_height =
  let snap = txn.Txn.snapshot_height in
  if upto_height <= snap then None
  else begin
    (* Stale reads: a row this transaction read was updated/deleted by a
       block in (snap, upto]. *)
    let stale =
      List.exists
        (fun reads ->
          let table = table_exn t (Txn.reads_table reads) in
          Txn.exists_vid
            (fun vid ->
              let v = Table.get_version table vid in
              Version.deleted_after v ~height:snap
              && v.Version.deleter_block <= upto_height)
            reads)
        txn.Txn.reads
    in
    if stale then Some Txn.Stale_read
    else begin
      (* Phantoms / predicate-staleness: versions whose insert or delete
         committed in (snap, upto] and which fall under a predicate this
         transaction scanned. *)
      let hit = ref None in
      let consider p table_name (v : Version.t) =
        if !hit = None && Predicate.matches p ~table:table_name v.Version.values then begin
          let created_in_gap =
            Version.committed_after v ~height:snap
            && v.Version.creator_block <= upto_height
            && v.Version.deleter_block > upto_height
          in
          let deleted_in_gap =
            Version.deleted_after v ~height:snap
            && v.Version.deleter_block <= upto_height
          in
          if created_in_gap then hit := Some Txn.Phantom_read
          else if deleted_in_gap then hit := Some Txn.Stale_read
        end
      in
      List.iter
        (fun p ->
          if !hit = None then
            let table_name = Predicate.table p in
            match Catalog.find t.catalog table_name with
            | None -> ()
            | Some table -> (
                match p with
                | Predicate.Range { column; lo; hi; _ }
                  when Table.has_index table ~column ->
                    (* A version retired at or below [snap] fails both gap
                       tests, so the walk can skip it. *)
                    Table.iter_index ~height:snap table ~column ~lo ~hi
                      (consider p table_name)
                | _ -> Table.iter_versions table (consider p table_name)))
        txn.Txn.predicates;
      !hit
    end
  end

let other_claimants t txn =
  let mine = txn.Txn.txid in
  List.concat_map
    (fun (table, vid) ->
      let v = Table.get_version (table_exn t table) vid in
      List.filter_map
        (fun claimant ->
          if claimant = mine then None
          else
            match find t claimant with
            | Some other when Txn.is_pending other -> Some other
            | _ -> None)
        v.Version.claimants)
    (Txn.claimed txn)
  |> List.sort_uniq (fun a b -> compare a.Txn.txid b.Txn.txid)

let commit t txn ~height =
  List.iter
    (fun w ->
      match w with
      | Txn.W_insert { table; vid } ->
          let v = Table.get_version (table_exn t table) vid in
          v.Version.creator_block <- height
      | Txn.W_update { table; old_vid; new_vid } ->
          let tbl = table_exn t table in
          Table.mark_deleted tbl (Table.get_version tbl old_vid)
            ~xmax:txn.Txn.txid ~height;
          let new_v = Table.get_version tbl new_vid in
          new_v.Version.creator_block <- height
      | Txn.W_delete { table; old_vid } ->
          let tbl = table_exn t table in
          Table.mark_deleted tbl (Table.get_version tbl old_vid)
            ~xmax:txn.Txn.txid ~height)
    (Txn.writes_in_order txn);
  txn.Txn.status <- Txn.Committed height;
  List.iter (fun f -> f ()) (List.rev txn.Txn.on_commit)

let abort t txn reason =
  List.iter
    (fun w ->
      match w with
      | Txn.W_insert { table; vid } ->
          let tbl = table_exn t table in
          Table.mark_aborted tbl (Table.get_version tbl vid)
      | Txn.W_update { table; old_vid; new_vid } ->
          let tbl = table_exn t table in
          Version.unclaim (Table.get_version tbl old_vid) txn.Txn.txid;
          Table.mark_aborted tbl (Table.get_version tbl new_vid)
      | Txn.W_delete { table; old_vid } ->
          Version.unclaim (Table.get_version (table_exn t table) old_vid) txn.Txn.txid)
    txn.Txn.writes;
  (* Undo DDL, newest first. *)
  List.iter
    (fun d ->
      match d with
      | Txn.D_created_table name -> ignore (Catalog.drop_table t.catalog name)
      | Txn.D_dropped_table table -> Catalog.restore_table t.catalog table
      | Txn.D_created_index _ -> (* extra indexes are semantically harmless *) ())
    txn.Txn.ddl;
  txn.Txn.status <- Txn.Aborted reason

let write_set_entries t txns =
  let buf = Buffer.create 128 in
  (* "<op>|<table>|<encoded values, comma-separated>" *)
  let entry op table vid =
    let v = Table.get_version (table_exn t table) vid in
    Buffer.add_string buf op;
    Buffer.add_char buf '|';
    Buffer.add_string buf table;
    Buffer.add_char buf '|';
    Array.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Value.encode x))
      v.Version.values
  in
  List.concat_map
    (fun txn ->
      List.map
        (fun w ->
          (* The global id binds the entry to its transaction so a
             provenance proof names the writer, not just the bytes. *)
          Buffer.clear buf;
          Buffer.add_string buf txn.Txn.global_id;
          Buffer.add_char buf '|';
          (match w with
          | Txn.W_insert { table; vid } -> entry "I" table vid
          | Txn.W_update { table; new_vid; old_vid } ->
              entry "U-" table old_vid;
              Buffer.add_char buf ';';
              entry "U+" table new_vid
          | Txn.W_delete { table; old_vid } -> entry "D" table old_vid);
          Buffer.contents buf)
        (Txn.writes_in_order txn))
    txns

let rollback_committed t txn =
  List.iter
    (fun w ->
      match w with
      | Txn.W_insert { table; vid } ->
          let tbl = table_exn t table in
          let v = Table.get_version tbl vid in
          v.Version.creator_block <- Version.unset_block;
          Table.mark_aborted tbl v
      | Txn.W_update { table; old_vid; new_vid } ->
          let tbl = table_exn t table in
          Table.unmark_deleted tbl (Table.get_version tbl old_vid);
          let new_v = Table.get_version tbl new_vid in
          new_v.Version.creator_block <- Version.unset_block;
          Table.mark_aborted tbl new_v
      | Txn.W_delete { table; old_vid } ->
          let tbl = table_exn t table in
          Table.unmark_deleted tbl (Table.get_version tbl old_vid))
    (Txn.writes_in_order txn);
  txn.Txn.status <- Txn.Pending;
  txn.Txn.reads <- [];
  txn.Txn.predicates <- [];
  txn.Txn.predicates_seen <- None;
  txn.Txn.writes <- [];
  txn.Txn.on_commit <- []

let release t txn =
  Hashtbl.remove t.txns txn.Txn.txid;
  Hashtbl.remove t.by_global txn.Txn.global_id

let forget_finished t ~below_height =
  let doomed =
    Hashtbl.fold
      (fun txid txn acc ->
        match txn.Txn.status with
        | Txn.Committed h when h <= below_height -> (txid, txn.Txn.global_id) :: acc
        | Txn.Aborted _ -> (
            match txn.Txn.block with
            | Some h when h <= below_height -> (txid, txn.Txn.global_id) :: acc
            | _ -> acc)
        | _ -> acc)
      t.txns []
  in
  List.iter
    (fun (txid, _global) ->
      Hashtbl.remove t.txns txid
      (* Keep [by_global] entries: duplicate-id detection must outlive the
         transaction (§3.5 resubmission scenario). *))
    doomed
