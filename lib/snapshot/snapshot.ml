open Brdb_storage
module Block = Brdb_ledger.Block
module Block_store = Brdb_ledger.Block_store
module Manager = Brdb_txn.Manager
module Registry = Brdb_contracts.Registry
module Identity = Brdb_crypto.Identity
module Schnorr = Brdb_crypto.Schnorr

type compaction = Archive | Pruned

let compaction_to_string = function Archive -> "archive" | Pruned -> "pruned"

type table_state = {
  ts_name : string;
  ts_columns : Schema.column list;
  ts_slots : Version.t option array;
  ts_indexes : (int * bool) list;
  ts_pruned : int;
}

type t = {
  height : int;
  state_digest : string;
  compaction : compaction;
  next_txid : int;
  globals : (string * int) list;
  contract_next_version : int;
  contracts : (string * int * string) list;
  blocks : Block.t list;
  tables : table_state list;
  extra : (string * string) list;
}

(* --- capture ----------------------------------------------------------------------- *)

(* Versions are copied so the snapshot shares no mutable state with the
   live heap (a same-process install must not alias the source node). *)
let copy_version (v : Version.t) =
  let c = Version.make ~vid:v.Version.vid ~xmin:v.Version.xmin (Array.copy v.Version.values) in
  c.Version.xmin_aborted <- v.Version.xmin_aborted;
  c.Version.creator_block <- v.Version.creator_block;
  c.Version.xmax <- v.Version.xmax;
  c.Version.deleter_block <- v.Version.deleter_block;
  c

(* A snapshot carries only settled state: in-flight versions (uncommitted,
   not aborted) are dropped — the transactions that created them are not
   carried either, and re-execute from their block on the installing node.
   [Pruned] additionally drops versions dead at the snapshot height
   (aborted, or deleted by a block <= height), except in [pgledger], whose
   history is the provenance/audit record. *)
let capture_table ~height ~compaction name (table : Table.t) =
  let prunable = compaction = Pruned && not (String.equal name Catalog.ledger_table) in
  let compacted = ref 0 in
  let slots =
    Array.map
      (fun slot ->
        match slot with
        | None -> None
        | Some (v : Version.t) ->
            if v.Version.creator_block = Version.unset_block && not v.Version.xmin_aborted
            then None
            else if
              prunable
              && (v.Version.xmin_aborted || v.Version.deleter_block <= height)
            then begin
              incr compacted;
              None
            end
            else Some (copy_version v))
      (Table.heap_slots table)
  in
  {
    ts_name = name;
    ts_columns = Array.to_list (Table.schema table).Schema.columns;
    ts_slots = slots;
    ts_indexes = Table.index_specs table;
    ts_pruned = Table.pruned_total table + !compacted;
  }

let capture ~catalog ~store ~contracts ~manager ~height ~state_digest ~compaction
    ?(extra = []) () =
  if height <> Block_store.height store then
    invalid_arg
      (Printf.sprintf "Snapshot.capture: height %d but store holds %d blocks" height
         (Block_store.height store));
  let blocks = ref [] in
  Block_store.iter store (fun b -> blocks := b :: !blocks);
  {
    height;
    state_digest;
    compaction;
    next_txid = Manager.next_txid manager;
    globals = Manager.export_globals manager;
    contract_next_version = Registry.next_version contracts;
    contracts = Registry.export_procedural contracts;
    blocks = List.rev !blocks;
    tables =
      List.map
        (fun name ->
          match Catalog.find catalog name with
          | Some table -> capture_table ~height ~compaction name table
          | None -> assert false)
        (Catalog.table_names catalog);
    extra = List.sort (fun (a, _) (b, _) -> String.compare a b) extra;
  }

(* --- canonical wire format ---------------------------------------------------------- *)

let magic = "brdbsnap-1"

let ty_char =
  let open Brdb_sql.Ast in
  function T_int -> "i" | T_float -> "f" | T_text -> "t" | T_bool -> "b"

let ty_of_char =
  let open Brdb_sql.Ast in
  function
  | "i" -> T_int
  | "f" -> T_float
  | "t" -> T_text
  | "b" -> T_bool
  | s -> Codec.fail (Printf.sprintf "unknown column type tag %S" s)

let w_column w (c : Schema.column) =
  Codec.str w c.Schema.name;
  Codec.str w (ty_char c.Schema.ty);
  Codec.bool w c.Schema.not_null;
  Codec.bool w c.Schema.primary_key

let r_column r =
  let name = Codec.r_str r in
  let ty = ty_of_char (Codec.r_str r) in
  let not_null = Codec.r_bool r in
  let primary_key = Codec.r_bool r in
  { Schema.name; ty; not_null; primary_key }

let w_sig w (s : Schnorr.signature) =
  Codec.str w (Int64.to_string s.Schnorr.e);
  Codec.str w (Int64.to_string s.Schnorr.s)

let r_sig r =
  let e = Codec.r_str r and s = Codec.r_str r in
  match (Int64.of_string_opt e, Int64.of_string_opt s) with
  | Some e, Some s -> { Schnorr.e; s }
  | _ -> Codec.fail "bad signature encoding"

let w_tx w (tx : Block.tx) =
  Codec.str w tx.Block.tx_id;
  Codec.str w tx.Block.tx_user;
  Codec.str w tx.Block.tx_contract;
  Codec.list w Codec.value tx.Block.tx_args;
  (match tx.Block.tx_snapshot with
  | None -> Codec.bool w false
  | Some h ->
      Codec.bool w true;
      Codec.int w h);
  w_sig w tx.Block.tx_signature

let r_tx r =
  let tx_id = Codec.r_str r in
  let tx_user = Codec.r_str r in
  let tx_contract = Codec.r_str r in
  let tx_args = Codec.r_list r Codec.r_value in
  let tx_snapshot = if Codec.r_bool r then Some (Codec.r_int r) else None in
  let tx_signature = r_sig r in
  { Block.tx_id; tx_user; tx_contract; tx_args; tx_snapshot; tx_signature }

let w_block w (b : Block.t) =
  Codec.int w b.Block.height;
  Codec.str w b.Block.metadata;
  Codec.str w b.Block.prev_hash;
  Codec.list w w_tx b.Block.txs;
  Codec.list w
    (fun w (name, sg) ->
      Codec.str w name;
      w_sig w sg)
    b.Block.signatures

let r_block r =
  let height = Codec.r_int r in
  let metadata = Codec.r_str r in
  let prev_hash = Codec.r_str r in
  let txs = Codec.r_list r r_tx in
  let signatures =
    Codec.r_list r (fun r ->
        let name = Codec.r_str r in
        (name, r_sig r))
  in
  (* The hash is not on the wire: install derives it from the contents
     ([Block.check_decoded]) and checks every block's signatures and the
     whole chain, so decode hashes nothing. *)
  { Block.height; txs; metadata; prev_hash; hash = ""; signatures }

let w_slot w slot =
  match slot with
  | None -> Codec.bool w false
  | Some (v : Version.t) ->
      Codec.bool w true;
      Codec.int w v.Version.xmin;
      Codec.bool w v.Version.xmin_aborted;
      Codec.int w v.Version.creator_block;
      Codec.int w v.Version.xmax;
      Codec.int w v.Version.deleter_block;
      Codec.list w Codec.value (Array.to_list v.Version.values)

let r_slot ~vid r =
  if not (Codec.r_bool r) then None
  else begin
    let xmin = Codec.r_int r in
    let xmin_aborted = Codec.r_bool r in
    let creator_block = Codec.r_int r in
    let xmax = Codec.r_int r in
    let deleter_block = Codec.r_int r in
    let values = Array.of_list (Codec.r_list r Codec.r_value) in
    let v = Version.make ~vid ~xmin values in
    v.Version.xmin_aborted <- xmin_aborted;
    v.Version.creator_block <- creator_block;
    v.Version.xmax <- xmax;
    v.Version.deleter_block <- deleter_block;
    Some v
  end

let w_table w ts =
  Codec.str w ts.ts_name;
  Codec.list w w_column ts.ts_columns;
  Codec.int w (Array.length ts.ts_slots);
  Array.iter (w_slot w) ts.ts_slots;
  Codec.list w
    (fun w (column, unique) ->
      Codec.int w column;
      Codec.bool w unique)
    ts.ts_indexes;
  Codec.int w ts.ts_pruned

let r_table r =
  let ts_name = Codec.r_str r in
  let ts_columns = Codec.r_list r r_column in
  let n = Codec.r_int r in
  if n < 0 then Codec.fail "negative heap size";
  let ts_slots = Array.init n (fun vid -> r_slot ~vid r) in
  let ts_indexes =
    Codec.r_list r (fun r ->
        let column = Codec.r_int r in
        let unique = Codec.r_bool r in
        (column, unique))
  in
  let ts_pruned = Codec.r_int r in
  { ts_name; ts_columns; ts_slots; ts_indexes; ts_pruned }

let encode t =
  let w = Codec.writer () in
  Codec.str w magic;
  Codec.int w t.height;
  Codec.str w t.state_digest;
  Codec.str w (match t.compaction with Archive -> "A" | Pruned -> "P");
  Codec.int w t.next_txid;
  Codec.list w
    (fun w (gid, txid) ->
      Codec.str w gid;
      Codec.int w txid)
    t.globals;
  Codec.int w t.contract_next_version;
  Codec.list w
    (fun w (name, version, source) ->
      Codec.str w name;
      Codec.int w version;
      Codec.str w source)
    t.contracts;
  Codec.list w w_block t.blocks;
  Codec.list w w_table t.tables;
  Codec.list w
    (fun w (name, payload) ->
      Codec.str w name;
      Codec.str w payload)
    t.extra;
  Codec.contents w

let decode src =
  Codec.decode src (fun r ->
      if not (String.equal (Codec.r_str r) magic) then
        Codec.fail "bad snapshot magic";
      let height = Codec.r_int r in
      let state_digest = Codec.r_str r in
      let compaction =
        match Codec.r_str r with
        | "A" -> Archive
        | "P" -> Pruned
        | s -> Codec.fail (Printf.sprintf "unknown compaction tag %S" s)
      in
      let next_txid = Codec.r_int r in
      let globals =
        Codec.r_list r (fun r ->
            let gid = Codec.r_str r in
            let txid = Codec.r_int r in
            (gid, txid))
      in
      let contract_next_version = Codec.r_int r in
      let contracts =
        Codec.r_list r (fun r ->
            let name = Codec.r_str r in
            let version = Codec.r_int r in
            let source = Codec.r_str r in
            (name, version, source))
      in
      let blocks = Codec.r_list r r_block in
      let tables = Codec.r_list r r_table in
      let extra =
        Codec.r_list r (fun r ->
            let name = Codec.r_str r in
            let payload = Codec.r_str r in
            (name, payload))
      in
      {
        height;
        state_digest;
        compaction;
        next_txid;
        globals;
        contract_next_version;
        contracts;
        blocks;
        tables;
        extra;
      })

let find_extra t name = List.assoc_opt name t.extra

(* --- install ------------------------------------------------------------------------ *)

let build_table ts =
  match Schema.create ~name:ts.ts_name ~columns:ts.ts_columns with
  | Error e -> Error (Printf.sprintf "table %s: bad schema: %s" ts.ts_name e)
  | Ok schema -> (
      (* [Schema.create] re-derives the pk; [Table.restore] rebuilds the
         pk index before the extra specs are applied, so dedupe. *)
      match
        try
          Ok
            (Table.restore ~schema ~slots:ts.ts_slots ~indexes:ts.ts_indexes
               ~pruned_total:ts.ts_pruned)
        with Invalid_argument e -> Error e
      with
      | Error e -> Error e
      | Ok table -> (
          match Table.check_visibility table with
          | Ok () -> Ok table
          | Error e -> Error ("restored table incoherent: " ^ e)))

let install ~catalog ~store ~contracts ~manager ~identities t =
  (* Phase 1 — validate and build everything on the side; no live state
     is touched until nothing can fail. *)
  let scratch = Block_store.create () in
  let rec check_all acc = function
    | [] ->
        let checked = List.rev acc in
        Result.map (fun () -> checked) (Block_store.restore scratch checked)
    | (b : Block.t) :: rest -> (
        match Block.check_decoded identities b with
        | Ok c -> check_all (c :: acc) rest
        | Error _ ->
            Error (Printf.sprintf "snapshot block %d fails verification" b.Block.height))
  in
  Result.bind (check_all [] t.blocks) (fun checked ->
      if Block_store.height scratch <> t.height then
        Error
          (Printf.sprintf "snapshot claims height %d but carries %d blocks"
             t.height (Block_store.height scratch))
      else
        let rec build acc = function
          | [] -> Ok (List.rev acc)
          | ts :: rest -> (
              match build_table ts with
              | Error _ as e -> e
              | Ok table -> build (table :: acc) rest)
        in
        Result.bind (build [] t.tables) (fun tables ->
            if
              not
                (List.exists
                   (fun tbl -> String.equal (Table.name tbl) Catalog.ledger_table)
                   tables)
            then Error "snapshot lacks the ledger table"
            else
              let bad_contract =
                let probe = Registry.create () in
                List.find_map
                  (fun (name, version, source) ->
                    match Registry.install_exact probe ~name ~version ~source with
                    | Ok () -> None
                    | Error e -> Some (Printf.sprintf "contract %s: %s" name e))
                  t.contracts
              in
              match bad_contract with
              | Some e -> Error e
              | None -> begin
              (* Phase 2 — swap, in an order where each step leaves a
                 consistent (catalog, store) pair. *)
              Catalog.swap_tables catalog tables;
              (match Block_store.restore store checked with
              | Ok () -> ()
              | Error _ -> assert false (* validated on scratch above *));
              List.iter
                (fun (name, _, _) -> ignore (Registry.drop contracts ~name))
                (Registry.export_procedural contracts);
              List.iter
                (fun (name, version, source) ->
                  match Registry.install_exact contracts ~name ~version ~source with
                  | Ok () -> ()
                  | Error _ -> assert false (* probed above *))
                t.contracts;
              Registry.set_next_version contracts t.contract_next_version;
              Manager.restore_globals manager ~next_txid:t.next_txid t.globals;
              Ok ()
            end))

(* --- accounting --------------------------------------------------------------------- *)

let resident_versions t =
  List.fold_left
    (fun acc ts ->
      Array.fold_left
        (fun acc slot -> match slot with Some _ -> acc + 1 | None -> acc)
        acc ts.ts_slots)
    0 t.tables
