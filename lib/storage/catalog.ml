type virtual_table = {
  v_schema : Schema.t;
  v_rows : height:int -> Value.t array list;
}

type t = {
  tables : (string, Table.t) Hashtbl.t;
  virtuals : (string, virtual_table) Hashtbl.t;
}

let ledger_table = "pgledger"

let sys_prefix = "sys."

let is_sys_name name =
  String.length name >= String.length sys_prefix
  && String.sub name 0 (String.length sys_prefix) = sys_prefix

let ledger_schema () =
  let open Brdb_sql.Ast in
  let col ?(pk = false) name ty =
    { Schema.name; ty; not_null = false; primary_key = pk }
  in
  match
    Schema.create ~name:ledger_table
      ~columns:
        [
          col ~pk:true "txid" T_int;
          col "gid" T_text;
          col "blocknumber" T_int;
          col "txuser" T_text;
          col "txquery" T_text;
          col "status" T_text;
          col "committime" T_int;
        ]
  with
  | Ok s -> s
  | Error msg -> failwith ("internal: ledger schema invalid: " ^ msg)

let create () =
  let t = { tables = Hashtbl.create 16; virtuals = Hashtbl.create 16 } in
  Hashtbl.replace t.tables ledger_table (Table.create (ledger_schema ()));
  t

type 'a column = { c_schema : Schema.column; c_cell : 'a -> Value.t }

let column ty cell ?(pk = false) name get =
  {
    c_schema = { Schema.name; ty; not_null = false; primary_key = pk };
    c_cell = (fun row -> cell (get row));
  }

let int ?pk = column Brdb_sql.Ast.T_int (fun v -> Value.Int v) ?pk

let float ?pk = column Brdb_sql.Ast.T_float (fun v -> Value.Float v) ?pk

let text ?pk = column Brdb_sql.Ast.T_text (fun v -> Value.Text v) ?pk

let bool ?pk = column Brdb_sql.Ast.T_bool (fun v -> Value.Bool v) ?pk

let register_virtual t ~name columns rows =
  if not (is_sys_name name) then
    invalid_arg (Printf.sprintf "Catalog.register_virtual: %s is not a sys.* name" name)
  else
    match Schema.create ~name ~columns:(List.map (fun c -> c.c_schema) columns) with
    | Error msg ->
        invalid_arg (Printf.sprintf "Catalog.register_virtual %s: %s" name msg)
    | Ok v_schema ->
        let cells = Array.of_list (List.map (fun c -> c.c_cell) columns) in
        let v_rows ~height =
          List.map (fun row -> Array.map (fun cell -> cell row) cells) (rows ~height)
        in
        Hashtbl.replace t.virtuals name { v_schema; v_rows }

let find_virtual t name = Hashtbl.find_opt t.virtuals name

let virtual_names t = Brdb_util.Sorted_tbl.sorted_keys t.virtuals

let virtual_schema t name =
  Option.map (fun v -> v.v_schema) (find_virtual t name)

let find t name = Hashtbl.find_opt t.tables name

let mem t name = Hashtbl.mem t.tables name

let table_names t = Brdb_util.Sorted_tbl.sorted_keys t.tables

let create_table t schema =
  let name = schema.Schema.table_name in
  if is_sys_name name then Error "sys.* tables are read-only"
  else if Hashtbl.mem t.tables name then Error (Printf.sprintf "table %s already exists" name)
  else begin
    let table = Table.create schema in
    Hashtbl.replace t.tables name table;
    Ok table
  end

let drop_table t name =
  if is_sys_name name then Error "sys.* tables are read-only"
  else if String.equal name ledger_table then Error "cannot drop system table"
  else if not (Hashtbl.mem t.tables name) then
    Error (Printf.sprintf "table %s does not exist" name)
  else begin
    Hashtbl.remove t.tables name;
    Ok ()
  end

let restore_table t table = Hashtbl.replace t.tables (Table.name table) table

let reset t =
  Hashtbl.reset t.tables;
  Hashtbl.replace t.tables ledger_table (Table.create (ledger_schema ()))

let swap_tables t tables =
  if not (List.exists (fun tbl -> String.equal (Table.name tbl) ledger_table) tables)
  then invalid_arg "Catalog.swap_tables: table set lacks pgledger"
  else begin
    Hashtbl.reset t.tables;
    List.iter (fun tbl -> Hashtbl.replace t.tables (Table.name tbl) tbl) tables
  end
