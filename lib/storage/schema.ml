type column = {
  name : string;
  ty : Brdb_sql.Ast.data_type;
  not_null : bool;
  primary_key : bool;
}

type t = {
  table_name : string;
  columns : column array;
  pk_index : int option;
}

(* Column names reserved for provenance pseudo-columns. *)
let reserved_columns = [ "xmin"; "xmax"; "creator"; "deleter" ]

let create ~name ~columns =
  let seen = Hashtbl.create 8 in
  let rec validate pk i = function
    | [] -> Ok pk
    | c :: rest ->
        if List.mem c.name reserved_columns then
          Error (Printf.sprintf "column name %s is reserved" c.name)
        else if Hashtbl.mem seen c.name then
          Error (Printf.sprintf "duplicate column %s" c.name)
        else begin
          Hashtbl.replace seen c.name ();
          if c.primary_key then
            match pk with
            | Some _ -> Error "multiple primary keys"
            | None -> validate (Some i) (i + 1) rest
          else validate pk (i + 1) rest
        end
  in
  if columns = [] then Error "table must have at least one column"
  else
    match validate None 0 columns with
    | Error _ as e -> e
    | Ok pk_index ->
        Ok { table_name = name; columns = Array.of_list columns; pk_index }

let of_ast name cols =
  let columns =
    List.map
      (fun (c : Brdb_sql.Ast.column_def) ->
        {
          name = c.c_name;
          ty = c.c_type;
          not_null = c.c_not_null;
          primary_key = c.c_primary_key;
        })
      cols
  in
  create ~name ~columns

let column_index t name =
  let rec loop i =
    if i >= Array.length t.columns then None
    else if String.equal t.columns.(i).name name then Some i
    else loop (i + 1)
  in
  loop 0

let arity t = Array.length t.columns

let check_row t row =
  if Array.length row <> arity t then
    Error
      (Printf.sprintf "table %s expects %d values, got %d" t.table_name (arity t)
         (Array.length row))
  else
    let rec loop i =
      if i >= arity t then Ok ()
      else
        let col = t.columns.(i) in
        let v = row.(i) in
        if Value.is_null v && (col.not_null || col.primary_key) then
          Error (Printf.sprintf "column %s of %s is NOT NULL" col.name t.table_name)
        else if not (Value.conforms col.ty v) then
          Error
            (Printf.sprintf "column %s of %s expects %s, got %s" col.name
               t.table_name
               (Brdb_sql.Ast.data_type_to_string col.ty)
               (Value.to_string v))
        else loop (i + 1)
    in
    loop 0
