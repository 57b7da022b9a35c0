module Catalog = Brdb_storage.Catalog
module Table = Brdb_storage.Table
module Version = Brdb_storage.Version
module Value = Brdb_storage.Value
module Node_core = Brdb_node.Node_core

type pin = { p_table : string; p_key : Value.t; p_creator : int option }

type violation =
  | Superseded of { table : string; key : Value.t }
  | Expired of { age : int; window : int }

let violation_to_string = function
  | Superseded { table; key } ->
      Printf.sprintf "admission: pinned read of %s[%s] superseded" table
        (Value.encode key)
  | Expired { age; window } ->
      Printf.sprintf "admission: session outlived its height window (%d > %d)"
        age window

let lookup core ~table ~key ~height =
  if Catalog.is_sys_name table then
    invalid_arg "Admission.lookup: sys.* views have no MVCC versions to pin";
  match Catalog.find (Node_core.catalog core) table with
  | None -> None
  | Some tbl ->
      (* The primary key is unique in committed state, so at most one
         version is visible at any height — the iteration order of
         pk_lookup cannot leak. *)
      let found = ref None in
      Table.pk_lookup ~height tbl key (fun v ->
          if Version.visible_at v ~height then found := Some v);
      !found

let pin_read core ~table ~key ~height =
  let v = lookup core ~table ~key ~height in
  ( {
      p_table = table;
      p_key = key;
      p_creator = Option.map (fun v -> v.Version.creator_block) v;
    },
    Option.map (fun v -> Array.copy v.Version.values) v )

let check core ~pins ~pinned_height ?max_window () =
  let height = Node_core.height core in
  match max_window with
  | Some w when height - pinned_height > w ->
      Error (Expired { age = height - pinned_height; window = w })
  | _ ->
      let rec go = function
        | [] -> Ok ()
        | p :: rest ->
            let creator_now =
              Option.map
                (fun v -> v.Version.creator_block)
                (lookup core ~table:p.p_table ~key:p.p_key ~height)
            in
            if creator_now = p.p_creator then go rest
            else Error (Superseded { table = p.p_table; key = p.p_key })
      in
      go pins
