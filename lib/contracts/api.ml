open Brdb_storage
module Exec = Brdb_engine.Exec

type hooks = {
  deploy : kind:string -> name:string -> body:string -> (unit, string) result;
  set_user : name:string -> pubkey:string option -> (unit, string) result;
}

let no_hooks =
  {
    deploy = (fun ~kind:_ ~name:_ ~body:_ -> Error "deployment not available");
    set_user = (fun ~name:_ ~pubkey:_ -> Error "user management not available");
  }

type t = {
  catalog : Catalog.t;
  txn : Brdb_txn.Txn.t;
  args : Value.t array;
  mode : Exec.mode;
  hooks : hooks;
  mutable locals : (string * Value.t) list;
}

exception Failed of Exec.error

let fail msg = raise (Failed (Exec.Sql_error msg))

let make ~catalog ~txn ~args ?(mode = Exec.default_mode) ?(hooks = no_hooks) () =
  { catalog; txn; args; mode; hooks; locals = [] }

let invoker t = t.txn.Brdb_txn.Txn.client

let arg t i =
  if i < 1 || i > Array.length t.args then fail (Printf.sprintf "argument $%d missing" i)
  else t.args.(i - 1)

let arg_int t i =
  match arg t i with
  | Value.Int n -> n
  | v -> fail (Printf.sprintf "argument $%d: expected int, got %s" i (Value.to_string v))

let arg_text t i =
  match arg t i with
  | Value.Text s -> s
  | v -> fail (Printf.sprintf "argument $%d: expected text, got %s" i (Value.to_string v))

let query t sql =
  match Exec.execute_sql t.catalog t.txn ~params:t.args ~named:t.locals ~mode:t.mode sql with
  | Ok rs -> rs
  | Error e -> raise (Failed e)

let query1 t sql =
  let rs = query t sql in
  match rs.Exec.rows with [] -> None | row :: _ -> Some row.(0)

let execute t sql = (query t sql).Exec.affected

let set_local t name v = t.locals <- (name, v) :: List.remove_assoc name t.locals
