open Brdb_sql.Ast

let forbidden_functions =
  [
    "random"; "setseed"; "now"; "current_timestamp"; "current_time";
    "current_date"; "clock_timestamp"; "statement_timestamp"; "timeofday";
    "nextval"; "currval"; "lastval"; "setval"; "txid_current"; "version";
    "pg_backend_pid"; "inet_client_addr";
  ]

let pseudo_columns = [ "xmin"; "xmax"; "creator"; "deleter" ]

exception Bad of string

let rec check_expr ~provenance e =
  iter_expr
    (fun e ->
      match e with
      | Call (name, _) when List.mem name forbidden_functions ->
          raise (Bad (Printf.sprintf "non-deterministic function %s()" name))
      | Col (_, c) when (not provenance) && List.mem c pseudo_columns ->
          raise (Bad (Printf.sprintf "row header %s not allowed outside provenance queries" c))
      | Subquery sel | Exists sel | In_select (_, sel) ->
          check_select_deep ~provenance sel
      | _ -> ())
    e

and check_select_deep ~provenance (s : select) =
  if s.limit <> None && s.order_by = [] then
    raise (Bad "LIMIT requires ORDER BY for deterministic results");
  iter_select_exprs
    (fun e ->
      match e with
      | Call (name, _) when List.mem name forbidden_functions ->
          raise (Bad (Printf.sprintf "non-deterministic function %s()" name))
      | Col (_, c) when (not provenance) && List.mem c pseudo_columns ->
          raise (Bad (Printf.sprintf "row header %s not allowed outside provenance queries" c))
      | _ -> ())
    s

(* LIMIT-without-ORDER is checked on every nesting level. *)
let rec check_select (s : select) =
  if s.limit <> None && s.order_by = [] then
    raise (Bad "LIMIT requires ORDER BY for deterministic results");
  iter_select_exprs
    (fun e ->
      match e with
      | Subquery inner | Exists inner | In_select (_, inner) -> check_select inner
      | _ -> ())
    s

let check_stmt_exn stmt =
  let provenance = match stmt with Select s -> s.provenance | _ -> false in
  iter_stmt_exprs (check_expr ~provenance) stmt;
  match stmt with Select s -> check_select s | _ -> ()

let check_stmt stmt =
  match check_stmt_exn stmt with () -> Ok () | exception Bad msg -> Error msg

let check_program (p : Procedural.t) =
  let rec check_step step =
    match step with
    | Procedural.Run stmt | Procedural.Let (_, stmt) -> check_stmt stmt
    | Procedural.Require expr -> (
        match check_expr ~provenance:false expr with
        | () -> Ok ()
        | exception Bad msg -> Error msg)
    | Procedural.If (cond, then_step, else_step) -> (
        match check_expr ~provenance:false cond with
        | exception Bad msg -> Error msg
        | () -> (
            match check_step then_step with
            | Error _ as e -> e
            | Ok () -> (
                match else_step with
                | None -> Ok ()
                | Some s -> check_step s)))
  in
  let rec loop = function
    | [] -> Ok ()
    | step :: rest -> (
        match check_step step with Ok () -> loop rest | Error _ as e -> e)
  in
  loop p.Procedural.steps

let parse_program source =
  match Procedural.parse source with
  | Error e -> Error (`Syntax e)
  | Ok program -> (
      match check_program program with
      | Error e -> Error (`Nondeterministic e)
      | Ok () -> Ok program)
