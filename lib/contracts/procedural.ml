open Brdb_sql

type step =
  | Let of string * Ast.stmt
  | Require of Ast.expr
  | Run of Ast.stmt
  | If of Ast.expr * step * step option

type t = { source : string; steps : step list }

(* Split on top-level ';' outside string literals. *)
let split_statements src =
  let parts = ref [] in
  let buf = Buffer.create 64 in
  let in_string = ref false in
  String.iter
    (fun c ->
      if c = '\'' then begin
        in_string := not !in_string;
        Buffer.add_char buf c
      end
      else if c = ';' && not !in_string then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    src;
  parts := Buffer.contents buf :: !parts;
  List.rev !parts
  |> List.map String.trim
  |> List.filter (fun s -> not (String.equal s ""))

let starts_with_word word s =
  let n = String.length word in
  String.length s > n
  && String.uppercase_ascii (String.sub s 0 n) = word
  && (s.[n] = ' ' || s.[n] = '\t' || s.[n] = '\n')

let parse_let text =
  (* LET name = <select> *)
  let rest = String.trim (String.sub text 3 (String.length text - 3)) in
  match String.index_opt rest '=' with
  | None -> Error "LET: missing '='"
  | Some i ->
      let name = String.trim (String.sub rest 0 i) in
      let body = String.trim (String.sub rest (i + 1) (String.length rest - i - 1)) in
      if name = "" || not (String.for_all (fun c -> c = '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) (String.lowercase_ascii name))
      then Error (Printf.sprintf "LET: bad local name %S" name)
      else
        match Parser.parse body with
        | Error e -> Error e
        | Ok (Ast.Select _ as stmt) -> Ok (Let (String.lowercase_ascii name, stmt))
        | Ok _ -> Error "LET requires a SELECT"

(* Find the first occurrence of [ word ] (space-delimited, uppercase
   match) outside string literals. *)
let find_keyword text word =
  let target = " " ^ word ^ " " in
  let n = String.length text and m = String.length target in
  let rec loop i in_string =
    if i >= n then None
    else if text.[i] = '\'' then loop (i + 1) (not in_string)
    else if
      (not in_string)
      && i + m <= n
      && String.uppercase_ascii (String.sub text i m) = target
    then Some i
    else loop (i + 1) in_string
  in
  loop 0 false

let rec parse_step text =
  if starts_with_word "LET" text then parse_let text
  else if starts_with_word "REQUIRE" text then
    let body = String.trim (String.sub text 7 (String.length text - 7)) in
    match Parser.parse_expr body with
    | Error e -> Error e
    | Ok e -> Ok (Require e)
  else if starts_with_word "IF" text then parse_if text
  else
    match Parser.parse text with
    | Error e -> Error e
    | Ok stmt -> Ok (Run stmt)

and parse_if text =
  (* IF <expr> THEN <step> [ELSE <step>] *)
  match find_keyword text "THEN" with
  | None -> Error "IF: missing THEN"
  | Some i -> (
      let cond_text = String.trim (String.sub text 2 (i - 2)) in
      let rest = String.sub text (i + 6) (String.length text - i - 6) in
      match Parser.parse_expr cond_text with
      | Error e -> Error ("IF condition: " ^ e)
      | Ok cond -> (
          let then_text, else_text =
            match find_keyword rest "ELSE" with
            | None -> (String.trim rest, None)
            | Some j ->
                ( String.trim (String.sub rest 0 j),
                  Some
                    (String.trim
                       (String.sub rest (j + 6) (String.length rest - j - 6))) )
          in
          match parse_step then_text with
          | Error e -> Error ("IF/THEN: " ^ e)
          | Ok then_step -> (
              match else_text with
              | None -> Ok (If (cond, then_step, None))
              | Some et -> (
                  match parse_step et with
                  | Error e -> Error ("IF/ELSE: " ^ e)
                  | Ok else_step -> Ok (If (cond, then_step, Some else_step))))))

let parse source =
  let rec loop acc = function
    | [] -> Ok { source; steps = List.rev acc }
    | text :: rest -> (
        match parse_step text with
        | Error e -> Error (Printf.sprintf "in %S: %s" text e)
        | Ok step -> loop (step :: acc) rest)
  in
  match split_statements source with
  | [] -> Error "empty contract"
  | steps -> loop [] steps

let run t (ctx : Api.t) =
  let exec_stmt stmt =
    match
      Brdb_engine.Exec.execute ctx.Api.catalog ctx.Api.txn ~params:ctx.Api.args
        ~named:ctx.Api.locals ~mode:ctx.Api.mode stmt
    with
    | Ok rs -> rs
    | Error e -> raise (Api.Failed e)
  in
  let eval_expr expr =
    let eval_ctx =
      { Brdb_engine.Eval.params = ctx.Api.args; named = ctx.Api.locals; subquery = None }
    in
    match Brdb_engine.Eval.eval_bool eval_ctx expr with
    | v -> v
    | exception Brdb_engine.Eval.Error msg -> Api.fail msg
  in
  let rec run_step step =
    match step with
    | Run stmt -> ignore (exec_stmt stmt)
    | Let (name, stmt) ->
        let rs = exec_stmt stmt in
        let v =
          match rs.Brdb_engine.Exec.rows with
          | [] -> Brdb_storage.Value.Null
          | row :: _ -> row.(0)
        in
        Api.set_local ctx name v
    | Require expr -> (
        match eval_expr expr with
        | Some true -> ()
        | _ ->
            Api.fail
              (Printf.sprintf "requirement failed: %s" (Ast.expr_to_string expr)))
    | If (cond, then_step, else_step) -> (
        match eval_expr cond with
        | Some true -> run_step then_step
        | _ -> Option.iter run_step else_step)
  in
  List.iter run_step t.steps
