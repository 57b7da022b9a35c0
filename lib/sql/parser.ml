open Ast

exception Parse_error of string

type state = { mutable toks : Lexer.token list }

let error fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let peek st = match st.toks with [] -> Lexer.Eof | t :: _ -> t

let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> Lexer.Eof

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let expect_kw st kw =
  match next st with
  | Lexer.Keyword k when k = kw -> ()
  | t -> error "expected %s, found %s" kw (Lexer.token_to_string t)

let expect_sym st sym =
  match next st with
  | Lexer.Sym s when s = sym -> ()
  | t -> error "expected %s, found %s" sym (Lexer.token_to_string t)

let accept_kw st kw =
  match peek st with
  | Lexer.Keyword k when k = kw ->
      advance st;
      true
  | _ -> false

let accept_sym st sym =
  match peek st with
  | Lexer.Sym s when s = sym ->
      advance st;
      true
  | _ -> false

let ident st =
  match next st with
  | Lexer.Ident name -> name
  | t -> error "expected identifier, found %s" (Lexer.token_to_string t)

let int_lit st =
  match next st with
  | Lexer.Int_lit i -> i
  | t -> error "expected integer, found %s" (Lexer.token_to_string t)

(* A table name: a plain identifier, or a schema-qualified [sys.blocks]
   style dotted pair (kept as a single dotted string — the catalog treats
   the dotted form as an opaque name). *)
let table_name st =
  let n = ident st in
  if accept_sym st "." then n ^ "." ^ ident st else n

(* --- expressions ------------------------------------------------------ *)

(* forward reference to the statement parser for scalar subqueries *)
let parse_select_ref : (state -> Ast.stmt) ref =
  ref (fun _ -> error "subqueries not initialised")

let agg_of_keyword = function
  | "COUNT" -> Some Count
  | "SUM" -> Some Sum
  | "AVG" -> Some Avg
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | _ -> None

let rec parse_or st =
  let lhs = parse_and st in
  if accept_kw st "OR" then Binop (Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept_kw st "AND" then Binop (And, lhs, parse_and st) else lhs

and parse_not st =
  if accept_kw st "NOT" then Unop (Not, parse_not st) else parse_cmp st

and parse_cmp st =
  let lhs = parse_add st in
  match peek st with
  | Lexer.Sym (("=" | "<>" | "<" | "<=" | ">" | ">=") as s) ->
      advance st;
      let rhs = parse_add st in
      let op =
        match s with
        | "=" -> Eq
        | "<>" -> Neq
        | "<" -> Lt
        | "<=" -> Le
        | ">" -> Gt
        | _ -> Ge
      in
      Binop (op, lhs, rhs)
  | Lexer.Keyword "IS" ->
      advance st;
      let negated = accept_kw st "NOT" in
      expect_kw st "NULL";
      Is_null (lhs, not negated)
  | Lexer.Keyword "BETWEEN" ->
      advance st;
      let lo = parse_add st in
      expect_kw st "AND";
      let hi = parse_add st in
      Between (lhs, lo, hi)
  | Lexer.Keyword "NOT" when peek2 st = Lexer.Keyword "BETWEEN" ->
      advance st;
      advance st;
      let lo = parse_add st in
      expect_kw st "AND";
      let hi = parse_add st in
      Unop (Not, Between (lhs, lo, hi))
  | Lexer.Keyword "IN" ->
      advance st;
      parse_in_rhs st lhs
  | Lexer.Keyword "NOT" when peek2 st = Lexer.Keyword "IN" ->
      advance st;
      advance st;
      Unop (Not, parse_in_rhs st lhs)
  | _ -> lhs

and parse_in_rhs st lhs =
  expect_sym st "(";
  if peek st = Lexer.Keyword "SELECT" then begin
    let stmt = !parse_select_ref st in
    expect_sym st ")";
    match stmt with Select sel -> In_select (lhs, sel) | _ -> assert false
  end
  else begin
    let rec items acc =
      let e = parse_or st in
      if accept_sym st "," then items (e :: acc) else List.rev (e :: acc)
    in
    let es = items [] in
    expect_sym st ")";
    In_list (lhs, es)
  end

and parse_add st =
  let rec loop lhs =
    match peek st with
    | Lexer.Sym "+" ->
        advance st;
        loop (Binop (Add, lhs, parse_mul st))
    | Lexer.Sym "-" ->
        advance st;
        loop (Binop (Sub, lhs, parse_mul st))
    | Lexer.Sym "||" ->
        advance st;
        loop (Binop (Concat, lhs, parse_mul st))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match peek st with
    | Lexer.Sym "*" ->
        advance st;
        loop (Binop (Mul, lhs, parse_unary st))
    | Lexer.Sym "/" ->
        advance st;
        loop (Binop (Div, lhs, parse_unary st))
    | Lexer.Sym "%" ->
        advance st;
        loop (Binop (Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  if accept_sym st "-" then Unop (Neg, parse_unary st) else parse_primary st

and parse_primary st =
  match next st with
  | Lexer.Int_lit i -> Lit (L_int i)
  | Lexer.Float_lit f -> Lit (L_float f)
  | Lexer.String_lit s -> Lit (L_text s)
  | Lexer.Param n ->
      if n < 1 then error "parameter index must be >= 1";
      Param n
  | Lexer.Named_param name -> Named_param name
  | Lexer.Keyword "EXISTS" ->
      expect_sym st "(";
      let stmt = !parse_select_ref st in
      expect_sym st ")";
      (match stmt with Select sel -> Exists sel | _ -> assert false)
  | Lexer.Keyword "NULL" -> Lit L_null
  | Lexer.Keyword "TRUE" -> Lit (L_bool true)
  | Lexer.Keyword "FALSE" -> Lit (L_bool false)
  | Lexer.Keyword kw when agg_of_keyword kw <> None ->
      let kind = Option.get (agg_of_keyword kw) in
      expect_sym st "(";
      if kind = Count && accept_sym st "*" then begin
        expect_sym st ")";
        Agg (Count_star, None)
      end
      else begin
        let distinct = accept_kw st "DISTINCT" in
        if distinct && kind <> Count then
          error "DISTINCT is only supported inside COUNT";
        let e = parse_or st in
        expect_sym st ")";
        Agg ((if distinct then Count_distinct else kind), Some e)
      end
  | Lexer.Sym "(" ->
      if peek st = Lexer.Keyword "SELECT" then begin
        let stmt = !parse_select_ref st in
        expect_sym st ")";
        match stmt with Select sel -> Subquery sel | _ -> assert false
      end
      else begin
        let e = parse_or st in
        expect_sym st ")";
        e
      end
  | Lexer.Ident name -> (
      match peek st with
      | Lexer.Sym "(" ->
          advance st;
          if accept_sym st ")" then Call (name, [])
          else
            let rec args acc =
              let e = parse_or st in
              if accept_sym st "," then args (e :: acc) else List.rev (e :: acc)
            in
            let es = args [] in
            expect_sym st ")";
            Call (name, es)
      | Lexer.Sym "." ->
          advance st;
          let col = ident st in
          Col (Some name, col)
      | _ -> Col (None, name))
  | t -> error "unexpected token %s in expression" (Lexer.token_to_string t)

(* --- statements ------------------------------------------------------- *)

let parse_data_type st =
  match next st with
  | Lexer.Keyword ("INT" | "INTEGER" | "BIGINT") -> T_int
  | Lexer.Keyword ("FLOAT" | "REAL" | "DOUBLE") -> T_float
  | Lexer.Keyword ("TEXT" | "VARCHAR") ->
      (* Accept and ignore VARCHAR(n) length. *)
      if accept_sym st "(" then begin
        ignore (int_lit st);
        expect_sym st ")"
      end;
      T_text
  | Lexer.Keyword ("BOOL" | "BOOLEAN") -> T_bool
  | t -> error "expected data type, found %s" (Lexer.token_to_string t)

let parse_column_def st =
  let c_name = ident st in
  let c_type = parse_data_type st in
  let rec flags pk nn =
    if accept_kw st "PRIMARY" then begin
      expect_kw st "KEY";
      flags true nn
    end
    else if accept_kw st "NOT" then begin
      expect_kw st "NULL";
      flags pk true
    end
    else (pk, nn)
  in
  let c_primary_key, c_not_null = flags false false in
  { c_name; c_type; c_primary_key; c_not_null }

let parse_create st =
  expect_kw st "CREATE";
  let unique = accept_kw st "UNIQUE" in
  if accept_kw st "TABLE" then begin
    if unique then error "UNIQUE applies to indexes, not tables";
    let if_not_exists =
      accept_kw st "IF"
      && begin
           expect_kw st "NOT";
           expect_kw st "EXISTS";
           true
         end
    in
    let t_name = table_name st in
    expect_sym st "(";
    let rec cols acc =
      let c = parse_column_def st in
      if accept_sym st "," then cols (c :: acc) else List.rev (c :: acc)
    in
    let t_cols = cols [] in
    expect_sym st ")";
    Create_table { t_name; t_cols; if_not_exists }
  end
  else begin
    expect_kw st "INDEX";
    let i_name = ident st in
    expect_kw st "ON";
    let i_table = table_name st in
    expect_sym st "(";
    let i_column = ident st in
    expect_sym st ")";
    Create_index { i_name; i_table; i_column; i_unique = unique }
  end

let parse_drop st =
  expect_kw st "DROP";
  expect_kw st "TABLE";
  let if_exists =
    accept_kw st "IF"
    && begin
         expect_kw st "EXISTS";
         true
       end
  in
  Drop_table { d_name = table_name st; if_exists }

let parse_insert st =
  expect_kw st "INSERT";
  expect_kw st "INTO";
  let ins_table = table_name st in
  let ins_cols =
    if accept_sym st "(" then begin
      let rec cols acc =
        let c = ident st in
        if accept_sym st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      let cs = cols [] in
      expect_sym st ")";
      Some cs
    end
    else None
  in
  expect_kw st "VALUES";
  let parse_row () =
    expect_sym st "(";
    let rec vals acc =
      let e = parse_or st in
      if accept_sym st "," then vals (e :: acc) else List.rev (e :: acc)
    in
    let r = vals [] in
    expect_sym st ")";
    r
  in
  let rec rows acc =
    let r = parse_row () in
    if accept_sym st "," then rows (r :: acc) else List.rev (r :: acc)
  in
  Insert { ins_table; ins_cols; ins_rows = rows [] }

let parse_update st =
  expect_kw st "UPDATE";
  let upd_table = table_name st in
  expect_kw st "SET";
  let rec sets acc =
    let c = ident st in
    expect_sym st "=";
    let e = parse_or st in
    if accept_sym st "," then sets ((c, e) :: acc) else List.rev ((c, e) :: acc)
  in
  let upd_sets = sets [] in
  let upd_where = if accept_kw st "WHERE" then Some (parse_or st) else None in
  Update { upd_table; upd_sets; upd_where }

let parse_delete st =
  expect_kw st "DELETE";
  expect_kw st "FROM";
  let del_table = table_name st in
  let del_where = if accept_kw st "WHERE" then Some (parse_or st) else None in
  Delete { del_table; del_where }

let parse_table_ref st =
  let table = table_name st in
  let alias =
    if accept_kw st "AS" then Some (ident st)
    else
      match peek st with
      | Lexer.Ident a ->
          advance st;
          Some a
      | _ -> None
  in
  { table; alias }

let parse_select ?(provenance = false) st =
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let parse_item () =
    if accept_sym st "*" then Star
    else
      let e = parse_or st in
      let alias =
        if accept_kw st "AS" then Some (ident st)
        else
          match peek st with
          | Lexer.Ident a ->
              advance st;
              Some a
          | _ -> None
      in
      Sel_expr (e, alias)
  in
  let rec items acc =
    let it = parse_item () in
    if accept_sym st "," then items (it :: acc) else List.rev (it :: acc)
  in
  let items = items [] in
  let from, joins =
    if accept_kw st "FROM" then begin
      let t = parse_table_ref st in
      let rec joins acc =
        let kind =
          if accept_kw st "INNER" then Some J_inner
          else if accept_kw st "LEFT" then begin
            ignore (accept_kw st "OUTER");
            Some J_left
          end
          else if peek st = Lexer.Keyword "JOIN" then Some J_inner
          else None
        in
        match kind with
        | None -> List.rev acc
        | Some j_kind ->
            expect_kw st "JOIN";
            let j_table = parse_table_ref st in
            expect_kw st "ON";
            let j_on = parse_or st in
            joins ({ j_kind; j_table; j_on } :: acc)
      in
      (Some t, joins [])
    end
    else (None, [])
  in
  let where = if accept_kw st "WHERE" then Some (parse_or st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let rec keys acc =
        let e = parse_or st in
        if accept_sym st "," then keys (e :: acc) else List.rev (e :: acc)
      in
      keys []
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_or st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let rec keys acc =
        let e = parse_or st in
        let asc = if accept_kw st "DESC" then false else (ignore (accept_kw st "ASC"); true) in
        if accept_sym st "," then keys ({ o_expr = e; o_asc = asc } :: acc)
        else List.rev ({ o_expr = e; o_asc = asc } :: acc)
      in
      keys []
    end
    else []
  in
  let limit = if accept_kw st "LIMIT" then Some (int_lit st) else None in
  Select
    { distinct; items; from; joins; where; group_by; having; order_by; limit; provenance }

let () = parse_select_ref := fun st -> parse_select st

let parse_stmt st =
  match peek st with
  | Lexer.Keyword "SELECT" -> parse_select st
  | Lexer.Keyword "PROVENANCE" ->
      advance st;
      parse_select ~provenance:true st
  | Lexer.Keyword "INSERT" -> parse_insert st
  | Lexer.Keyword "UPDATE" -> parse_update st
  | Lexer.Keyword "DELETE" -> parse_delete st
  | Lexer.Keyword "CREATE" -> parse_create st
  | Lexer.Keyword "DROP" -> parse_drop st
  | t -> error "expected a statement, found %s" (Lexer.token_to_string t)

let with_tokens input f =
  match Lexer.tokenize input with
  | Error msg -> Error ("lex error: " ^ msg)
  | Ok toks -> (
      let st = { toks } in
      match f st with
      | v -> v
      | exception Parse_error msg -> Error ("parse error: " ^ msg))

let parse input =
  with_tokens input (fun st ->
      let s = parse_stmt st in
      ignore (accept_sym st ";");
      match peek st with
      | Lexer.Eof -> Ok s
      | t -> error "trailing input: %s" (Lexer.token_to_string t))

let parse_expr input =
  with_tokens input (fun st ->
      let e = parse_or st in
      match peek st with
      | Lexer.Eof -> Ok e
      | t -> error "trailing input: %s" (Lexer.token_to_string t))
