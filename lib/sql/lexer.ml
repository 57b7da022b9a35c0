type token =
  | Ident of string
  | Keyword of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Param of int
  | Named_param of string
  | Sym of string
  | Eof

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "ASC"; "DESC";
    "LIMIT"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE"; "CREATE";
    "TABLE"; "INDEX"; "UNIQUE"; "ON"; "JOIN"; "INNER"; "LEFT"; "OUTER"; "AS"; "AND"; "OR";
    "NOT"; "NULL"; "TRUE"; "FALSE"; "IS"; "IN"; "BETWEEN"; "PRIMARY"; "KEY";
    "IF"; "EXISTS"; "DROP"; "PROVENANCE"; "INT"; "INTEGER"; "BIGINT"; "FLOAT";
    "REAL"; "DOUBLE"; "TEXT"; "VARCHAR"; "BOOL"; "BOOLEAN"; "COUNT"; "SUM";
    "AVG"; "MIN"; "MAX"; "DISTINCT"; "INTO";
  ]

let keyword_set =
  let h = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace h k ()) keywords;
  h

let token_to_string = function
  | Ident s -> s
  | Keyword s -> s
  | Int_lit i -> string_of_int i
  | Float_lit f -> Printf.sprintf "%g" f
  | String_lit s -> Ast.sql_quote s
  | Param n -> "$" ^ string_of_int n
  | Named_param n -> ":" ^ n
  | Sym s -> s
  | Eof -> "<eof>"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

exception Lex_error of string

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let rec skip_ws i =
    if i >= n then i
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip_ws (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '-' ->
          (* line comment *)
          let rec eol j = if j >= n || input.[j] = '\n' then j else eol (j + 1) in
          skip_ws (eol (i + 2))
      | _ -> i
  in
  let lex_word i =
    let rec stop j = if j < n && is_ident_char input.[j] then stop (j + 1) else j in
    let j = stop i in
    let word = String.sub input i (j - i) in
    let upper = String.uppercase_ascii word in
    if Hashtbl.mem keyword_set upper then emit (Keyword upper)
    else emit (Ident (String.lowercase_ascii word));
    j
  in
  let int_at i digits =
    match int_of_string digits with
    | v -> v
    | exception Failure _ ->
        raise (Lex_error (Printf.sprintf "integer literal out of range at %d" i))
  in
  let lex_number i =
    let rec stop j = if j < n && is_digit input.[j] then stop (j + 1) else j in
    let j = stop i in
    if j < n && input.[j] = '.' && j + 1 < n && is_digit input.[j + 1] then begin
      let j' = stop (j + 1) in
      emit (Float_lit (float_of_string (String.sub input i (j' - i))));
      j'
    end
    else begin
      emit (Int_lit (int_at i (String.sub input i (j - i))));
      j
    end
  in
  let lex_string i =
    (* i points at the opening quote *)
    let b = Buffer.create 16 in
    let rec loop j =
      if j >= n then raise (Lex_error (Printf.sprintf "unterminated string at %d" i))
      else if input.[j] = '\'' then
        if j + 1 < n && input.[j + 1] = '\'' then begin
          Buffer.add_char b '\'';
          loop (j + 2)
        end
        else begin
          emit (String_lit (Buffer.contents b));
          j + 1
        end
      else begin
        Buffer.add_char b input.[j];
        loop (j + 1)
      end
    in
    loop (i + 1)
  in
  let lex_named_param i =
    let rec stop j = if j < n && is_ident_char input.[j] then stop (j + 1) else j in
    let j = stop (i + 1) in
    if j = i + 1 then raise (Lex_error (Printf.sprintf "bad named parameter at %d" i));
    emit (Named_param (String.lowercase_ascii (String.sub input (i + 1) (j - i - 1))));
    j
  in
  let lex_param i =
    let rec stop j = if j < n && is_digit input.[j] then stop (j + 1) else j in
    let j = stop (i + 1) in
    if j = i + 1 then raise (Lex_error (Printf.sprintf "bad parameter at %d" i));
    emit (Param (int_at i (String.sub input (i + 1) (j - i - 1))));
    j
  in
  let two_char_syms = [ "<="; ">="; "<>"; "!="; "||" ] in
  let one_char_syms = "()+-*/%,;=<>." in
  let rec loop i =
    let i = skip_ws i in
    if i >= n then emit Eof
    else
      let c = input.[i] in
      if is_ident_start c then loop (lex_word i)
      else if is_digit c then loop (lex_number i)
      else if c = '\'' then loop (lex_string i)
      else if c = '$' then loop (lex_param i)
      else if c = ':' then loop (lex_named_param i)
      else if
        i + 1 < n && List.mem (String.sub input i 2) two_char_syms
      then begin
        let s = String.sub input i 2 in
        emit (Sym (if s = "!=" then "<>" else s));
        loop (i + 2)
      end
      else if String.contains one_char_syms c then begin
        emit (Sym (String.make 1 c));
        loop (i + 1)
      end
      else raise (Lex_error (Printf.sprintf "unexpected character %C at %d" c i))
  in
  match loop 0 with
  | () -> Ok (List.rev !tokens)
  | exception Lex_error msg -> Error msg
