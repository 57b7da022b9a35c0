open Brdb_storage
open Brdb_sql.Ast

exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* A compiled expression that fails only when it is evaluated. *)
let raising msg = fun _ -> raise (Error msg)

(* --- layouts and frames ---------------------------------------------------- *)

type slot = {
  alias : string;
  schema : Schema.t;
  provenance : bool;
  null_row : Version.t;
}

let slot ~alias ~schema ~provenance =
  {
    alias;
    schema;
    provenance;
    null_row = Version.make ~vid:(-1) ~xmin:0 (Array.make (Schema.arity schema) Value.Null);
  }

type layout = { slots : slot array; scope_start : int }

let root = { slots = [||]; scope_start = 0 }

let extend layout s = { layout with slots = Array.append layout.slots [| s |] }

let enter layout = { layout with scope_start = Array.length layout.slots }

type frame = Version.t array

(* --- name resolution ------------------------------------------------------- *)

let pseudo_columns = [ "xmin"; "xmax"; "creator"; "deleter" ]

type access = Column of int | Pseudo of string

type resolution = Found of int * access | Unresolved of string

let slot_access s name =
  match Schema.column_index s.schema name with
  | Some i -> Some (Column i)
  | None ->
      if s.provenance && List.mem name pseudo_columns then Some (Pseudo name)
      else None

(* Name resolution is scoped for correlated subqueries: the innermost
   query's own slots are consulted first; only if the name is absent there
   does resolution fall back to the outer context, where the innermost
   (last) outer slot wins. Ambiguity is an error only within the current
   scope. A qualified name picks the last slot with that alias. *)
let resolve layout qualifier name =
  let slots = layout.slots and start = layout.scope_start in
  let rec last p i lo =
    if i < lo then None else if p slots.(i) then Some i else last p (i - 1) lo
  in
  let n = Array.length slots in
  let found i =
    match slot_access slots.(i) name with Some a -> Found (i, a) | None -> assert false
  in
  match qualifier with
  | Some q -> (
      let is_q s = String.equal s.alias q in
      let pick =
        match last is_q (n - 1) start with
        | Some i -> Some i
        | None -> last is_q (start - 1) 0
      in
      match pick with
      | None -> Unresolved (Printf.sprintf "unknown table or alias %s" q)
      | Some i -> (
          match slot_access slots.(i) name with
          | Some a -> Found (i, a)
          | None -> Unresolved (Printf.sprintf "unknown column %s.%s" q name)))
  | None -> (
      let has s = slot_access s name <> None in
      match last has (n - 1) start with
      | Some i ->
          if last has (i - 1) start <> None then
            Unresolved (Printf.sprintf "ambiguous column %s" name)
          else found i
      | None -> (
          match last has (start - 1) 0 with
          | Some i -> found i
          | None -> Unresolved (Printf.sprintf "unknown column %s" name)))

(* A null-extended row (outer join) reads NULL for every pseudo-column. *)
let pseudo_reader s i name =
  let read : Version.t -> Value.t =
    match name with
    | "xmin" -> fun v -> Value.Int v.Version.xmin
    | "xmax" -> fun v -> if v.Version.xmax = 0 then Value.Null else Value.Int v.Version.xmax
    | "creator" ->
        fun v ->
          if v.Version.creator_block = Version.unset_block then Value.Null
          else Value.Int v.Version.creator_block
    | _ ->
        fun v ->
          if v.Version.deleter_block = Version.unset_block then Value.Null
          else Value.Int v.Version.deleter_block
  in
  let null_row = s.null_row in
  fun (f : frame) ->
    let v = f.(i) in
    if v == null_row then Value.Null else read v

let reader s i = function
  | Column c -> fun (f : frame) -> f.(i).Version.values.(c)
  | Pseudo p -> pseudo_reader s i p

let column layout qualifier name =
  match resolve layout qualifier name with
  | Found (i, a) -> reader layout.slots.(i) i a
  | Unresolved msg -> raising msg

let has_aggregate e =
  let found = ref false in
  iter_expr (function Agg _ -> found := true | _ -> ()) e;
  !found

(* --- value operations ------------------------------------------------------- *)

let v_true = Value.Bool true

let v_false = Value.Bool false

let of_bool b = if b then v_true else v_false

let as_number = function
  | Value.Int i -> `I i
  | Value.Float f -> `F f
  | v -> error "expected a number, got %s" (Value.to_string v)

let arith op a b =
  match (a, b, op) with
  | Value.Null, _, _ | _, Value.Null, _ -> Value.Null
  | Value.Int x, Value.Int y, Add -> Value.Int (x + y)
  | Value.Int x, Value.Int y, Sub -> Value.Int (x - y)
  | Value.Int x, Value.Int y, Mul -> Value.Int (x * y)
  | _ -> (
      match (as_number a, as_number b, op) with
      | `I x, `I y, Div ->
          if y = 0 then error "division by zero" else Value.Int (x / y)
      | `I x, `I y, Mod ->
          if y = 0 then error "modulo by zero" else Value.Int (x mod y)
      | (`F _ | `I _), (`F _ | `I _), Mod -> error "modulo requires integers"
      | nx, ny, _ ->
          let f = function `I i -> float_of_int i | `F f -> f in
          let x = f nx and y = f ny in
          let r =
            match op with
            | Add -> x +. y
            | Sub -> x -. y
            | Mul -> x *. y
            | Div -> if y = 0. then error "division by zero" else x /. y
            | _ -> assert false
          in
          Value.Float r)

let compare_test op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | _ -> assert false

let compare_op op a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> of_bool (compare_test op (Int.compare x y))
  | _ -> (
      match Value.compare_sql a b with
      | None ->
          if Value.is_null a || Value.is_null b then Value.Null
          else
            error "cannot compare %s with %s" (Value.to_string a) (Value.to_string b)
      | Some c -> of_bool (compare_test op c))

(* A boolean or NULL, else a type error. *)
let bool_value = function
  | (Value.Null | Value.Bool _) as v -> v
  | v -> error "expected a boolean, got %s" (Value.to_string v)

let as_bool3 v = match bool_value v with Value.Bool b -> Some b | _ -> None

let text_of = function
  | Value.Null -> None
  | v -> Some (Value.to_string v)

(* Kleene AND/OR once the left operand (a checked boolean or NULL) has not
   decided alone. *)
let and_rest a b =
  match bool_value b with
  | Value.Bool false -> v_false
  | b -> ( match a with Value.Null -> Value.Null | _ -> b)

let or_rest a b =
  match bool_value b with
  | Value.Bool true -> v_true
  | b -> ( match a with Value.Null -> Value.Null | _ -> b)

(* A binary operator over two evaluated operands. AND/OR here do not
   short-circuit evaluation (both operands are already values), only the
   type checks, as for literal operands. *)
let binop_values op av bv =
  match op with
  | And -> ( match bool_value av with Value.Bool false -> v_false | a -> and_rest a bv)
  | Or -> ( match bool_value av with Value.Bool true -> v_true | a -> or_rest a bv)
  | Concat -> (
      match (text_of av, text_of bv) with
      | Some x, Some y -> Value.Text (x ^ y)
      | _ -> Value.Null)
  | Add | Sub | Mul | Div | Mod -> arith op av bv
  | Eq | Neq | Lt | Le | Gt | Ge -> compare_op op av bv

let unop_value op v =
  match op with
  | Neg -> (
      match v with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> error "cannot negate %s" (Value.to_string v))
  | Not -> ( match bool_value v with Value.Bool b -> of_bool (not b) | _ -> Value.Null)

(* [xv IN items] for a non-NULL [xv]: items are evaluated by [get] in
   order, stopping at the first match. *)
let in_items get xv items =
  let rec loop unknown = function
    | [] -> if unknown then Value.Null else v_false
    | item :: rest -> (
        match compare_op Eq xv (get item) with
        | Value.Bool true -> v_true
        | Value.Null -> loop true rest
        | _ -> loop unknown rest)
  in
  loop false items

(* --- scalar functions --------------------------------------------------- *)

let call_function name args =
  match (name, args) with
  | "abs", [ Value.Null ] -> Value.Null
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "coalesce", args -> (
      match List.find_opt (fun v -> not (Value.is_null v)) args with
      | Some v -> v
      | None -> Value.Null)
  | "length", [ Value.Null ] -> Value.Null
  | "length", [ Value.Text s ] -> Value.Int (String.length s)
  | "lower", [ Value.Null ] -> Value.Null
  | "lower", [ Value.Text s ] -> Value.Text (String.lowercase_ascii s)
  | "upper", [ Value.Null ] -> Value.Null
  | "upper", [ Value.Text s ] -> Value.Text (String.uppercase_ascii s)
  | "nullif", [ a; b ] -> if Value.equal a b then Value.Null else a
  | "greatest", (_ :: _ as args) ->
      if List.exists Value.is_null args then Value.Null
      else List.fold_left (fun acc v -> if Value.compare_total v acc > 0 then v else acc)
             (List.hd args) args
  | "least", (_ :: _ as args) ->
      if List.exists Value.is_null args then Value.Null
      else List.fold_left (fun acc v -> if Value.compare_total v acc < 0 then v else acc)
             (List.hd args) args
  | ("cast_text" | "to_text"), [ v ] -> (
      match text_of v with None -> Value.Null | Some s -> Value.Text s)
  | "to_int", [ v ] -> (
      match v with
      | Value.Null -> Value.Null
      | Value.Int _ -> v
      | Value.Float f -> Value.Int (int_of_float f)
      | Value.Bool b -> Value.Int (if b then 1 else 0)
      | Value.Text s -> (
          match int_of_string_opt (String.trim s) with
          | Some i -> Value.Int i
          | None -> error "cannot convert %S to int" s))
  | "to_float", [ v ] -> (
      match v with
      | Value.Null -> Value.Null
      | Value.Float _ -> v
      | Value.Int i -> Value.Float (float_of_int i)
      | Value.Text s -> (
          match float_of_string_opt (String.trim s) with
          | Some f -> Value.Float f
          | None -> error "cannot convert %S to float" s)
      | Value.Bool _ -> error "cannot convert bool to float")
  | ("abs" | "length" | "lower" | "upper" | "nullif"), _ ->
      error "wrong arguments for %s" name
  | _ -> error "unknown function %s" name

(* --- compilation ------------------------------------------------------------ *)

type subquery = {
  rows : frame -> Value.t array list;
  probe : (frame -> Value.t -> Value.t option) option;
}

type ctx = {
  params : Value.t array;
  named : (string * Value.t) list;
  subquery : (select -> layout -> subquery) option;
}

(* The subquery runner, obtained from the executor when the node is first
   evaluated (so a subquery that never runs is never planned). *)
let subquery ctx layout sel =
  lazy
    (match ctx.subquery with
    | Some get -> get sel layout
    | None -> raise (Error "subqueries are not available in this context"))

let scalar_rows = function
  | [] -> Value.Null
  | [ row ] ->
      if Array.length row <> 1 then error "scalar subquery must return one column"
      else row.(0)
  | _ -> error "scalar subquery returned more than one row"

(* [xv IN (SELECT ...)] for a non-NULL [xv]: the executor's membership probe
   when it has one for this value, else a walk over the rows. *)
let in_select sq xv (f : frame) =
  let sq = Lazy.force sq in
  let fast = match sq.probe with None -> None | Some get -> get f xv in
  match fast with
  | Some v -> v
  | None ->
      let column (row : Value.t array) =
        if Array.length row <> 1 then error "IN subquery must return one column"
        else row.(0)
      in
      in_items column xv (sq.rows f)

let rec compile ctx layout e : frame -> Value.t =
  match e with
  | Lit l ->
      let v = Value.of_lit l in
      fun _ -> v
  | Col (q, name) -> column layout q name
  | Param n ->
      if n < 1 || n > Array.length ctx.params then
        raising (Printf.sprintf "parameter $%d not supplied" n)
      else
        let v = ctx.params.(n - 1) in
        fun _ -> v
  | Named_param name -> (
      match List.assoc_opt name ctx.named with
      | Some v -> fun _ -> v
      | None -> raising (Printf.sprintf "parameter :%s not supplied" name))
  | Binop (And, a, b) ->
      (* Kleene AND with short-circuit on definite false. *)
      let ca = compile ctx layout a and cb = compile ctx layout b in
      fun f ->
        (match bool_value (ca f) with Value.Bool false -> v_false | a -> and_rest a (cb f))
  | Binop (Or, a, b) ->
      let ca = compile ctx layout a and cb = compile ctx layout b in
      fun f ->
        (match bool_value (ca f) with Value.Bool true -> v_true | a -> or_rest a (cb f))
  | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
      let ca = compile ctx layout a and cb = compile ctx layout b in
      fun f -> arith op (ca f) (cb f)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
      let ca = compile ctx layout a and cb = compile ctx layout b in
      fun f -> compare_op op (ca f) (cb f)
  | Binop (Concat, a, b) ->
      let ca = compile ctx layout a and cb = compile ctx layout b in
      fun f -> binop_values Concat (ca f) (cb f)
  | Unop (op, a) ->
      let ca = compile ctx layout a in
      fun f -> unop_value op (ca f)
  | Call (name, args) ->
      let cs = List.map (compile ctx layout) args in
      fun f -> call_function name (List.map (fun c -> c f) cs)
  | Between (x, lo, hi) ->
      compile ctx layout (Binop (And, Binop (Ge, x, lo), Binop (Le, x, hi)))
  | In_list (x, items) ->
      let cx = compile ctx layout x and cs = List.map (compile ctx layout) items in
      fun f ->
        let xv = cx f in
        if Value.is_null xv then Value.Null else in_items (fun c -> c f) xv cs
  | Is_null (a, want_null) ->
      let ca = compile ctx layout a in
      fun f -> of_bool (Value.is_null (ca f) = want_null)
  | Agg _ -> raising "aggregate not allowed in this context"
  | Subquery sel ->
      let sq = subquery ctx layout sel in
      fun f -> scalar_rows ((Lazy.force sq).rows f)
  | Exists sel ->
      let sq = subquery ctx layout sel in
      fun f -> ( match (Lazy.force sq).rows f with [] -> v_false | _ -> v_true)
  | In_select (x, sel) ->
      let cx = compile ctx layout x and sq = subquery ctx layout sel in
      fun f ->
        let xv = cx f in
        if Value.is_null xv then Value.Null else in_select sq xv f

let compile_pred ctx layout e =
  let c = compile ctx layout e in
  fun f -> match bool_value (c f) with Value.Bool b -> b | _ -> false

let eval ctx e = compile ctx root e [||]

let eval_bool ctx e = as_bool3 (eval ctx e)

let compile_star layout ~provenance =
  let per_slot =
    List.init (Array.length layout.slots - layout.scope_start) (fun k ->
        let i = layout.scope_start + k in
        let s = layout.slots.(i) in
        let pseudo =
          if not provenance then []
          else
            List.map
              (fun name ->
                match slot_access s name with
                | Some a -> reader s i a
                | None -> raising (Printf.sprintf "unknown column %s" name))
              pseudo_columns
        in
        fun (f : frame) ->
          Array.to_list f.(i).Version.values @ List.map (fun c -> c f) pseudo)
  in
  fun f -> List.concat_map (fun c -> c f) per_slot

(* --- aggregates --------------------------------------------------------- *)

module VSet = Set.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

(* A float total in a record of floats only, stored flat: adding to it
   allocates nothing. *)
type total = { mutable sum : float }

(* One aggregate call's running state in one group. *)
type acc = {
  mutable ready : bool;  (* every row of the group is folded in *)
  mutable n : int;  (* COUNT( * ): rows; the other kinds: non-NULL values *)
  mutable itotal : int;  (* SUM/AVG: the int total *)
  mutable all_int : bool;  (* SUM/AVG: every value an [Int] *)
  mutable v : Value.t;
      (* MIN/MAX: the best value; SUM/AVG: the first non-numeric value;
         [Null] when there is none *)
  mutable set : VSet.t;  (* COUNT(DISTINCT ...) *)
  mutable failed : exn option;  (* the first error its argument raised *)
  total : total;  (* SUM/AVG: the float total, added in row order *)
}

type spec = { kind : agg_kind; arg : frame -> Value.t; plain : bool }

type group = { g_rep : frame; g_accs : acc array; g_rows : frame list }

type aggregates = {
  a_ctx : ctx;
  a_layout : layout;
  mutable calls : ((agg_kind * expr option) * int) list;
  mutable specs : spec array;
}

let aggregates ctx layout = { a_ctx = ctx; a_layout = layout; calls = []; specs = [||] }

let has_subquery e =
  let found = ref false in
  iter_expr (function Subquery _ | Exists _ | In_select _ -> found := true | _ -> ()) e;
  !found

let streamable aggs = Array.for_all (fun s -> s.plain) aggs.specs

let new_acc ~ready =
  {
    ready;
    n = 0;
    itotal = 0;
    all_int = true;
    v = Value.Null;
    set = VSet.empty;
    failed = None;
    total = { sum = 0. };
  }

let group aggs ~rep =
  { g_rep = rep; g_accs = Array.map (fun _ -> new_acc ~ready:true) aggs.specs; g_rows = [] }

let buffered aggs ~rows ~rep =
  { g_rep = rep; g_accs = Array.map (fun _ -> new_acc ~ready:false) aggs.specs; g_rows = rows }

(* Fold one argument value in. *)
let step kind acc v =
  match v with
  | Value.Null -> ()
  | v -> (
      match kind with
      | Count_star | Count -> acc.n <- acc.n + 1
      | Count_distinct -> acc.set <- VSet.add v acc.set
      | Sum | Avg -> (
          acc.n <- acc.n + 1;
          match v with
          | Value.Int i ->
              acc.itotal <- acc.itotal + i;
              acc.total.sum <- acc.total.sum +. float_of_int i
          | Value.Float f ->
              acc.all_int <- false;
              acc.total.sum <- acc.total.sum +. f
          | v -> (
              acc.all_int <- false;
              match acc.v with Value.Null -> acc.v <- v | _ -> ()))
      | Min -> (
          match acc.v with
          | Value.Null -> acc.v <- v
          | best -> if Value.compare_total v best < 0 then acc.v <- v)
      | Max -> (
          match acc.v with
          | Value.Null -> acc.v <- v
          | best -> if Value.compare_total v best > 0 then acc.v <- v))

let fold aggs g frame =
  let specs = aggs.specs in
  for i = 0 to Array.length specs - 1 do
    let acc = g.g_accs.(i) in
    match acc.failed with
    | Some _ -> ()
    | None -> (
        let s = specs.(i) in
        match s.kind with
        | Count_star -> acc.n <- acc.n + 1
        | kind -> (
            match s.arg frame with
            | v -> step kind acc v
            | exception (Error _ as e) -> acc.failed <- Some e))
  done

(* The aggregate's value over its group. A buffered group folds its rows
   in now, in arrival order, raising the first error an argument raises;
   a streamed one raises the error its fold kept. A SUM/AVG over a
   non-numeric value raises here, naming the first such value. *)
let value aggs g i =
  let s = aggs.specs.(i) and acc = g.g_accs.(i) in
  if not acc.ready then begin
    List.iter
      (fun f ->
        match s.kind with
        | Count_star -> acc.n <- acc.n + 1
        | kind -> step kind acc (s.arg f))
      g.g_rows;
    acc.ready <- true
  end;
  (match acc.failed with Some e -> raise e | None -> ());
  match s.kind with
  | Count_star | Count -> Value.Int acc.n
  | Count_distinct -> Value.Int (VSet.cardinal acc.set)
  | (Sum | Avg) as kind -> (
      if acc.n = 0 then Value.Null
      else
        match kind with
        | Sum when acc.all_int -> Value.Int acc.itotal
        | _ -> (
            (match acc.v with
            | Value.Null -> ()
            | v -> error "cannot aggregate %s" (Value.to_string v));
            match kind with
            | Sum -> Value.Float acc.total.sum
            | _ -> Value.Float (acc.total.sum /. float_of_int acc.n)))
  | Min | Max -> acc.v

(* Each distinct aggregate call gets one accumulator per group: an
   aggregate shared by a select item and ORDER BY (through its output
   alias) or HAVING is folded once. *)
let agg_slot aggs kind arg =
  let key = (kind, arg) in
  match List.assoc_opt key aggs.calls with
  | Some i -> i
  | None ->
      let i = Array.length aggs.specs in
      let spec =
        match arg with
        | None -> { kind; arg = (fun _ -> Value.Null); plain = true }
        | Some e ->
            { kind; arg = compile aggs.a_ctx aggs.a_layout e; plain = not (has_subquery e) }
      in
      aggs.calls <- (key, i) :: aggs.calls;
      aggs.specs <- Array.append aggs.specs [| spec |];
      i

(* [e] per group ['g]: aggregate nodes through [agg], everything else on
   the representative row [rep] returns. *)
let rec compile_over ~agg ~rep ctx layout e : 'g -> Value.t =
  let over = compile_over ~agg ~rep ctx layout in
  match e with
  | Agg (kind, arg) -> agg kind arg
  | Lit _ | Col _ | Param _ | Named_param _ | Subquery _ | Exists _ ->
      let c = compile ctx layout e in
      fun g -> c (rep g)
  | Binop (op, a, b) ->
      let ca = over a and cb = over b in
      fun g ->
        let av = ca g and bv = cb g in
        binop_values op av bv
  | Unop (op, a) ->
      let ca = over a in
      fun g -> unop_value op (ca g)
  | Call (name, args) ->
      let cs = List.map over args in
      fun g -> call_function name (List.map (fun c -> c g) cs)
  | Between (x, lo, hi) -> over (Binop (And, Binop (Ge, x, lo), Binop (Le, x, hi)))
  | In_list (x, items) ->
      let cx = over x and cs = List.map over items in
      let values xv vs = if Value.is_null xv then Value.Null else in_items Fun.id xv vs in
      fun g -> values (cx g) (List.map (fun c -> c g) cs)
  | Is_null (a, want_null) ->
      let ca = over a in
      fun g -> of_bool (Value.is_null (ca g) = want_null)
  | In_select (x, sel) ->
      let cx = over x and sq = subquery ctx layout sel in
      fun g ->
        let xv = cx g in
        if Value.is_null xv then Value.Null else in_select sq xv (rep g)

let compile_grouped aggs e =
  compile_over
    ~agg:(fun kind arg ->
      let i = agg_slot aggs kind arg in
      fun g -> value aggs g i)
    ~rep:(fun g -> g.g_rep)
    aggs.a_ctx aggs.a_layout e

module Testing = struct
  let compile_grouped_with ctx layout ~agg ~rep e = compile_over ~agg ~rep ctx layout e
end
