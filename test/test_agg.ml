(** Streaming aggregation against the materialize-then-group reference
    ({!Agg_ref}), the exact Int/Float order, and the allocation bound of
    the benchmark's group query. *)

open Brdb_storage
module Txn = Brdb_txn.Txn
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec

let strict_mode = { Exec.default_mode with Exec.require_index = true; allow_sys = false }

type fixture = { mgr : Manager.t; catalog : Catalog.t; mutable height : int; mutable n : int }

let make_fixture () =
  let catalog = Catalog.create () in
  { mgr = Manager.create catalog; catalog; height = 0; n = 0 }

let fresh_txn fx =
  fx.n <- fx.n + 1;
  match
    Manager.begin_txn fx.mgr ~global_id:(Printf.sprintf "agg-%d" fx.n) ~client:"test"
      ~snapshot_height:fx.height ()
  with
  | Ok t -> t
  | Error `Duplicate_txid -> failwith "dup txid"

let run fx sql =
  let txn = fresh_txn fx in
  match Exec.execute_sql fx.catalog txn sql with
  | Ok rs ->
      fx.height <- fx.height + 1;
      Manager.commit fx.mgr txn ~height:fx.height;
      rs
  | Error e -> failwith (sql ^ ": " ^ Exec.error_to_string e)

let parse sql =
  match Brdb_sql.Parser.parse sql with Ok s -> s | Error e -> failwith (sql ^ ": " ^ e)

(* --- streaming = materialize-then-group --------------------------------- *)

(* [x] is a FLOAT column that also holds ints, so 1 and 1.0 meet in one
   group; [s] is TEXT, so SUM(s) fails; [g] is NULL in some rows. *)
let x_values = [| "NULL"; "1"; "1.0"; "2"; "2.0"; "2.5"; "-0.0"; "0"; "-4.5" |]

let s_values = [| "NULL"; "'a'"; "'b'"; "'1'" |]

let g_values = [| "NULL"; "0"; "1"; "2" |]

let aggregates =
  [|
    "COUNT(*)"; "COUNT(x)"; "COUNT(DISTINCT x)"; "SUM(x)"; "AVG(x)"; "MIN(x)"; "MAX(x)";
    "SUM(t1.a)"; "AVG(t1.a)"; "SUM(s)"; "MIN(s)"; "MAX(s)"; "COUNT(DISTINCT t1.g)";
    "SUM(t1.a / (t1.a - 2))"; "MAX(x) - MIN(x)"; "SUM(t1.a) + COUNT(*)";
    "SUM((SELECT COUNT(*) FROM t2 WHERE t2.g = t1.g))";
  |]

let froms =
  [|
    "t1";
    "t1 LEFT JOIN t2 ON t2.g = t1.g";
    "t1 JOIN t2 ON t2.k = t1.g";
    "t1 LEFT JOIN t2 ON t2.k = t1.a";
  |]

let wheres =
  [| ""; " WHERE t1.g >= 1"; " WHERE t1.a = 2"; " WHERE t1.a IN (1, 3, 4)"; " WHERE t1.a > 100";
     " WHERE t1.a < 6 / (t1.a - 3)" |]

(* group keys; one fails on the row a = 2, the last reads a subquery *)
let group_bys =
  [| ""; "t1.g"; "x"; "s"; "t1.g, x"; "t1.a % 2"; "t1.g, 6 / (t1.a - 2)";
     "(SELECT MAX(t2.y) FROM t2 WHERE t2.g = t1.g)" |]

let havings = [| ""; " HAVING COUNT(*) > 1"; " HAVING SUM(x) > 2"; " HAVING MAX(t1.a) < 5";
                 " HAVING SUM(s) > 0" |]

type query = {
  q_from : int;
  q_where : int;
  q_group : int;
  q_items : int list;  (* aggregates *)
  q_key_item : bool;  (* the group key as an item *)
  q_having : int;
  q_order : int;  (* 0 none, 1 first item, 2 first item DESC then key *)
  q_limit : int option;
  q_distinct : bool;
  q_strict : bool;
}

let sql_of q =
  let group = group_bys.(q.q_group) in
  let items =
    (if q.q_key_item && group <> "" then [ group ] else [])
    @ List.mapi (fun i a -> Printf.sprintf "%s AS c%d" aggregates.(a) i) q.q_items
  in
  let order =
    match q.q_order with
    | 0 -> ""
    | 1 -> " ORDER BY c0"
    | _ -> " ORDER BY c0 DESC" ^ if group = "" then "" else ", " ^ group
  in
  Printf.sprintf "SELECT %s%s FROM %s%s%s%s%s%s" (if q.q_distinct then "DISTINCT " else "")
    (String.concat ", " items) froms.(q.q_from) wheres.(q.q_where)
    (if group = "" then "" else " GROUP BY " ^ group)
    havings.(q.q_having) order
    (match q.q_limit with None -> "" | Some n -> Printf.sprintf " LIMIT %d" n)

(* Most draws keep rows: the filters that empty the input (a WHERE no
   row passes, a HAVING, LIMIT) and the failing aggregates are the
   minority. *)
let gen_query =
  QCheck.Gen.(
    let pick a = int_bound (Array.length a - 1) in
    let mostly_first a = frequency [ (3, return 0); (2, pick a) ] in
    let* q_from = mostly_first froms and* q_where = mostly_first wheres in
    let* q_group = pick group_bys in
    let* q_items = list_size (int_range 1 3) (pick aggregates) in
    let* q_key_item = bool and* q_having = mostly_first havings in
    let* q_order = int_bound 2 in
    let* q_limit = frequency [ (3, return None); (1, map Option.some (int_range 1 3)) ]
    and* q_distinct = bool in
    let+ q_strict = frequency [ (4, return false); (1, return true) ] in
    { q_from; q_where; q_group; q_items; q_key_item; q_having; q_order; q_limit; q_distinct;
      q_strict })

(* t1 rows (g, x, s) and t2 rows (g, y), as indexes into the value arrays *)
let gen_case =
  QCheck.Gen.(
    let* t1 =
      list_size (frequency [ (1, int_bound 2); (4, int_range 3 12) ])
        (triple (int_bound (Array.length g_values - 1)) (int_bound (Array.length x_values - 1))
           (int_bound (Array.length s_values - 1)))
    in
    let* t2 = list_size (int_bound 5) (pair (int_bound (Array.length g_values - 1)) (int_bound 9)) in
    let+ queries = list_size (int_range 1 6) gen_query in
    (t1, t2, queries))

let load (t1, t2, _) =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE t1 (a INT PRIMARY KEY, g INT, x FLOAT, s TEXT)");
  ignore (run fx "CREATE INDEX t1_g ON t1 (g)");
  ignore (run fx "CREATE TABLE t2 (k INT PRIMARY KEY, g INT, y INT)");
  ignore (run fx "CREATE INDEX t2_g ON t2 (g)");
  List.iteri
    (fun a (g, x, s) ->
      ignore
        (run fx
           (Printf.sprintf "INSERT INTO t1 VALUES (%d, %s, %s, %s)" (a + 1) g_values.(g)
              x_values.(x) s_values.(s))))
    t1;
  List.iteri
    (fun k (g, y) ->
      ignore (run fx (Printf.sprintf "INSERT INTO t2 VALUES (%d, %s, %d)" k g_values.(g) y)))
    t2;
  fx

(* Everything a statement leaves behind: its result or error, the read
   sets (and which tables have one, in order), the predicates in order,
   and the executor's counters. *)
let observe fx ~execute q =
  let txn = fresh_txn fx in
  let stats = Exec.new_stats () in
  let mode = { (if q.q_strict then strict_mode else Exec.default_mode) with Exec.stats = Some stats } in
  let result =
    match execute fx.catalog txn ~mode (parse (sql_of q)) with
    | Ok rs ->
        Ok
          ( rs.Exec.columns,
            List.map (fun r -> String.concat "," (List.map Value.encode (Array.to_list r))) rs.Exec.rows )
    | Error e -> Error (Exec.error_to_string e)
  in
  let tables = List.map Txn.reads_table txn.Txn.reads in
  let reads = Txn_ref.reads_of_txn txn in
  let predicates = txn.Txn.predicates in
  Manager.abort fx.mgr txn (Txn.Contract_error "done");
  ( result,
    tables,
    reads,
    predicates,
    (Exec.scan_counts stats, Exec.visited_counts stats, stats.Exec.stmts, stats.Exec.rows_out) )

let prop_streaming_matches_reference =
  let print (t1, t2, queries) =
    Printf.sprintf "t1=%s t2=%s\n%s"
      (String.concat ";"
         (List.map (fun (g, x, s) -> g_values.(g) ^ "/" ^ x_values.(x) ^ "/" ^ s_values.(s)) t1))
      (String.concat ";" (List.map (fun (g, y) -> g_values.(g) ^ "/" ^ string_of_int y) t2))
      (String.concat "\n" (List.map sql_of queries))
  in
  QCheck.Test.make ~name:"streaming aggregation = materialize-then-group" ~count:200
    (QCheck.make ~print gen_case) (fun ((_, _, queries) as case) ->
      let fx = load case in
      List.for_all
        (fun q ->
          let stream = observe fx ~execute:(fun c t ~mode s -> Exec.execute c t ~mode s) q in
          let reference =
            observe fx ~execute:(fun c t ~mode s -> Exec.Testing.execute_with Agg_ref.aggregation c t ~mode s) q
          in
          let r_stream, tables_s, reads_s, preds_s, stats_s = stream
          and r_ref, tables_r, reads_r, preds_r, stats_r = reference in
          let show = function
            | Ok (cols, rows) -> String.concat "," cols ^ " | " ^ String.concat " ; " rows
            | Error e -> "error: " ^ e
          in
          if r_stream <> r_ref then
            QCheck.Test.fail_reportf "%s\nstreaming: %s\nreference: %s" (sql_of q) (show r_stream)
              (show r_ref)
          else if tables_s <> tables_r || reads_s <> reads_r then
            QCheck.Test.fail_reportf "%s: read sets differ" (sql_of q)
          else if not (List.equal Predicate.equal preds_s preds_r) then
            QCheck.Test.fail_reportf "%s: predicates differ" (sql_of q)
          else if stats_s <> stats_r then QCheck.Test.fail_reportf "%s: stats differ" (sql_of q)
          else true)
        queries)

(* --- exact Int/Float order ---------------------------------------------- *)

(* A FLOAT key holding the ints 2^53 and 2^53 + 1: only the first equals
   the float 2^53. *)
let test_float_key_past_2_53 () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE f (x FLOAT PRIMARY KEY)");
  ignore (run fx "INSERT INTO f VALUES (9007199254740992), (9007199254740993)");
  let rows sql = List.length (run fx sql).Exec.rows in
  Alcotest.(check int) "point probe" 1 (rows "SELECT x FROM f WHERE x = 9007199254740992.0");
  Alcotest.(check int) "range" 1 (rows "SELECT x FROM f WHERE x <= 9007199254740992.0");
  Alcotest.(check int) "groups" 2 (rows "SELECT x, COUNT(*) FROM f GROUP BY x")

(* DISTINCT, GROUP BY and hash joins share one identity, the comparison's:
   1 and 1.0, and 0.0 and -0.0, are one value. *)
let test_one_identity () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE f (id INT PRIMARY KEY, x FLOAT)");
  ignore (run fx "INSERT INTO f VALUES (1, 1), (2, 1.0), (3, 0.0), (4, -0.0), (5, 2.5)");
  let rows sql = List.length (run fx sql).Exec.rows in
  Alcotest.(check int) "distinct" 3 (rows "SELECT DISTINCT x FROM f");
  Alcotest.(check int) "groups" 3 (rows "SELECT x, COUNT(*) FROM f GROUP BY x");
  Alcotest.(check int) "hash join" 4 (rows "SELECT a.id FROM f a JOIN f b ON a.x = b.x WHERE a.id <= 2")

(* Numbers around the points where an int stops fitting a float's
   mantissa (2^53) and where a float stops fitting an int (2^62). *)
let gen_number =
  QCheck.Gen.(
    let near p = map2 (fun s d -> s * ((1 lsl p) + d)) (oneofl [ 1; -1 ]) (int_range (-3) 3) in
    let int_near = map (fun i -> Value.Int i) (oneof [ near 53; near 61; int_range (-5) 5 ]) in
    let float_near =
      map
        (fun f -> Value.Float f)
        (oneof
           [
             map2 (fun s d -> s *. (0x1p53 +. float_of_int d)) (oneofl [ 1.; -1. ]) (int_range (-3) 3);
             map2 (fun s k -> s *. Float.ldexp 1. k) (oneofl [ 1.; -1. ]) (int_range 60 64);
             oneofl [ 0.; -0.; 0.5; -0.5; 4.5; Float.nan; Float.infinity; Float.neg_infinity ];
             map float_of_int (int_range (-5) 5);
           ])
    in
    oneof [ int_near; float_near; return (Value.Int max_int); return (Value.Int min_int) ])

let prop_compare_total_is_total_order =
  let print (a, b, c) = String.concat ", " (List.map Value.encode [ a; b; c ]) in
  QCheck.Test.make ~name:"compare_total: total order near 2^53 and 2^62" ~count:2000
    (QCheck.make ~print QCheck.Gen.(triple gen_number gen_number gen_number))
    (fun (a, b, c) ->
      let cmp = Value.compare_total in
      let sign x = compare x 0 in
      sign (cmp a b) = - sign (cmp b a)
      && (not (cmp a b <= 0 && cmp b c <= 0) || cmp a c <= 0)
      && (not (cmp a b = 0 && cmp b c = 0) || cmp a c = 0)
      && Value.equal a b = (cmp a b = 0)
      && (match Value.compare_sql a b with None -> true | Some c' -> sign c' = sign (cmp a b))
      && (cmp a b = 0) = (Exec.Testing.key_string [ a ] = Exec.Testing.key_string [ b ]))

(* --- allocation ----------------------------------------------------------- *)

(* The benchmark's group query on its seed shape: 40 orders of one
   customer through an index, a primary-key probe into parts per order,
   GROUP BY over 20 groups, top-1 by the aggregate, in strict mode with
   the counters on, as a contract runs it. *)
let group_query_words () =
  let fx = make_fixture () in
  ignore (run fx "CREATE TABLE parts (part_id INT PRIMARY KEY, price INT, grp INT)");
  ignore
    (run fx
       "CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, part_id INT, qty INT)");
  ignore (run fx "CREATE INDEX orders_customer ON orders (customer_id)");
  let insert table lo n row =
    ignore
      (run fx
         (Printf.sprintf "INSERT INTO %s VALUES %s" table
            (String.concat ", " (List.init n (fun j -> row (lo + j))))))
  in
  for c = 0 to 9 do
    insert "parts" (c * 100) 100 (fun i -> Printf.sprintf "(%d, %d, %d)" i ((i mod 50) + 1) (i mod 20))
  done;
  for c = 0 to 3 do
    insert "orders" (c * 500) 500 (fun i ->
        Printf.sprintf "(%d, %d, %d, %d)" i (i mod 50) (i * 7919 mod 1000) ((i mod 7) + 1))
  done;
  let stmt =
    parse
      "SELECT SUM(o.qty * p.price) AS t FROM orders o JOIN parts p ON o.part_id = p.part_id \
       WHERE o.customer_id = $1 GROUP BY p.grp ORDER BY t DESC LIMIT 1"
  in
  let mode = { strict_mode with Exec.stats = Some (Exec.new_stats ()) } in
  let words () =
    let txn = fresh_txn fx in
    let before = Gc.minor_words () in
    let rs = Exec.execute fx.catalog txn ~params:[| Value.Int 7 |] ~mode stmt in
    let words = Gc.minor_words () -. before in
    Manager.abort fx.mgr txn (Txn.Contract_error "done");
    (match rs with
    | Ok { Exec.rows = [ [| Value.Int _ |] ]; _ } -> ()
    | _ -> Alcotest.fail "group query failed");
    words
  in
  ignore (words ());
  List.fold_left min infinity (List.init 5 (fun _ -> words ()))

(* Materializing every joined row, grouping by key strings and one
   closure-built probe per order allocated 7,169 minor words here; the
   compiled scans and streaming aggregation must stay at half of that. *)
let test_group_query_allocation () =
  let words = group_query_words () in
  if words > 3584. then
    Alcotest.failf "group query allocated %.0f minor words (at most 3,584)" words

let suites =
  [
    ( "engine.aggregates",
      [
        QCheck_alcotest.to_alcotest prop_streaming_matches_reference;
        Alcotest.test_case "FLOAT key past 2^53" `Quick test_float_key_past_2_53;
        Alcotest.test_case "one identity for DISTINCT, GROUP BY, joins" `Quick test_one_identity;
        QCheck_alcotest.to_alcotest prop_compare_total_is_total_order;
        Alcotest.test_case "group query allocation" `Quick test_group_query_allocation;
      ] );
  ]
