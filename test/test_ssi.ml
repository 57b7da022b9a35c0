open Brdb_ssi
open Brdb_storage
module Txn = Brdb_txn.Txn
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec

let has_edge g ~reader ~writer = List.mem (reader, writer) (Graph.Testing.edges g)

(* --- graph ---------------------------------------------------------------- *)

let test_graph_basics () =
  let g = Graph.create () in
  Graph.add_edge g ~reader:1 ~writer:2;
  Graph.add_edge g ~reader:1 ~writer:2;
  (* dedup *)
  Graph.add_edge g ~reader:3 ~writer:2;
  Graph.add_edge g ~reader:2 ~writer:1;
  Graph.add_edge g ~reader:5 ~writer:5;
  (* self-edges ignored *)
  Alcotest.(check (list int)) "in(2)" [ 1; 3 ] (Graph.in_conflicts g 2);
  Alcotest.(check (list int)) "out(1)" [ 2 ] (Graph.out_conflicts g 1);
  Alcotest.(check (list int)) "in(1)" [ 2 ] (Graph.in_conflicts g 1);
  Alcotest.(check (list int)) "in(5)" [] (Graph.in_conflicts g 5);
  Alcotest.(check bool) "has" true (has_edge g ~reader:1 ~writer:2);
  Alcotest.(check bool) "not has" false (has_edge g ~reader:2 ~writer:3);
  Alcotest.(check int) "edges" 3 (Graph.edge_count g)

(* --- detection fixture ----------------------------------------------------- *)

type fx = { mgr : Manager.t; catalog : Catalog.t; mutable n : int }

let make_fx () =
  let catalog = Catalog.create () in
  { mgr = Manager.create catalog; catalog; n = 0 }

let txn fx ~height =
  fx.n <- fx.n + 1;
  match
    Manager.begin_txn fx.mgr ~global_id:(Printf.sprintf "t%d" fx.n) ~client:"c"
      ~snapshot_height:height ()
  with
  | Ok t -> t
  | Error `Duplicate_txid -> Alcotest.fail "dup txid"

let exec fx t sql =
  match Exec.execute_sql fx.catalog t sql with
  | Ok rs -> rs
  | Error e -> Alcotest.failf "%s: %s" sql (Exec.error_to_string e)

(* Seed: accounts table with two rows, committed at height 1. *)
let seed fx =
  let t = txn fx ~height:0 in
  ignore (exec fx t "CREATE TABLE accounts (id INT PRIMARY KEY, bal INT)");
  ignore (exec fx t "INSERT INTO accounts VALUES (1, 50), (2, 50)");
  Manager.commit fx.mgr t ~height:1

let test_detect_write_skew () =
  (* The classic SI anomaly: each txn reads both rows, writes the other.
     Both directions of rw-dependency must be detected. *)
  let fx = make_fx () in
  seed fx;
  let t1 = txn fx ~height:1 and t2 = txn fx ~height:1 in
  ignore (exec fx t1 "SELECT bal FROM accounts WHERE id = 1");
  ignore (exec fx t1 "SELECT bal FROM accounts WHERE id = 2");
  ignore (exec fx t1 "UPDATE accounts SET bal = bal - 60 WHERE id = 1");
  ignore (exec fx t2 "SELECT bal FROM accounts WHERE id = 1");
  ignore (exec fx t2 "SELECT bal FROM accounts WHERE id = 2");
  ignore (exec fx t2 "UPDATE accounts SET bal = bal - 60 WHERE id = 2");
  let g = Detect.compute fx.catalog [ t1; t2 ] in
  Alcotest.(check bool) "t1 -> t2" true
    (has_edge g ~reader:t1.Txn.txid ~writer:t2.Txn.txid);
  Alcotest.(check bool) "t2 -> t1" true
    (has_edge g ~reader:t2.Txn.txid ~writer:t1.Txn.txid)

let test_detect_no_conflict () =
  let fx = make_fx () in
  seed fx;
  let t1 = txn fx ~height:1 and t2 = txn fx ~height:1 in
  ignore (exec fx t1 "UPDATE accounts SET bal = 1 WHERE id = 1");
  ignore (exec fx t2 "UPDATE accounts SET bal = 2 WHERE id = 2");
  let g = Detect.compute fx.catalog [ t1; t2 ] in
  (* Each updated a different row it also read: both read id=1 or id=2
     disjointly, so no cross edges. *)
  Alcotest.(check bool) "no t1->t2" false
    (has_edge g ~reader:t1.Txn.txid ~writer:t2.Txn.txid);
  Alcotest.(check bool) "no t2->t1" false
    (has_edge g ~reader:t2.Txn.txid ~writer:t1.Txn.txid)

let test_detect_phantom_insert () =
  let fx = make_fx () in
  seed fx;
  let t1 = txn fx ~height:1 and t2 = txn fx ~height:1 in
  (* t1 scans the range id in [1, 10]; t2 inserts id=5: phantom edge t1->t2. *)
  ignore (exec fx t1 "SELECT COUNT(*) FROM accounts WHERE id BETWEEN 1 AND 10");
  ignore (exec fx t2 "INSERT INTO accounts VALUES (5, 99)");
  let g = Detect.compute fx.catalog [ t1; t2 ] in
  Alcotest.(check bool) "phantom edge" true
    (has_edge g ~reader:t1.Txn.txid ~writer:t2.Txn.txid);
  Alcotest.(check bool) "no reverse" false
    (has_edge g ~reader:t2.Txn.txid ~writer:t1.Txn.txid)

let test_detect_insert_outside_predicate () =
  let fx = make_fx () in
  seed fx;
  let t1 = txn fx ~height:1 and t2 = txn fx ~height:1 in
  ignore (exec fx t1 "SELECT COUNT(*) FROM accounts WHERE id BETWEEN 1 AND 10");
  ignore (exec fx t2 "INSERT INTO accounts VALUES (50, 99)");
  let g = Detect.compute fx.catalog [ t1; t2 ] in
  Alcotest.(check bool) "no edge" false
    (has_edge g ~reader:t1.Txn.txid ~writer:t2.Txn.txid)

let test_detect_update_into_predicate () =
  (* An UPDATE can move a row *into* someone's scanned range. *)
  let fx = make_fx () in
  seed fx;
  let t1 = txn fx ~height:1 and t2 = txn fx ~height:1 in
  ignore (exec fx t1 "SELECT COUNT(*) FROM accounts WHERE bal BETWEEN 100 AND 200");
  ignore (exec fx t2 "UPDATE accounts SET bal = 150 WHERE id = 1");
  let g = Detect.compute fx.catalog [ t1; t2 ] in
  Alcotest.(check bool) "edge via new version" true
    (has_edge g ~reader:t1.Txn.txid ~writer:t2.Txn.txid)

let test_detect_no_self_edge () =
  (* One transaction whose predicate covers its own insert and new
     version, and which read the version it then claimed. *)
  let fx = make_fx () in
  seed fx;
  let t1 = txn fx ~height:1 in
  ignore (exec fx t1 "SELECT COUNT(*) FROM accounts WHERE id BETWEEN 1 AND 10");
  ignore (exec fx t1 "SELECT bal FROM accounts WHERE id = 1");
  ignore (exec fx t1 "UPDATE accounts SET bal = 0 WHERE id = 1");
  ignore (exec fx t1 "INSERT INTO accounts VALUES (5, 99)");
  let g = Detect.compute fx.catalog [ t1 ] in
  Alcotest.(check (list (pair int int))) "no edges" [] (Graph.Testing.edges g)

let test_detect_predicate_other_table () =
  (* [other] shares column 0's type and the key falls in t1's range on
     [accounts], but the predicate names a different table. *)
  let fx = make_fx () in
  seed fx;
  let setup = txn fx ~height:1 in
  ignore (exec fx setup "CREATE TABLE other (id INT PRIMARY KEY, x INT)");
  Manager.commit fx.mgr setup ~height:2;
  let t1 = txn fx ~height:2 and t2 = txn fx ~height:2 in
  ignore (exec fx t1 "SELECT COUNT(*) FROM accounts WHERE id BETWEEN 1 AND 10");
  ignore (exec fx t2 "INSERT INTO other VALUES (5, 0)");
  let g = Detect.compute fx.catalog [ t1; t2 ] in
  Alcotest.(check (list (pair int int))) "no edges" [] (Graph.Testing.edges g)

let test_detect_dropped_table () =
  (* A version created in a table dropped before detection falls under no
     predicate: no edge, and no exception. *)
  let fx = make_fx () in
  seed fx;
  let setup = txn fx ~height:1 in
  ignore (exec fx setup "CREATE TABLE scratch (id INT PRIMARY KEY, x INT)");
  Manager.commit fx.mgr setup ~height:2;
  let t1 = txn fx ~height:2 and t2 = txn fx ~height:2 in
  ignore (exec fx t1 "SELECT COUNT(*) FROM scratch");
  ignore (exec fx t2 "INSERT INTO scratch VALUES (1, 1)");
  let tbl = Option.get (Catalog.find fx.catalog "scratch") in
  Alcotest.(check bool) "unknown vid" true (Table.find_version tbl 99 = None);
  (match Catalog.drop_table fx.catalog "scratch" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let g = Detect.compute fx.catalog [ t1; t2 ] in
  Alcotest.(check (list (pair int int))) "no edges" [] (Graph.Testing.edges g)

let test_detect_shared_claim () =
  (* Three pending writers delete the version a reader read. Deletes create
     nothing, so every edge comes from the claims. *)
  let fx = make_fx () in
  seed fx;
  let r = txn fx ~height:1 in
  ignore (exec fx r "SELECT bal FROM accounts WHERE id = 1");
  let ws =
    List.init 3 (fun _ ->
        let w = txn fx ~height:1 in
        ignore (exec fx w "DELETE FROM accounts WHERE id = 1");
        w)
  in
  let g = Detect.compute fx.catalog (r :: ws) in
  let ids = List.map (fun w -> w.Txn.txid) ws in
  Alcotest.(check (list int)) "one edge to each writer" ids (Graph.out_conflicts g r.Txn.txid);
  List.iter
    (fun w ->
      Alcotest.(check (list int))
        "writer's readers"
        (List.sort compare (r.Txn.txid :: List.filter (( <> ) w) ids))
        (Graph.in_conflicts g w))
    ids

(* --- indexed detector == pairwise oracle ----------------------------------- *)

(* Two tables: [a] with a secondary index on [v], [b] with none, so scans
   on [b.w] are sequential. Keys 1-8 are seeded. Reads, updates and
   deletes pick keys 1-16, so writers often claim the same version;
   inserts pick 9-40, inside and outside the scanned key ranges. *)
let gen_stmt =
  let open QCheck.Gen in
  let key = int_range 1 16 and value = int_range 0 200 in
  oneof
    [
      map (Printf.sprintf "SELECT v FROM a WHERE id = %d") key;
      map2 (fun k n -> Printf.sprintf "SELECT COUNT(*) FROM a WHERE id BETWEEN %d AND %d" k (k + n)) key (int_range 0 6);
      map (Printf.sprintf "SELECT COUNT(*) FROM a WHERE id > %d") key;
      map (Printf.sprintf "SELECT COUNT(*) FROM a WHERE id < %d") key;
      map2 (Printf.sprintf "SELECT COUNT(*) FROM a WHERE v >= %d AND v < %d") value value;
      map (Printf.sprintf "SELECT COUNT(*) FROM b WHERE w = %d") value;
      map2 (Printf.sprintf "INSERT INTO a VALUES (%d, %d)") (int_range 9 40) value;
      map2 (Printf.sprintf "INSERT INTO b VALUES (%d, %d)") (int_range 9 40) value;
      map2 (fun v k -> Printf.sprintf "UPDATE a SET v = %d WHERE id = %d" v k) value key;
      map2 (fun w k -> Printf.sprintf "UPDATE b SET w = %d WHERE id = %d" w k) value key;
      map (Printf.sprintf "DELETE FROM a WHERE id = %d") key;
      map (Printf.sprintf "DELETE FROM b WHERE id = %d") key;
    ]

let gen_block = QCheck.Gen.(list_size (1 -- 6) (list_size (1 -- 4) gen_stmt))

let arbitrary_block =
  QCheck.make gen_block
    ~print:
      (QCheck.Print.list (fun stmts -> "[" ^ String.concat "; " stmts ^ "]"))

let prop_detect_matches_oracle =
  QCheck.Test.make ~name:"indexed detect == pairwise oracle" ~count:60 arbitrary_block
    (fun block ->
      let fx = make_fx () in
      let setup = txn fx ~height:0 in
      List.iter
        (fun sql -> ignore (exec fx setup sql))
        [
          "CREATE TABLE a (id INT PRIMARY KEY, v INT)";
          "CREATE INDEX a_v ON a (v)";
          "CREATE TABLE b (id INT PRIMARY KEY, w INT)";
          "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60), (7, 70), (8, 80)";
          "INSERT INTO b VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60), (7, 70), (8, 80)";
        ];
      Manager.commit fx.mgr setup ~height:1;
      let txns =
        List.map
          (fun stmts ->
            let t = txn fx ~height:1 in
            (* A statement the executor rejects (a duplicate key) leaves
               whatever it recorded; both detectors see the same sets. *)
            List.iter (fun sql -> ignore (Exec.execute_sql fx.catalog t sql)) stmts;
            t)
          block
      in
      let indexed = Graph.Testing.edges (Detect.compute fx.catalog txns) in
      let oracle = Graph.Testing.edges (Ssi_oracle.compute fx.catalog txns) in
      indexed = oracle
      || QCheck.Test.fail_reportf "indexed %s <> oracle %s"
           (QCheck.Print.(list (pair int int)) indexed)
           (QCheck.Print.(list (pair int int)) oracle))

(* --- rules ----------------------------------------------------------------- *)

let view_of assoc id =
  match List.assoc_opt id assoc with
  | Some info -> info
  | None -> { Rules.status = Rules.S_pending; block = None; pos = None }

let pending ?block ?pos () = { Rules.status = Rules.S_pending; block; pos }

let committed ?block ?pos () = { Rules.status = Rules.S_committed; block; pos }

let aborted () = { Rules.status = Rules.S_aborted; block = None; pos = None }

let check_decision msg (d : Rules.decision) ~self ~others =
  Alcotest.(check bool) (msg ^ ": self") self (d.Rules.abort_self <> None);
  Alcotest.(check (list int)) (msg ^ ": others") others (List.map fst d.Rules.abort_others)

let test_plain_no_conflict () =
  let g = Graph.create () in
  check_decision "empty" (Rules.decide_plain g (view_of []) ~me:1) ~self:false ~others:[]

let test_plain_single_edge_benign () =
  (* One rw edge without a second consecutive edge: no abort. *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  let view = view_of [ (1, pending ()); (2, pending ()) ] in
  check_decision "single in-edge" (Rules.decide_plain g view ~me:1) ~self:false ~others:[];
  let g2 = Graph.create () in
  Graph.add_edge g2 ~reader:1 ~writer:2;
  check_decision "single out-edge" (Rules.decide_plain g2 view ~me:1) ~self:false ~others:[]

let test_plain_two_cycle () =
  (* T1 <-> T2 (write skew). T1 commits first: abort T2. *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:1 ~writer:2;
  Graph.add_edge g ~reader:2 ~writer:1;
  let view = view_of [ (1, pending ~block:5 ~pos:0 ()); (2, pending ~block:5 ~pos:1 ()) ] in
  check_decision "write skew" (Rules.decide_plain g view ~me:1) ~self:false ~others:[ 2 ]

let test_plain_dangerous_structure () =
  (* far(3) -> near(2) -> me(1), all pending: abort the pivot (near). *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  Graph.add_edge g ~reader:3 ~writer:2;
  let view = view_of [ (1, pending ()); (2, pending ()); (3, pending ()) ] in
  check_decision "pivot aborted" (Rules.decide_plain g view ~me:1) ~self:false ~others:[ 2 ]

let test_plain_far_committed_no_near_abort () =
  (* far committed: the paper's rule only aborts near when both are
     uncommitted; near will be caught at its own commit by the
     pivot-committed-out rule. *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  Graph.add_edge g ~reader:3 ~writer:2;
  let view = view_of [ (1, pending ()); (2, pending ()); (3, committed ()) ] in
  check_decision "no premature abort" (Rules.decide_plain g view ~me:1) ~self:false ~others:[];
  (* ...and indeed at 2's own commit (out-conflict 1 now committed): *)
  let view' = view_of [ (1, committed ()); (2, pending ()); (3, committed ()) ] in
  check_decision "pivot aborts itself" (Rules.decide_plain g view' ~me:2) ~self:true ~others:[]

let test_plain_pivot_committed_out () =
  (* me has an in-conflict and a committed out-conflict: me is a pivot whose
     out-neighbour committed first -> me aborts. *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  (* 2 -> 1 : in-conflict of 1 *)
  Graph.add_edge g ~reader:1 ~writer:3;
  (* 1 -> 3 : out-conflict *)
  let view = view_of [ (1, pending ()); (2, pending ()); (3, committed ()) ] in
  check_decision "pivot" (Rules.decide_plain g view ~me:1) ~self:true ~others:[]

let test_plain_ignores_aborted () =
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  Graph.add_edge g ~reader:3 ~writer:2;
  let view = view_of [ (1, pending ()); (2, aborted ()); (3, pending ()) ] in
  check_decision "aborted near ignored" (Rules.decide_plain g view ~me:1) ~self:false ~others:[]

(* Table 2 of the paper, row by row. [me] commits at block 10, pos 0. *)

let table2_case ~near_info ~far_info =
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  (* near = 2 *)
  Graph.add_edge g ~reader:3 ~writer:2;
  (* far = 3 *)
  let view = view_of [ (1, pending ~block:10 ~pos:0 ()); (2, near_info); (3, far_info) ] in
  Rules.decide_block_aware g view ~me:1 ~my_block:10

let test_table2_row1_near_first () =
  (* near ✓, far ✓, near commits first -> abort far. *)
  check_decision "row 1"
    (table2_case ~near_info:(pending ~block:10 ~pos:1 ())
       ~far_info:(pending ~block:10 ~pos:2 ()))
    ~self:false ~others:[ 3 ]

let test_table2_row2_far_first () =
  (* near ✓, far ✓, far commits first -> abort near. *)
  check_decision "row 2"
    (table2_case ~near_info:(pending ~block:10 ~pos:2 ())
       ~far_info:(pending ~block:10 ~pos:1 ()))
    ~self:false ~others:[ 2 ]

let test_table2_row3_far_not_in_block () =
  (* near ✓, far ✗ -> near commits first, abort far. *)
  check_decision "row 3"
    (table2_case ~near_info:(pending ~block:10 ~pos:1 ())
       ~far_info:(pending ~block:11 ~pos:0 ()))
    ~self:false ~others:[ 3 ];
  (* also when far is not ordered at all *)
  check_decision "row 3 unordered far"
    (table2_case ~near_info:(pending ~block:10 ~pos:1 ()) ~far_info:(pending ()))
    ~self:false ~others:[ 3 ]

let test_table2_row4_near_not_in_block () =
  (* near ✗, far ✓ -> abort near. *)
  check_decision "row 4"
    (table2_case ~near_info:(pending ~block:11 ~pos:0 ())
       ~far_info:(pending ~block:10 ~pos:1 ()))
    ~self:false ~others:[ 2 ]

let test_table2_row5_neither_in_block () =
  (* near ✗, far ✗ -> abort near. *)
  check_decision "row 5"
    (table2_case ~near_info:(pending ()) ~far_info:(pending ()))
    ~self:false ~others:[ 2 ]

let test_table2_row6_no_far () =
  (* near ✗ with no farConflict -> still abort near (could be a stale read
     on a subset of nodes). *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  let view = view_of [ (1, pending ~block:10 ~pos:0 ()); (2, pending ~block:11 ~pos:0 ()) ] in
  check_decision "row 6" (Rules.decide_block_aware g view ~me:1 ~my_block:10)
    ~self:false ~others:[ 2 ];
  (* whereas a same-block near with no far is left alone *)
  let view' = view_of [ (1, pending ~block:10 ~pos:0 ()); (2, pending ~block:10 ~pos:1 ()) ] in
  check_decision "same-block near, no far"
    (Rules.decide_block_aware g view' ~me:1 ~my_block:10)
    ~self:false ~others:[]

let test_block_aware_committed_out () =
  (* Scenario 3 of §3.4.3: out-conflict committed -> abort me. *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:1 ~writer:4;
  let view = view_of [ (1, pending ~block:10 ~pos:1 ()); (4, committed ~block:10 ~pos:0 ()) ] in
  check_decision "committed out" (Rules.decide_block_aware g view ~me:1 ~my_block:10)
    ~self:true ~others:[]

let test_block_aware_far_committed () =
  (* far committed -> abort near. *)
  check_decision "far committed"
    (table2_case ~near_info:(pending ~block:10 ~pos:1 ())
       ~far_info:(committed ~block:9 ~pos:0 ()))
    ~self:false ~others:[ 2 ]

let test_block_aware_two_cycle () =
  (* me <-> near in the same block: near aborts. *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  Graph.add_edge g ~reader:1 ~writer:2;
  let view = view_of [ (1, pending ~block:10 ~pos:0 ()); (2, pending ~block:10 ~pos:1 ()) ] in
  check_decision "2-cycle" (Rules.decide_block_aware g view ~me:1 ~my_block:10)
    ~self:false ~others:[ 2 ]

let test_block_aware_committed_near_benign () =
  (* A committed nearConflict is a forward edge: no action. *)
  let g = Graph.create () in
  Graph.add_edge g ~reader:2 ~writer:1;
  Graph.add_edge g ~reader:3 ~writer:2;
  let view =
    view_of [ (1, pending ~block:10 ~pos:2 ()); (2, committed ~block:10 ~pos:0 ());
              (3, committed ~block:9 ~pos:0 ()) ]
  in
  check_decision "committed near" (Rules.decide_block_aware g view ~me:1 ~my_block:10)
    ~self:false ~others:[]

let suites =
  [
    ("ssi.graph", [ Alcotest.test_case "basics" `Quick test_graph_basics ]);
    ( "ssi.detect",
      [
        Alcotest.test_case "write skew" `Quick test_detect_write_skew;
        Alcotest.test_case "disjoint writes" `Quick test_detect_no_conflict;
        Alcotest.test_case "phantom insert" `Quick test_detect_phantom_insert;
        Alcotest.test_case "insert outside predicate" `Quick test_detect_insert_outside_predicate;
        Alcotest.test_case "update into predicate" `Quick test_detect_update_into_predicate;
        Alcotest.test_case "no self-edge" `Quick test_detect_no_self_edge;
        Alcotest.test_case "predicate on another table" `Quick test_detect_predicate_other_table;
        Alcotest.test_case "dropped table" `Quick test_detect_dropped_table;
        Alcotest.test_case "three writers, one version" `Quick test_detect_shared_claim;
        QCheck_alcotest.to_alcotest prop_detect_matches_oracle;
      ] );
    ( "ssi.rules.plain",
      [
        Alcotest.test_case "no conflict" `Quick test_plain_no_conflict;
        Alcotest.test_case "single edge benign" `Quick test_plain_single_edge_benign;
        Alcotest.test_case "two-cycle" `Quick test_plain_two_cycle;
        Alcotest.test_case "dangerous structure" `Quick test_plain_dangerous_structure;
        Alcotest.test_case "far committed" `Quick test_plain_far_committed_no_near_abort;
        Alcotest.test_case "pivot committed out" `Quick test_plain_pivot_committed_out;
        Alcotest.test_case "aborted ignored" `Quick test_plain_ignores_aborted;
      ] );
    ( "ssi.rules.table2",
      [
        Alcotest.test_case "row 1: both in block, near first" `Quick test_table2_row1_near_first;
        Alcotest.test_case "row 2: both in block, far first" `Quick test_table2_row2_far_first;
        Alcotest.test_case "row 3: far outside" `Quick test_table2_row3_far_not_in_block;
        Alcotest.test_case "row 4: near outside" `Quick test_table2_row4_near_not_in_block;
        Alcotest.test_case "row 5: both outside" `Quick test_table2_row5_neither_in_block;
        Alcotest.test_case "row 6: no far" `Quick test_table2_row6_no_far;
        Alcotest.test_case "committed out-conflict" `Quick test_block_aware_committed_out;
        Alcotest.test_case "far committed" `Quick test_block_aware_far_committed;
        Alcotest.test_case "two-cycle" `Quick test_block_aware_two_cycle;
        Alcotest.test_case "committed near benign" `Quick test_block_aware_committed_near_benign;
      ] );
  ]
