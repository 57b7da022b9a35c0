(** Direct unit tests for the transaction manager: commit-entry checks,
    materialization, rollback, and write-set digests. *)

open Brdb_storage
module Txn = Brdb_txn.Txn
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec

type fx = { mgr : Manager.t; catalog : Catalog.t; mutable n : int }

let make_fx () =
  let catalog = Catalog.create () in
  { mgr = Manager.create catalog; catalog; n = 0 }

let txn ?(snapshot = 0) fx =
  fx.n <- fx.n + 1;
  match
    Manager.begin_txn fx.mgr ~global_id:(Printf.sprintf "m-%d" fx.n) ~client:"c"
      ~snapshot_height:snapshot ()
  with
  | Ok t -> t
  | Error `Duplicate_txid -> Alcotest.fail "dup"

let exec fx t sql =
  match Exec.execute_sql fx.catalog t sql with
  | Ok rs -> rs
  | Error e -> Alcotest.failf "%s: %s" sql (Exec.error_to_string e)

let seed fx =
  let t = txn fx in
  ignore (exec fx t "CREATE TABLE kv (k INT PRIMARY KEY, v INT)");
  ignore (exec fx t "INSERT INTO kv VALUES (1, 10), (2, 20)");
  Manager.commit fx.mgr t ~height:0

let reason = Alcotest.testable
  (fun fmt r -> Format.pp_print_string fmt (Txn.abort_reason_to_string r))
  (fun a b -> Txn.abort_reason_to_string a = Txn.abort_reason_to_string b)

let test_duplicate_global_id () =
  let fx = make_fx () in
  (match
     Manager.begin_txn fx.mgr ~global_id:"dup" ~client:"c" ~snapshot_height:0 ()
   with
  | Ok t -> Manager.commit fx.mgr t ~height:1
  | Error _ -> Alcotest.fail "first begin failed");
  (match
     Manager.begin_txn fx.mgr ~global_id:"dup" ~client:"c" ~snapshot_height:1 ()
   with
  | Ok _ -> Alcotest.fail "duplicate accepted"
  | Error `Duplicate_txid -> ());
  (* ...and the id stays burned even after the txn is forgotten *)
  Manager.forget_finished fx.mgr ~below_height:10;
  match Manager.begin_txn fx.mgr ~global_id:"dup" ~client:"c" ~snapshot_height:1 () with
  | Ok _ -> Alcotest.fail "duplicate accepted after forget"
  | Error `Duplicate_txid -> ()

let test_lost_update_detection () =
  let fx = make_fx () in
  seed fx;
  let a = txn fx and b = txn fx in
  ignore (exec fx a "UPDATE kv SET v = 1 WHERE k = 1");
  ignore (exec fx b "UPDATE kv SET v = 2 WHERE k = 1");
  Alcotest.(check (option reason)) "no loser yet" None (Manager.check_lost_update fx.mgr a);
  (* a commits; b has now lost *)
  Manager.commit fx.mgr a ~height:1;
  (match Manager.check_lost_update fx.mgr b with
  | Some (Txn.Ww_conflict winner) -> Alcotest.(check int) "winner txid" a.Txn.txid winner
  | other ->
      Alcotest.failf "expected ww conflict, got %s"
        (match other with None -> "none" | Some r -> Txn.abort_reason_to_string r))

let test_other_claimants () =
  let fx = make_fx () in
  seed fx;
  let a = txn fx and b = txn fx and c = txn fx in
  ignore (exec fx a "UPDATE kv SET v = 1 WHERE k = 1");
  ignore (exec fx b "UPDATE kv SET v = 2 WHERE k = 1");
  ignore (exec fx c "UPDATE kv SET v = 3 WHERE k = 2");
  let rivals = Manager.other_claimants fx.mgr a in
  Alcotest.(check (list int)) "b is a rival" [ b.Txn.txid ]
    (List.map (fun t -> t.Txn.txid) rivals)

let test_unique_check_at_commit () =
  let fx = make_fx () in
  seed fx;
  let a = txn fx and b = txn fx in
  ignore (exec fx a "INSERT INTO kv VALUES (5, 1)");
  ignore (exec fx b "INSERT INTO kv VALUES (5, 2)");
  (* both executed against the same snapshot: no error yet; a commits *)
  Alcotest.(check (option reason)) "a unique ok" None (Manager.check_unique fx.mgr a ~height:1);
  Manager.commit fx.mgr a ~height:1;
  (match Manager.check_unique fx.mgr b ~height:1 with
  | Some (Txn.Duplicate_key _) -> ()
  | other ->
      Alcotest.failf "expected duplicate key, got %s"
        (match other with None -> "none" | Some r -> Txn.abort_reason_to_string r))

let test_stale_phantom_checks () =
  let fx = make_fx () in
  seed fx;
  (* reader at snapshot 0 *)
  let reader = txn fx ~snapshot:0 in
  ignore (exec fx reader "SELECT v FROM kv WHERE k = 1");
  let range_reader = txn fx ~snapshot:0 in
  ignore (exec fx range_reader "SELECT COUNT(*) FROM kv WHERE k BETWEEN 1 AND 100");
  (* a writer commits at height 1: updates k=1, inserts k=50 *)
  let writer = txn fx in
  ignore (exec fx writer "UPDATE kv SET v = 99 WHERE k = 1");
  ignore (exec fx writer "INSERT INTO kv VALUES (50, 0)");
  Manager.commit fx.mgr writer ~height:1;
  (match Manager.check_stale_phantom fx.mgr reader ~upto_height:1 with
  | Some Txn.Stale_read -> ()
  | other ->
      Alcotest.failf "expected stale read, got %s"
        (match other with None -> "none" | Some r -> Txn.abort_reason_to_string r));
  (match Manager.check_stale_phantom fx.mgr range_reader ~upto_height:1 with
  | Some (Txn.Phantom_read | Txn.Stale_read) -> ()
  | other ->
      Alcotest.failf "expected phantom, got %s"
        (match other with None -> "none" | Some r -> Txn.abort_reason_to_string r));
  (* a reader whose snapshot already includes height 1 is fine *)
  let fresh = txn fx ~snapshot:1 in
  ignore (exec fx fresh "SELECT v FROM kv WHERE k = 1");
  Alcotest.(check (option reason)) "fresh reader fine" None
    (Manager.check_stale_phantom fx.mgr fresh ~upto_height:1)

let test_stale_check_ignores_untouched_reads () =
  let fx = make_fx () in
  seed fx;
  let reader = txn fx ~snapshot:0 in
  ignore (exec fx reader "SELECT v FROM kv WHERE k = 2");
  let writer = txn fx in
  ignore (exec fx writer "UPDATE kv SET v = 99 WHERE k = 1");
  Manager.commit fx.mgr writer ~height:1;
  Alcotest.(check (option reason)) "disjoint reader fine" None
    (Manager.check_stale_phantom fx.mgr reader ~upto_height:1)

let test_write_set_digest_properties () =
  let fx = make_fx () in
  (* the per-block write-set hash of §3.3.4, as Node_core computes it *)
  let digest txns = Brdb_crypto.Merkle.root (Manager.write_set_entries fx.mgr txns) in
  seed fx;
  let a = txn fx in
  ignore (exec fx a "INSERT INTO kv VALUES (7, 70)");
  Manager.commit fx.mgr a ~height:1;
  let d1 = digest [ a ] in
  let d1' = digest [ a ] in
  Alcotest.(check string) "deterministic" (Brdb_util.Hex.encode d1) (Brdb_util.Hex.encode d1');
  let b = txn fx ~snapshot:1 in
  ignore (exec fx b "UPDATE kv SET v = 71 WHERE k = 7");
  Manager.commit fx.mgr b ~height:2;
  let d2 = digest [ b ] in
  Alcotest.(check bool) "different writes differ" false
    (String.equal d1 d2);
  (* order matters: the digest pins the commit order *)
  let d_ab = digest [ a; b ] in
  let d_ba = digest [ b; a ] in
  Alcotest.(check bool) "order sensitive" false (String.equal d_ab d_ba);
  Alcotest.(check string) "empty digest stable"
    (Brdb_util.Hex.encode (digest []))
    (Brdb_util.Hex.encode (digest []))

(* The write-set entry bytes, formatted as they were before the Buffer
   writer: "<global id>|<op>|<table>|<values>", an update as its old and
   new halves joined by ";". The Merkle leaves and pgledger rows hash
   these bytes, so they must not move. *)
let reference_entries fx txns =
  List.concat_map
    (fun t ->
      List.map
        (fun w ->
          let entry op table vid =
            let tbl = Option.get (Catalog.find fx.catalog table) in
            let v = Table.get_version tbl vid in
            Printf.sprintf "%s|%s|%s" op table
              (String.concat "," (List.map Value.encode (Array.to_list v.Version.values)))
          in
          t.Txn.global_id ^ "|"
          ^
          match w with
          | Txn.W_insert { table; vid } -> entry "I" table vid
          | Txn.W_update { table; old_vid; new_vid } ->
              entry "U-" table old_vid ^ ";" ^ entry "U+" table new_vid
          | Txn.W_delete { table; old_vid } -> entry "D" table old_vid)
        (Txn.writes_in_order t))
    txns

let test_write_set_entries_bytes () =
  let fx = make_fx () in
  seed fx;
  let setup = txn fx in
  ignore (exec fx setup "CREATE TABLE w (k INT PRIMARY KEY, f FLOAT, s TEXT, b BOOL)");
  Manager.commit fx.mgr setup ~height:1;
  let a = txn fx ~snapshot:1 in
  ignore
    (exec fx a
       "INSERT INTO w VALUES (-4611686018427387903 - 1, -0.0, 'x|y,z;', TRUE), (0, 2.5, '', \
        NULL), (4611686018427387903, NULL, NULL, FALSE)");
  ignore (exec fx a "UPDATE kv SET v = -7 WHERE k = 1");
  ignore (exec fx a "DELETE FROM kv WHERE k = 2");
  Manager.commit fx.mgr a ~height:2;
  let b = txn fx ~snapshot:2 in
  ignore (exec fx b "UPDATE w SET s = 'caf\195\169', f = 0.1 WHERE k = 0");
  Manager.commit fx.mgr b ~height:3;
  Alcotest.(check (list string)) "entries" (reference_entries fx [ a; b ])
    (Manager.write_set_entries fx.mgr [ a; b ]);
  Alcotest.(check (list string)) "no transactions" [] (Manager.write_set_entries fx.mgr [])

let test_rollback_committed () =
  let fx = make_fx () in
  seed fx;
  let a = txn fx in
  ignore (exec fx a "UPDATE kv SET v = 99 WHERE k = 1");
  ignore (exec fx a "INSERT INTO kv VALUES (9, 9)");
  Manager.commit fx.mgr a ~height:1;
  (* committed state is visible *)
  let check_v expected =
    let q = txn fx ~snapshot:1 in
    let rs = exec fx q "SELECT v FROM kv WHERE k = 1" in
    (match rs.Exec.rows with
    | [ [| Value.Int v |] ] -> Alcotest.(check int) "v" expected v
    | _ -> Alcotest.fail "missing row");
    Manager.abort fx.mgr q (Txn.Contract_error "probe");
    Manager.release fx.mgr q
  in
  check_v 99;
  Manager.rollback_committed fx.mgr a;
  (* the old version is live again, the new versions are gone *)
  check_v 10;
  let q = txn fx ~snapshot:1 in
  let rs = exec fx q "SELECT COUNT(*) FROM kv WHERE k = 9" in
  (match rs.Exec.rows with
  | [ [| Value.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "insert not rolled back");
  Manager.abort fx.mgr q (Txn.Contract_error "probe");
  Alcotest.(check bool) "txn reset to pending" true (Txn.is_pending a)

let test_forget_finished () =
  let fx = make_fx () in
  seed fx;
  let a = txn fx in
  ignore (exec fx a "INSERT INTO kv VALUES (3, 3)");
  Manager.commit fx.mgr a ~height:1;
  let b = txn fx ~snapshot:1 in
  ignore (exec fx b "INSERT INTO kv VALUES (4, 4)");
  (* a is old enough to forget; b is pending and must survive *)
  Manager.forget_finished fx.mgr ~below_height:1;
  Alcotest.(check bool) "a gone" true (Manager.find fx.mgr a.Txn.txid = None);
  Alcotest.(check bool) "b kept" true (Manager.find fx.mgr b.Txn.txid <> None);
  (* a's effects persist in the heap *)
  let q = txn fx ~snapshot:1 in
  let rs = exec fx q "SELECT COUNT(*) FROM kv WHERE k = 3" in
  match rs.Exec.rows with
  | [ [| Value.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "forgotten txn's data lost"

let test_abort_side_effect_hooks () =
  let fx = make_fx () in
  seed fx;
  let log = ref [] in
  let a = txn fx in
  Txn.add_on_commit a (fun () -> log := "commit" :: !log);
  Manager.abort fx.mgr a (Txn.Contract_error "x");
  Alcotest.(check (list string)) "abort runs no commit hook" [] !log;
  let b = txn fx in
  Txn.add_on_commit b (fun () -> log := "commit" :: !log);
  Manager.commit fx.mgr b ~height:1;
  Alcotest.(check (list string)) "commit runs its hook" [ "commit" ] !log

(* --- read tracking ----------------------------------------------------------- *)

type track_op =
  | Read of int * int  (** table, vid *)
  | Scan of int * int * int * int  (** table, first vid, count, step (±1..3) *)
  | Pred of int * int * int  (** table, lo, hi *)
  | Seal
  | Rollback
  | Check

let track_table i = [| "orders"; "parts"; "kv" |].(i)

let show_track_op = function
  | Read (t, v) -> Printf.sprintf "read %s %d" (track_table t) v
  | Scan (t, v, n, step) -> Printf.sprintf "scan %s %d+%dx%d" (track_table t) v step n
  | Pred (t, lo, hi) -> Printf.sprintf "pred %s [%d,%d]" (track_table t) lo hi
  | Seal -> "seal"
  | Rollback -> "rollback"
  | Check -> "check"

let gen_track_op ntables =
  let open QCheck.Gen in
  let table = int_bound (ntables - 1) in
  frequency
    [
      (6, map2 (fun t v -> Read (t, v)) table (int_bound 40));
      ( 3,
        map2
          (fun (t, v) (n, step) -> Scan (t, v, n, step))
          (pair table (int_bound 40))
          (pair (int_bound 12) (oneofl [ -3; -2; -1; 1; 2; 3 ])) );
      (3, map3 (fun t lo n -> Pred (t, lo, lo + n)) table (int_bound 6) (int_bound 2));
      (1, return Seal);
      (1, return Rollback);
      (2, return Check);
    ]

(* Both recorders see the same reads and predicates; [Check] compares
   them mid-stream (the comparison seals the transaction's sets, so later
   reads land in sealed buffers). An untracked reader fed the same reads
   must keep nothing. *)
let prop_read_tracking_matches_ref =
  let gen =
    QCheck.Gen.(int_range 1 3 >>= fun n -> list_size (int_bound 80) (gen_track_op n))
  in
  let print ops = String.concat "; " (List.map show_track_op ops) in
  QCheck.Test.make ~name:"read sets = list + Hashtbl reference" ~count:300
    (QCheck.make ~print gen) (fun ops ->
      let fx = make_fx () in
      let t = txn fx in
      let reader = Txn.reader ~snapshot_height:0 in
      let r = Txn_ref.create () in
      let read table vid =
        let table = track_table table in
        Txn.record_read (Txn.reads_of t ~table) vid;
        Txn.record_read (Txn.reads_of reader ~table) vid;
        Txn_ref.record_read r ~table ~vid
      in
      let agree () =
        Txn_ref.reads_of_txn t = Txn_ref.sorted_reads r
        && t.Txn.predicates = r.Txn_ref.predicates
        || QCheck.Test.fail_reportf "reads %d vs %d, predicates %d vs %d"
             (List.length (Txn_ref.reads_of_txn t))
             (List.length r.Txn_ref.reads)
             (List.length t.Txn.predicates)
             (List.length r.Txn_ref.predicates)
      in
      List.for_all
        (function
          | Read (table, vid) ->
              read table vid;
              true
          | Scan (table, first, n, step) ->
              for i = 0 to n - 1 do
                read table (max 0 (first + (i * step)))
              done;
              true
          | Pred (table, lo, hi) ->
              let p =
                Predicate.Range
                  {
                    table = track_table table;
                    column = 0;
                    lo = Index.Incl (Value.Int lo);
                    hi = Index.Incl (Value.Int hi);
                  }
              in
              Txn.record_predicate t p;
              Txn.record_predicate reader p;
              Txn_ref.record_predicate r p;
              true
          | Seal ->
              Txn.seal t;
              true
          | Rollback ->
              Manager.rollback_committed fx.mgr t;
              Txn_ref.reset r;
              true
          | Check -> agree ())
        ops
      && agree ()
      && (Txn_ref.reads_of_txn reader = [] && reader.Txn.predicates = []
         || QCheck.Test.fail_report "the untracked reader recorded something"))

let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* A transaction is created for every submitted transaction, and most
   record nothing until their contract runs (an [oe_insert] transaction
   never reads): [create] allocates the record and nothing else. The two
   hash tables it used to create cost 81 words. *)
let test_create_allocation () =
  let words =
    minor_words (fun () ->
        Txn.create ~txid:7 ~global_id:"g" ~client:"c" ~snapshot_height:3 ())
  in
  if words > 20. then
    Alcotest.failf "Txn.create allocated %.0f minor words (at most 20)" words

(* 80 reads as one join execution records them: an ascending index scan
   of 40 rows in one table, then 40 probes into another, with repeats.
   Each read is an unboxed int in a growable buffer, found once per scan
   (the bound includes the 17-word record); the (table, vid) tuple + hash
   set recorder took 1,023 words. *)
let test_record_read_allocation () =
  let words =
    minor_words (fun () ->
        let t = Txn.create ~txid:7 ~global_id:"g" ~client:"c" ~snapshot_height:3 () in
        let orders = Txn.reads_of t ~table:"orders" in
        for vid = 100 to 139 do
          Txn.record_read orders vid
        done;
        for i = 0 to 39 do
          Txn.record_read (Txn.reads_of t ~table:"parts") (i * 7919 mod 25)
        done;
        t)
  in
  if words > 300. then
    Alcotest.failf "80 tracked reads allocated %.0f minor words (at most 300)" words

let suites =
  [
    ( "txn.manager",
      [
        Alcotest.test_case "duplicate global ids" `Quick test_duplicate_global_id;
        Alcotest.test_case "lost update" `Quick test_lost_update_detection;
        Alcotest.test_case "other claimants" `Quick test_other_claimants;
        Alcotest.test_case "unique at commit" `Quick test_unique_check_at_commit;
        Alcotest.test_case "stale/phantom checks" `Quick test_stale_phantom_checks;
        Alcotest.test_case "disjoint reads unaffected" `Quick test_stale_check_ignores_untouched_reads;
        Alcotest.test_case "write-set digest" `Quick test_write_set_digest_properties;
        Alcotest.test_case "write-set entry bytes" `Quick test_write_set_entries_bytes;
        Alcotest.test_case "rollback committed" `Quick test_rollback_committed;
        Alcotest.test_case "forget finished" `Quick test_forget_finished;
        Alcotest.test_case "commit/abort hooks" `Quick test_abort_side_effect_hooks;
      ] );
    ( "txn.reads",
      [
        QCheck_alcotest.to_alcotest prop_read_tracking_matches_ref;
        Alcotest.test_case "create allocation" `Quick test_create_allocation;
        Alcotest.test_case "record_read allocation" `Quick test_record_read_allocation;
      ] );
  ]
