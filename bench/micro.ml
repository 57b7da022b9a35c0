(** Bechamel micro-benchmarks of the real engine primitives (wall-clock,
    as opposed to the simulated-time experiments): SHA-256, signatures,
    inserts, indexed selects, joins, and a full OE block commit. *)

open Bechamel
open Toolkit
module Value = Brdb_storage.Value
module Catalog = Brdb_storage.Catalog
module Manager = Brdb_txn.Manager
module Exec = Brdb_engine.Exec

let fixture rows =
  let catalog = Catalog.create () in
  let mgr = Manager.create catalog in
  let txn =
    match Manager.begin_txn mgr ~global_id:"boot" ~client:"sys" ~snapshot_height:(-1) () with
    | Ok t -> t
    | Error _ -> assert false
  in
  let exec sql =
    match Exec.execute_sql catalog txn sql with
    | Ok _ -> ()
    | Error e -> failwith (Exec.error_to_string e)
  in
  exec "CREATE TABLE items (id INT PRIMARY KEY, grp INT, qty INT)";
  exec "CREATE TABLE grps (grp INT PRIMARY KEY, name TEXT)";
  for g = 0 to 9 do
    exec (Printf.sprintf "INSERT INTO grps VALUES (%d, 'g%d')" g g)
  done;
  for i = 0 to rows - 1 do
    exec (Printf.sprintf "INSERT INTO items VALUES (%d, %d, %d)" i (i mod 10) (i mod 17))
  done;
  Manager.commit mgr txn ~height:1;
  (catalog, mgr)

let bench_sha256 =
  let payload = String.make 1024 'x' in
  Test.make ~name:"sha256 (1 KiB)" (Staged.stage (fun () -> Brdb_crypto.Sha256.digest payload))

let bench_sign_verify =
  let sk, pk = Brdb_crypto.Schnorr.keygen ~seed:"bench" in
  Test.make ~name:"schnorr sign+verify"
    (Staged.stage (fun () ->
         let s = Brdb_crypto.Schnorr.sign sk "payload" in
         assert (Brdb_crypto.Schnorr.verify pk "payload" s)))

let with_txn (catalog, mgr) f =
  let id = ref 0 in
  Staged.stage (fun () ->
      incr id;
      let txn =
        match
          Manager.begin_txn mgr
            ~global_id:(Printf.sprintf "b%d" !id)
            ~client:"bench" ~snapshot_height:1 ()
        with
        | Ok t -> t
        | Error _ -> assert false
      in
      f catalog txn !id;
      Manager.abort mgr txn (Brdb_txn.Txn.Contract_error "bench");
      Manager.release mgr txn)

let bench_insert =
  let fx = fixture 1000 in
  Test.make ~name:"INSERT (single row)"
    (with_txn fx (fun catalog txn i ->
         match
           Exec.execute_sql catalog txn
             (Printf.sprintf "INSERT INTO items VALUES (%d, 1, 1)" (100000 + i))
         with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

let bench_pk_select =
  let fx = fixture 1000 in
  Test.make ~name:"SELECT by primary key"
    (with_txn fx (fun catalog txn i ->
         match
           Exec.execute_sql catalog txn
             (Printf.sprintf "SELECT qty FROM items WHERE id = %d" (i mod 1000))
         with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

let bench_join_aggregate =
  let fx = fixture 1000 in
  Test.make ~name:"join + aggregate (100 rows)"
    (with_txn fx (fun catalog txn _ ->
         match
           Exec.execute_sql catalog txn
             "SELECT SUM(i.qty) FROM items i JOIN grps g ON i.grp = g.grp WHERE i.grp = 3"
         with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

(* The executor's hash join, hash aggregation and top-k operators on the
   same fixture. *)
let bench_query ~name sql =
  let fx = fixture 1000 in
  Test.make ~name
    (with_txn fx (fun catalog txn _ ->
         match Exec.execute_sql catalog txn sql with
         | Ok _ -> ()
         | Error e -> failwith (Exec.error_to_string e)))

let bench_hash_join =
  bench_query ~name:"equi-join 1000x10 (hash)"
    "SELECT g.name, i.qty FROM items i JOIN grps g ON i.grp = g.grp WHERE i.qty > 8"

let bench_hash_agg =
  bench_query ~name:"GROUP BY 1000 rows (hash)"
    "SELECT grp, COUNT(*), SUM(qty) FROM items GROUP BY grp"

let bench_topk =
  bench_query ~name:"ORDER BY LIMIT 5 (top-k heap)"
    "SELECT id, qty FROM items ORDER BY qty, id LIMIT 5"

let instances = Instance.[ monotonic_clock ]

let benchmark () =
  let tests =
    Test.make_grouped ~name:"brdb"
      [
        bench_sha256;
        bench_sign_verify;
        bench_insert;
        bench_pk_select;
        bench_join_aggregate;
        bench_hash_join;
        bench_hash_agg;
        bench_topk;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
  Hashtbl.iter
    (fun name tbl ->
      Hashtbl.iter
        (fun test result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "%-32s %12.1f ns/run (%s)\n%!" test est name
          | _ -> ())
        tbl)
    results
