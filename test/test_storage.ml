open Brdb_storage
module Ast = Brdb_sql.Ast

let value : Value.t Alcotest.testable =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Value.to_string v))
    Value.equal

let col ?(pk = false) ?(nn = false) name ty =
  { Schema.name; ty; not_null = nn; primary_key = pk }

let sample_schema () =
  match
    Schema.create ~name:"items"
      ~columns:[ col ~pk:true "id" Ast.T_int; col "name" Ast.T_text; col "qty" Ast.T_int ]
  with
  | Ok s -> s
  | Error m -> Alcotest.fail m

(* --- values ------------------------------------------------------------ *)

let test_value_total_order () =
  let open Value in
  Alcotest.(check bool) "null first" true (compare_total Null (Int 0) < 0);
  Alcotest.(check bool) "bool < int" true (compare_total (Bool true) (Int 0) < 0);
  Alcotest.(check bool) "int ~ float" true (compare_total (Int 2) (Float 2.5) < 0);
  Alcotest.(check int) "int = float" 0 (compare_total (Int 2) (Float 2.0));
  Alcotest.(check bool) "num < text" true (compare_total (Int 99) (Text "a") < 0);
  Alcotest.(check bool) "text order" true (compare_total (Text "a") (Text "b") < 0)

let test_value_sql_compare () =
  let open Value in
  Alcotest.(check (option int)) "null" None (compare_sql Null (Int 1));
  Alcotest.(check (option int)) "mismatch" None (compare_sql (Int 1) (Text "1"));
  Alcotest.(check (option int)) "eq" (Some 0) (compare_sql (Int 3) (Float 3.0))

let test_value_conforms () =
  let open Value in
  Alcotest.(check bool) "null conforms" true (conforms Ast.T_int Null);
  Alcotest.(check bool) "int widens to float" true (conforms Ast.T_float (Int 1));
  Alcotest.(check bool) "text not int" false (conforms Ast.T_int (Text "x"))

let test_value_encode_distinct () =
  let open Value in
  let vs = [ Null; Int 1; Int 10; Float 1.0; Text "1"; Bool true; Bool false; Text "" ] in
  let encs = List.map encode vs in
  Alcotest.(check int) "all distinct" (List.length encs)
    (List.length (List.sort_uniq compare encs))

(* --- schema ------------------------------------------------------------ *)

let test_schema_validation () =
  let bad cols msg =
    match Schema.create ~name:"t" ~columns:cols with
    | Ok _ -> Alcotest.failf "expected failure: %s" msg
    | Error _ -> ()
  in
  bad [] "empty";
  bad [ col "a" Ast.T_int; col "a" Ast.T_text ] "duplicate";
  bad [ col ~pk:true "a" Ast.T_int; col ~pk:true "b" Ast.T_int ] "two pks";
  bad [ col "xmin" Ast.T_int ] "reserved";
  let s = sample_schema () in
  Alcotest.(check (option int)) "pk idx" (Some 0) s.Schema.pk_index;
  Alcotest.(check (option int)) "col idx" (Some 2) (Schema.column_index s "qty");
  Alcotest.(check (option int)) "missing" None (Schema.column_index s "nope")

let test_schema_check_row () =
  let s = sample_schema () in
  let ok row =
    match Schema.check_row s row with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  let bad row =
    match Schema.check_row s row with
    | Ok () -> Alcotest.fail "expected row rejection"
    | Error _ -> ()
  in
  ok [| Value.Int 1; Value.Text "x"; Value.Int 5 |];
  ok [| Value.Int 1; Value.Null; Value.Null |];
  bad [| Value.Int 1; Value.Text "x" |];
  (* wrong arity *)
  bad [| Value.Null; Value.Text "x"; Value.Int 5 |];
  (* pk null *)
  bad [| Value.Text "1"; Value.Text "x"; Value.Int 5 |] (* type mismatch *)

(* --- version visibility -------------------------------------------------- *)

let test_version_visibility () =
  let v = Version.make ~vid:0 ~xmin:7 [| Value.Int 1 |] in
  (* Uncommitted: invisible at any height, visible to its creator. *)
  Alcotest.(check bool) "uncommitted hidden" false (Version.visible_at v ~height:100);
  Alcotest.(check bool) "own insert visible" true (Version.visible_to v ~txid:7 ~height:0);
  Alcotest.(check bool) "other txn blind" false (Version.visible_to v ~txid:8 ~height:0);
  (* Commit at block 5. *)
  v.Version.creator_block <- 5;
  Alcotest.(check bool) "visible at 5" true (Version.visible_at v ~height:5);
  Alcotest.(check bool) "hidden at 4" false (Version.visible_at v ~height:4);
  (* Delete at block 9. *)
  v.Version.xmax <- 12;
  v.Version.deleter_block <- 9;
  Alcotest.(check bool) "visible at 8" true (Version.visible_at v ~height:8);
  Alcotest.(check bool) "hidden at 9" false (Version.visible_at v ~height:9);
  Alcotest.(check bool) "provenance sees dead" true (Version.visible_provenance v);
  (* Claimed rows are hidden from the claimant. *)
  let w = Version.make ~vid:1 ~xmin:1 [| Value.Int 2 |] in
  w.Version.creator_block <- 1;
  Version.claim w 33;
  Alcotest.(check bool) "claimant blind" false (Version.visible_to w ~txid:33 ~height:5);
  Alcotest.(check bool) "others still see" true (Version.visible_to w ~txid:34 ~height:5);
  Version.unclaim w 33;
  Alcotest.(check bool) "unclaimed again" true (Version.visible_to w ~txid:33 ~height:5)

let test_version_gap_detectors () =
  let v = Version.make ~vid:0 ~xmin:1 [| Value.Int 1 |] in
  v.Version.creator_block <- 5;
  Alcotest.(check bool) "committed after 3" true (Version.committed_after v ~height:3);
  Alcotest.(check bool) "not after 5" false (Version.committed_after v ~height:5);
  v.Version.deleter_block <- 8;
  Alcotest.(check bool) "deleted after 6" true (Version.deleted_after v ~height:6);
  Alcotest.(check bool) "not deleted after 8" false (Version.deleted_after v ~height:8);
  Alcotest.(check bool) "not alive before create" false (Version.deleted_after v ~height:4)

(* --- index --------------------------------------------------------------- *)

let collect_range idx ~lo ~hi =
  let acc = ref [] in
  Index.iter_range idx ~lo ~hi (fun vid -> acc := vid :: !acc);
  List.rev !acc

let test_index_ranges () =
  let idx = Index.create ~column:0 in
  List.iteri (fun vid k -> Index.add idx (Value.Int k) vid) [ 10; 20; 30; 40; 50 ];
  Alcotest.(check (list int)) "full" [ 0; 1; 2; 3; 4 ]
    (collect_range idx ~lo:Index.Unbounded ~hi:Index.Unbounded);
  Alcotest.(check (list int)) "closed" [ 1; 2 ]
    (collect_range idx ~lo:(Index.Incl (Value.Int 20)) ~hi:(Index.Incl (Value.Int 30)));
  Alcotest.(check (list int)) "open lo" [ 2 ]
    (collect_range idx ~lo:(Index.Excl (Value.Int 20)) ~hi:(Index.Incl (Value.Int 30)));
  Alcotest.(check (list int)) "open hi" [ 1 ]
    (collect_range idx ~lo:(Index.Incl (Value.Int 20)) ~hi:(Index.Excl (Value.Int 30)));
  Alcotest.(check (list int)) "empty" []
    (collect_range idx ~lo:(Index.Incl (Value.Int 31)) ~hi:(Index.Incl (Value.Int 39)));
  Alcotest.(check (list int)) "from above" [ 3; 4 ]
    (collect_range idx ~lo:(Index.Incl (Value.Int 35)) ~hi:Index.Unbounded)

let test_index_duplicates_and_remove () =
  let idx = Index.create ~column:0 in
  Index.add idx (Value.Int 1) 0;
  Index.add idx (Value.Int 1) 5;
  Index.add idx (Value.Int 1) 3;
  Alcotest.(check (list int)) "vid order" [ 0; 3; 5 ]
    (collect_range idx ~lo:(Index.Incl (Value.Int 1)) ~hi:(Index.Incl (Value.Int 1)));
  Index.remove idx (Value.Int 1) 3;
  let cardinal () =
    List.length (collect_range idx ~lo:Index.Unbounded ~hi:Index.Unbounded)
  in
  Alcotest.(check int) "cardinal" 2 (cardinal ());
  Index.remove idx (Value.Int 1) 99 (* absent: no-op *);
  Alcotest.(check int) "cardinal same" 2 (cardinal ())

let prop_index_range_matches_filter =
  QCheck.Test.make ~name:"index range = naive filter" ~count:200
    QCheck.(pair (list small_int) (pair small_int small_int))
    (fun (keys, (a, b)) ->
      let lo = min a b and hi = max a b in
      let idx = Index.create ~column:0 in
      List.iteri (fun vid k -> Index.add idx (Value.Int k) vid) keys;
      let got =
        collect_range idx ~lo:(Index.Incl (Value.Int lo)) ~hi:(Index.Incl (Value.Int hi))
        |> List.sort compare
      in
      let expected =
        List.mapi (fun vid k -> (vid, k)) keys
        |> List.filter (fun (_, k) -> k >= lo && k <= hi)
        |> List.map fst |> List.sort compare
      in
      got = expected)

(* A point range [Incl k, Incl k] is one map lookup; every other range
   enumerates keys from [lo]. The lookup must yield what the enumeration
   yields for the same point range, in the same order, over keys with live
   and retired vids, at random heights, for absent keys, for an [Int] and
   a [Float] key that compare equal, and past 2^53. *)
type point_op = P_add of int | P_retire of int * int | P_unretire of int | P_remove of int

(* Past 2^53 a float cannot tell [Int 2^53] from [Int (2^53 + 1)]; the
   exact comparison can, so a point range on [Float 2^53] finds one key. *)
let point_keys =
  [| Value.Int 0; Value.Int 1; Value.Int 2; Value.Int 5; Value.Float 5.; Value.Float 2.5;
     Value.Text "a"; Value.Int 7; Value.Int (1 lsl 53); Value.Int ((1 lsl 53) + 1);
     Value.Float 0x1p53 |]

let probe_keys = Array.append point_keys [| Value.Int 3; Value.Float 5.5; Value.Text "b" |]

let show_point_op = function
  | P_add k -> "add " ^ Value.to_string point_keys.(k)
  | P_retire (i, b) -> Printf.sprintf "retire #%d @%d" i b
  | P_unretire i -> Printf.sprintf "unretire #%d" i
  | P_remove i -> Printf.sprintf "remove #%d" i

let prop_point_probe_matches_walk =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 50)
           (frequency
              [
                (4, map (fun k -> P_add k) (int_bound (Array.length point_keys - 1)));
                (3, map2 (fun i b -> P_retire (i, b)) small_nat (int_range 1 10));
                (1, map (fun i -> P_unretire i) small_nat);
                (1, map (fun i -> P_remove i) small_nat);
              ]))
        (list_size (int_range 1 10)
           (triple
              (int_bound (Array.length probe_keys - 1))
              (int_bound (Array.length probe_keys - 1))
              (opt (int_range (-1) 11)))))
  in
  let print (ops, probes) =
    String.concat "; " (List.map show_point_op ops)
    ^ " | "
    ^ String.concat "; "
        (List.map
           (fun (a, b, h) ->
             Printf.sprintf "[%s,%s] h=%s" (Value.to_string probe_keys.(a))
               (Value.to_string probe_keys.(b))
               (match h with None -> "-" | Some h -> string_of_int h))
           probes)
  in
  QCheck.Test.make ~name:"point probe = key enumeration" ~count:300 (QCheck.make ~print gen)
    (fun (ops, probes) ->
      let idx = Index.create ~column:0 in
      (* The model: each vid's key and whether it is retired. *)
      let vids = ref [] and next = ref 0 in
      let pick pred i f =
        match List.filter pred !vids with
        | [] -> ()
        | l -> f (List.nth l (i mod List.length l))
      in
      List.iter
        (function
          | P_add k ->
              Index.add idx point_keys.(k) !next;
              vids := (!next, point_keys.(k), ref false) :: !vids;
              incr next
          | P_retire (i, block) ->
              pick
                (fun (_, _, r) -> not !r)
                i
                (fun (vid, key, r) ->
                  Index.retire idx key vid ~block;
                  r := true)
          | P_unretire i ->
              pick
                (fun (_, _, r) -> !r)
                i
                (fun (vid, key, r) ->
                  Index.unretire idx key vid;
                  r := false)
          | P_remove i ->
              pick
                (fun _ -> true)
                i
                (fun (vid, key, _) ->
                  Index.remove idx key vid;
                  vids := List.filter (fun (v, _, _) -> v <> vid) !vids))
        (List.rev ops);
      List.for_all
        (fun (a, b, height) ->
          let lo = Index.Incl probe_keys.(a) and hi = Index.Incl probe_keys.(b) in
          let collect iter =
            let acc = ref [] in
            iter ?height idx ~lo ~hi (fun vid -> acc := vid :: !acc);
            List.rev !acc
          in
          let fast = collect Index.iter_range and walk = collect Index.Testing.walk_range in
          fast = walk
          || QCheck.Test.fail_reportf "[%s,%s]: point %s, walk %s"
               (Value.to_string probe_keys.(a)) (Value.to_string probe_keys.(b))
               (QCheck.Print.(list int) fast) (QCheck.Print.(list int) walk))
        probes)

(* --- predicate ----------------------------------------------------------- *)

let test_predicate_matches () =
  let p_full = Predicate.Full_scan { table = "t" } in
  Alcotest.(check bool) "full matches" true (Predicate.matches p_full ~table:"t" [| Value.Int 1 |]);
  Alcotest.(check bool) "other table" false (Predicate.matches p_full ~table:"u" [| Value.Int 1 |]);
  let p =
    Predicate.Range
      { table = "t"; column = 1; lo = Index.Incl (Value.Int 10); hi = Index.Excl (Value.Int 20) }
  in
  let row v = [| Value.Text "x"; Value.Int v |] in
  Alcotest.(check bool) "in range" true (Predicate.matches p ~table:"t" (row 10));
  Alcotest.(check bool) "below" false (Predicate.matches p ~table:"t" (row 9));
  Alcotest.(check bool) "at open hi" false (Predicate.matches p ~table:"t" (row 20));
  Alcotest.(check bool) "inside" true (Predicate.matches p ~table:"t" (row 19))

(* --- table / catalog ------------------------------------------------------ *)

let test_table_pk_and_indexes () =
  let t = Table.create (sample_schema ()) in
  Alcotest.(check bool) "pk indexed" true (Table.has_index t ~column:0);
  Alcotest.(check (list int)) "unique pk" [ 0 ] (Table.unique_columns t);
  let v1 = Table.insert_version t ~xmin:1 [| Value.Int 1; Value.Text "a"; Value.Int 10 |] in
  let v2 = Table.insert_version t ~xmin:1 [| Value.Int 2; Value.Text "b"; Value.Int 20 |] in
  Alcotest.(check int) "vids" 0 v1.Version.vid;
  Alcotest.(check int) "vids" 1 v2.Version.vid;
  let found = ref [] in
  Table.pk_lookup t (Value.Int 2) (fun v -> found := v.Version.vid :: !found);
  Alcotest.(check (list int)) "pk lookup" [ 1 ] !found;
  (* Late index creation backfills existing versions. *)
  Table.add_index t ~column:2 ~unique:false;
  let got = ref [] in
  Table.iter_index t ~column:2 ~lo:(Index.Incl (Value.Int 15)) ~hi:Index.Unbounded
    (fun v -> got := v.Version.vid :: !got);
  Alcotest.(check (list int)) "backfilled" [ 1 ] !got

(* Every equality probe and unique check is a point lookup: one map
   lookup, then the key's vids, with no key enumeration. The
   [to_seq_from] walk allocated 112 words per probe on top of this. *)
let test_pk_lookup_allocation () =
  let t = Table.create (sample_schema ()) in
  for id = 0 to 99 do
    ignore (Table.insert_version t ~xmin:1 [| Value.Int id; Value.Text "x"; Value.Int id |])
  done;
  let old = Table.get_version t 42 in
  ignore (Table.insert_version t ~xmin:2 [| Value.Int 42; Value.Text "y"; Value.Int 0 |]);
  Table.mark_deleted t old ~xmax:2 ~height:5;
  let found = ref 0 in
  let f (_ : Version.t) = incr found in
  List.iter
    (fun (what, id, seen, bound) ->
      found := 0;
      let key = Value.Int id in
      let words =
        List.fold_left min infinity
          (List.init 3 (fun _ ->
               let before = Gc.minor_words () in
               Table.pk_lookup ~height:3 t key f;
               Gc.minor_words () -. before))
      in
      Alcotest.(check int) (what ^ ": versions seen") (3 * seen) !found;
      if words > bound then
        Alcotest.failf "a pk_lookup probe of %s allocated %.0f minor words (at most %.0f)"
          what words bound)
    [ ("a key with one live version", 7, 1, 16.); ("a key with history", 42, 2, 28.) ]

let test_table_prune () =
  let t = Table.create (sample_schema ()) in
  let v1 = Table.insert_version t ~xmin:1 [| Value.Int 1; Value.Text "a"; Value.Int 1 |] in
  let v2 = Table.insert_version t ~xmin:2 [| Value.Int 2; Value.Text "b"; Value.Int 2 |] in
  v1.Version.xmin_aborted <- true;
  let removed = Table.prune t ~keep:(fun v -> not v.Version.xmin_aborted) in
  Alcotest.(check int) "one removed" 1 removed;
  let seen = ref [] in
  Table.iter_versions t (fun v -> seen := v.Version.vid :: !seen);
  Alcotest.(check (list int)) "survivor" [ v2.Version.vid ] !seen;
  (* vids remain stable after pruning *)
  Alcotest.(check int) "stable vid" 1 (Table.get_version t 1).Version.vid

(* Vacuum coherence under churn: six "blocks" of committed inserts,
   updates (delete + reinsert) and aborted inserts, with a prune of dead
   history in the middle and at the end. After every step the visibility
   index must agree with the heap ([check_visibility]), and at the end the
   three access paths — visibility-index scan, secondary index, raw heap —
   must surface the same committed rows. *)
let test_prune_mid_workload_visibility () =
  let t = Table.create (sample_schema ()) in
  Table.add_index t ~column:2 ~unique:false;
  let check msg =
    match Table.check_visibility t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" msg e
  in
  let committed_insert ~height id qty =
    let v =
      Table.insert_version t ~xmin:(100 + height)
        [| Value.Int id; Value.Text (Printf.sprintf "n%d" id); Value.Int qty |]
    in
    v.Version.creator_block <- height;
    v
  in
  let last_block = 6 in
  for blk = 1 to last_block do
    for i = 0 to 2 do
      let id = (blk * 10) + i in
      ignore (committed_insert ~height:blk id (id mod 7))
    done;
    (* an insert whose transaction aborted: never visible, prunable *)
    let va =
      Table.insert_version t ~xmin:(1000 + blk)
        [| Value.Int ((blk * 10) + 5); Value.Text "gone"; Value.Int 99 |]
    in
    Table.mark_aborted t va;
    (* update a row from the previous block: retire + reinsert *)
    if blk > 1 then begin
      let id = (blk - 1) * 10 in
      let cur = ref None in
      Table.pk_lookup t (Value.Int id) (fun v ->
          if Version.visible_at v ~height:blk then cur := Some v);
      match !cur with
      | None -> Alcotest.failf "block %d: no live version of %d" blk id
      | Some v ->
          Table.mark_deleted t v ~xmax:(2000 + blk) ~height:blk;
          ignore (committed_insert ~height:blk id ((id + blk) mod 7))
    end;
    check (Printf.sprintf "after block %d" blk);
    if blk = 3 || blk = last_block then begin
      let h = blk - 1 in
      let removed =
        Table.prune t ~keep:(fun v ->
            (not v.Version.xmin_aborted) && v.Version.deleter_block > h)
      in
      Alcotest.(check bool)
        (Printf.sprintf "prune at block %d removed history" blk)
        true (removed > 0);
      check (Printf.sprintf "after prune at block %d" blk)
    end
  done;
  let collect iter =
    let acc = ref [] in
    iter (fun v ->
        if Version.visible_at v ~height:last_block then
          match v.Version.values.(0) with
          | Value.Int id -> acc := id :: !acc
          | _ -> Alcotest.fail "non-int pk");
    List.sort_uniq compare !acc
  in
  let via_live = collect (Table.iter_live t ~height:last_block) in
  let via_heap = collect (Table.iter_versions t) in
  let via_index =
    collect (fun f ->
        Table.iter_index t ~column:2 ~lo:Index.Unbounded ~hi:Index.Unbounded f)
  in
  Alcotest.(check (list int)) "live scan = heap scan" via_heap via_live;
  Alcotest.(check (list int)) "secondary index = heap scan" via_heap via_index;
  Alcotest.(check int) "all committed rows survive" (3 * last_block)
    (List.length via_heap);
  Alcotest.(check int) "live set matches"
    (3 * last_block) (Table.live_count t)

(* Random version lifecycles against the heap as oracle. A table with a
   primary key (column 0) and a non-unique index (column 2) runs a random
   sequence of inserts (committed or left pending), retires at rising
   heights, rollbacks, aborts, prunes, a late index on column 1 and
   snapshot round-trips. Then, for every index and random heights and
   ranges, [iter_index ~height] walks exactly the heap versions in range
   that are not aborted and were not deleted at or below [height], in key
   then vid order; without a height, every version in range that is not
   aborted. *)
type lifecycle_op =
  | Insert of int * int * bool  (* id, qty, committed *)
  | Retire of int  (* picks among live versions *)
  | Unretire of int  (* picks among retired versions *)
  | Abort of int  (* picks among versions not aborted *)
  | Advance
  | Prune of int  (* drops aborted versions and those deleted at or below it *)
  | Late_index
  | Restore

let show_lifecycle_op = function
  | Insert (id, qty, c) -> Printf.sprintf "Insert(%d,%d,%b)" id qty c
  | Retire i -> Printf.sprintf "Retire %d" i
  | Unretire i -> Printf.sprintf "Unretire %d" i
  | Abort i -> Printf.sprintf "Abort %d" i
  | Advance -> "Advance"
  | Prune h -> Printf.sprintf "Prune %d" h
  | Late_index -> "Late_index"
  | Restore -> "Restore"

let gen_lifecycle_op =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun id qty c -> Insert (id, qty, c)) (int_bound 5) (int_bound 3) bool);
        (3, map (fun i -> Retire i) nat);
        (1, map (fun i -> Unretire i) nat);
        (2, map (fun i -> Abort i) nat);
        (2, return Advance);
        (1, map (fun h -> Prune h) (int_bound 8));
        (1, return Late_index);
        (1, return Restore);
      ])

let gen_bound =
  QCheck.Gen.(
    frequency
      [
        (1, return Index.Unbounded);
        (2, map (fun k -> Index.Incl (Value.Int k)) (int_range (-1) 6));
        (1, map (fun k -> Index.Excl (Value.Int k)) (int_range (-1) 6));
      ])

let show_bound = function
  | Index.Unbounded -> "_"
  | Index.Incl v -> "[" ^ Value.to_string v
  | Index.Excl v -> "(" ^ Value.to_string v

let prop_index_split_matches_heap =
  let gen =
    QCheck.Gen.(
      pair (list_size (int_bound 60) gen_lifecycle_op)
        (list_size (int_range 1 8) (triple (int_range (-1) 12) gen_bound gen_bound)))
  in
  let print (ops, queries) =
    String.concat "; " (List.map show_lifecycle_op ops)
    ^ " | "
    ^ String.concat "; "
        (List.map
           (fun (h, lo, hi) -> Printf.sprintf "h=%d %s..%s" h (show_bound lo) (show_bound hi))
           queries)
  in
  QCheck.Test.make ~name:"index split = heap filter" ~count:300 (QCheck.make ~print gen)
    (fun (ops, queries) ->
      let t = ref (Table.create (sample_schema ())) in
      Table.add_index !t ~column:2 ~unique:false;
      let height = ref 1 in
      let versions pred =
        let acc = ref [] in
        Table.iter_versions !t (fun v -> if pred v then acc := v :: !acc);
        Array.of_list (List.rev !acc)
      in
      let pick pred i f =
        let vs = versions pred in
        if Array.length vs > 0 then f vs.(i mod Array.length vs)
      in
      let not_aborted v = not v.Version.xmin_aborted in
      let retired v = not_aborted v && v.Version.deleter_block <> Version.unset_block in
      List.iter
        (function
          | Insert (id, qty, committed) ->
              let v =
                Table.insert_version !t ~xmin:1
                  [| Value.Int id; Value.Text (string_of_int (id mod 2)); Value.Int qty |]
              in
              if committed then v.Version.creator_block <- !height
          | Retire i ->
              pick
                (fun v -> not_aborted v && v.Version.deleter_block = Version.unset_block)
                i
                (fun v -> Table.mark_deleted !t v ~xmax:2 ~height:!height)
          | Unretire i -> pick retired i (Table.unmark_deleted !t)
          | Abort i -> pick not_aborted i (Table.mark_aborted !t)
          | Advance -> incr height
          | Prune h ->
              ignore
                (Table.prune !t ~keep:(fun v -> not_aborted v && v.Version.deleter_block > h))
          | Late_index -> Table.add_index !t ~column:1 ~unique:false
          | Restore ->
              t :=
                Table.restore ~schema:(Table.schema !t) ~slots:(Table.heap_slots !t)
                  ~indexes:(Table.index_specs !t) ~pruned_total:(Table.pruned_total !t))
        ops;
      (match Table.check_visibility !t with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "incoherent: %s" e);
      let in_range lo hi key =
        (match lo with
        | Index.Unbounded -> true
        | Index.Incl b -> Value.compare_total key b >= 0
        | Index.Excl b -> Value.compare_total key b > 0)
        &&
        match hi with
        | Index.Unbounded -> true
        | Index.Incl b -> Value.compare_total key b <= 0
        | Index.Excl b -> Value.compare_total key b < 0
      in
      List.for_all
        (fun column ->
          List.for_all
            (fun (h, lo, hi) ->
              (* the text column holds "0"/"1": probe it with the same bounds as text *)
              let as_column = function
                | Index.Unbounded -> Index.Unbounded
                | (Index.Incl (Value.Int k) | Index.Excl (Value.Int k)) as b when column = 1 ->
                    let v = Value.Text (string_of_int k) in
                    (match b with Index.Incl _ -> Index.Incl v | _ -> Index.Excl v)
                | b -> b
              in
              let lo = as_column lo and hi = as_column hi in
              let expected keep =
                Array.to_list
                  (versions (fun v ->
                       keep v && in_range lo hi v.Version.values.(column)))
                |> List.stable_sort (fun a b ->
                       Value.compare_total a.Version.values.(column) b.Version.values.(column))
                |> List.map (fun v -> v.Version.vid)
              in
              let walk ?height () =
                let acc = ref [] in
                Table.iter_index ?height !t ~column ~lo ~hi (fun v -> acc := v.Version.vid :: !acc);
                List.rev !acc
              in
              walk ~height:h () = expected (fun v -> not_aborted v && v.Version.deleter_block > h)
              && walk () = expected not_aborted)
            queries)
        (Table.indexed_columns !t))

let test_catalog () =
  let c = Catalog.create () in
  Alcotest.(check bool) "ledger exists" true (Catalog.mem c Catalog.ledger_table);
  (match Catalog.create_table c (sample_schema ()) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match Catalog.create_table c (sample_schema ()) with
  | Ok _ -> Alcotest.fail "duplicate table accepted"
  | Error _ -> ());
  Alcotest.(check (list string)) "names" [ "items"; "pgledger" ] (Catalog.table_names c);
  (match Catalog.drop_table c Catalog.ledger_table with
  | Ok () -> Alcotest.fail "dropped system table"
  | Error _ -> ());
  (match Catalog.drop_table c "items" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "gone" false (Catalog.mem c "items")

let suites =
  [
    ( "storage.value",
      [
        Alcotest.test_case "total order" `Quick test_value_total_order;
        Alcotest.test_case "sql compare" `Quick test_value_sql_compare;
        Alcotest.test_case "conforms" `Quick test_value_conforms;
        Alcotest.test_case "encode distinct" `Quick test_value_encode_distinct;
      ] );
    ( "storage.schema",
      [
        Alcotest.test_case "validation" `Quick test_schema_validation;
        Alcotest.test_case "check_row" `Quick test_schema_check_row;
      ] );
    ( "storage.version",
      [
        Alcotest.test_case "visibility" `Quick test_version_visibility;
        Alcotest.test_case "gap detectors" `Quick test_version_gap_detectors;
      ] );
    ( "storage.index",
      [
        Alcotest.test_case "ranges" `Quick test_index_ranges;
        Alcotest.test_case "duplicates/remove" `Quick test_index_duplicates_and_remove;
        QCheck_alcotest.to_alcotest prop_index_range_matches_filter;
        QCheck_alcotest.to_alcotest prop_point_probe_matches_walk;
      ] );
    ("storage.predicate", [ Alcotest.test_case "matches" `Quick test_predicate_matches ]);
    ( "storage.table",
      [
        Alcotest.test_case "pk and indexes" `Quick test_table_pk_and_indexes;
        Alcotest.test_case "pk lookup allocation" `Quick test_pk_lookup_allocation;
        Alcotest.test_case "prune" `Quick test_table_prune;
        Alcotest.test_case "prune mid-workload keeps visibility coherent"
          `Quick test_prune_mid_workload_visibility;
        QCheck_alcotest.to_alcotest prop_index_split_matches_heap;
      ] );
    ("storage.catalog", [ Alcotest.test_case "basics" `Quick test_catalog ]);
  ]

let () = ignore value
