(* Observability: deterministic tracing, metrics registry, abort taxonomy,
   exporters, and the end-to-end guarantees (tracing is side-effect-free;
   traces are byte-identical for equal seeds). *)

module B = Brdb_core.Blockchain_db
module Chaos = Brdb_core.Chaos
module Value = Brdb_storage.Value
module Node_core = Brdb_node.Node_core
module Peer = Brdb_node.Peer
module Registry = Brdb_contracts.Registry
module Api = Brdb_contracts.Api
module Txn = Brdb_txn.Txn
module Trace = Brdb_obs.Trace
module Reg = Brdb_obs.Registry
module Abort_class = Brdb_obs.Abort_class
module Export = Brdb_obs.Export
module Critical_path = Brdb_obs.Critical_path

(* --- a tiny JSON validity parser (syntax only) ----------------------------- *)

exception Bad_json of string

let validate_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          fin := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ -> advance ()
    done
  in
  let parse_number () =
    let digits () =
      let seen = ref false in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        seen := true;
        advance ()
      done;
      if not !seen then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let literal lit =
    String.iter (fun c -> if peek () = Some c then advance () else fail lit) lit
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let fin = ref false in
          while not !fin do
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' ->
                advance ();
                fin := true
            | _ -> fail "expected , or }"
          done
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let fin = ref false in
          while not !fin do
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' ->
                advance ();
                fin := true
            | _ -> fail "expected , or ]"
          done
    | Some '"' -> parse_string ()
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "expected value"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let check_valid_json label s =
  match validate_json s with
  | () -> ()
  | exception Bad_json msg -> Alcotest.failf "%s: invalid JSON: %s" label msg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- tracing core ---------------------------------------------------------- *)

let test_null_tracer () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Trace.complete t ~node:"n" ~name:"x" ~ts:0. ~dur:1. ();
  Trace.instant t ~node:"n" ~name:"y" ();
  Trace.async_begin t ~node:"n" ~name:"z" ~id:"t1" ();
  Trace.async_end t ~node:"n" ~name:"z" ~id:"t1" ();
  Trace.Testing.counter t ~node:"n" ~name:"c" ~value:1. ();
  Alcotest.(check int) "no events recorded" 0 (List.length (Trace.events t));
  Alcotest.(check bool) "empty" true (Trace.events t = [])

let test_event_ordering () =
  let now = ref 0. in
  let t = Trace.create ~now:(fun () -> !now) () in
  Alcotest.(check bool) "enabled" true (Trace.enabled t);
  Trace.instant t ~node:"a" ~name:"first" ();
  now := 1.5;
  Trace.complete t ~node:"b" ~name:"span" ~ts:0.5 ~dur:1.
    ~args:[ ("k", Trace.I 7) ]
    ();
  Trace.instant t ~node:"a" ~name:"second" ();
  let evs = Trace.events t in
  Alcotest.(check (list int)) "dense seq" [ 0; 1; 2 ]
    (List.map (fun e -> e.Trace.seq) evs);
  Alcotest.(check (list string)) "emission order"
    [ "first"; "span"; "second" ]
    (List.map (fun e -> e.Trace.name) evs);
  let span = List.nth evs 1 in
  Alcotest.(check (float 0.)) "back-dated ts" 0.5 span.Trace.ts;
  Alcotest.(check (float 0.)) "dur" 1. span.Trace.dur;
  Alcotest.(check (float 0.)) "instant uses now" 1.5 (List.nth evs 2).Trace.ts

(* --- exporters ------------------------------------------------------------- *)

let sample_events () =
  let now = ref 0.001 in
  let t = Trace.create ~now:(fun () -> !now) () in
  Trace.async_begin t ~node:"client" ~cat:"txn" ~name:"lifecycle" ~id:"tx-1"
    ~args:[ ("user", Trace.S "org1/alice") ]
    ();
  Trace.complete t ~node:"db-org1" ~track:"block" ~cat:"block"
    ~name:"block 1" ~ts:0.001 ~dur:0.01
    ~args:
      [ ("height", Trace.I 1); ("f", Trace.F 0.25); ("ok", Trace.B true) ]
    ();
  now := 0.012;
  Trace.instant t ~node:"db-org1" ~track:"txn" ~name:"commit"
    ~args:[ ("quote\"new\nline", Trace.S "tab\there") ]
    ();
  Trace.async_end t ~node:"client" ~cat:"txn" ~name:"lifecycle" ~id:"tx-1" ();
  Trace.events t

let test_jsonl_export () =
  let evs = sample_events () in
  let out = Export.jsonl_string evs in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one line per event" (List.length evs)
    (List.length lines);
  List.iter (fun l -> check_valid_json "jsonl line" l) lines;
  (* byte-identical across renders of the same stream *)
  Alcotest.(check string) "deterministic" out (Export.jsonl_string evs)

let test_chrome_export () =
  let evs = sample_events () in
  let out = Export.chrome_string evs in
  check_valid_json "chrome trace" out;
  Alcotest.(check string) "deterministic" out (Export.chrome_string evs);
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
        (contains needle))
    [
      "\"traceEvents\"";
      "\"process_name\"";
      "\"thread_name\"";
      "\"ph\":\"X\"";
      "\"ph\":\"b\"";
      "\"ph\":\"e\"";
      "\"id\":\"tx-1\"";
    ]

let test_causal_export () =
  let t = Trace.create ~now:(fun () -> 0.5) () in
  Trace.complete t ~node:"db-org1" ~track:"block" ~cat:"block" ~name:"block 1"
    ~ts:0. ~dur:0.01 ~span:"block/1" ~parent:"order/1"
    ~args:[ ("height", Trace.I 1); ("local_ms", Trace.F 9.) ]
    ();
  Trace.instant t ~node:"db-org1" ~track:"txn" ~cat:"txn" ~name:"validate"
    ~parent:"exec/1" ~follows:"tx/a"
    ~args:[ ("tx", Trace.S "a"); ("reason", Trace.S "node-local detail") ]
    ();
  (* net-track events are delivery-dependent: excluded from the causal
     projection even on the projected node *)
  Trace.instant t ~node:"db-org1" ~track:"net" ~cat:"net" ~name:"block_deliver"
    ~span:"order/1" ();
  Trace.instant t ~node:"db-org2" ~track:"txn" ~cat:"txn" ~name:"validate"
    ~parent:"exec/1" ~follows:"tx/a"
    ~args:[ ("tx", Trace.S "a") ]
    ();
  (* a replayed duplicate (crash recovery re-emission) must deduplicate *)
  Trace.instant t ~node:"db-org1" ~track:"txn" ~cat:"txn" ~name:"validate"
    ~parent:"exec/1" ~follows:"tx/a"
    ~args:[ ("tx", Trace.S "a"); ("reason", Trace.S "node-local detail") ]
    ();
  let evs = Trace.events t in
  (* the causal fields render in both full exporters *)
  let jsonl = Export.jsonl_string evs in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("jsonl carries " ^ needle) true
        (contains jsonl needle))
    [ "\"span\":\"block/1\""; "\"parent\":\"order/1\""; "\"follows\":\"tx/a\"" ];
  check_valid_json "chrome with span contexts" (Export.chrome_string evs);
  let c1 = Export.Testing.causal_jsonl ~node:"db-org1" evs in
  let lines s = String.split_on_char '\n' (String.trim s) in
  List.iter (fun l -> check_valid_json "causal line" l) (lines c1);
  Alcotest.(check int) "block + validate, net excluded, replay deduped" 2
    (List.length (lines c1));
  Alcotest.(check bool) "node name normalized" true
    (contains c1 "\"node\":\"node\"" && not (contains c1 "db-org1"));
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " stripped from causal view") false
        (contains c1 needle))
    [ "\"ts\""; "\"dur\""; "\"seq\""; "local_ms"; "node-local detail" ];
  Alcotest.(check bool) "replicated args survive" true
    (contains c1 "\"height\"" && contains c1 "\"tx\"");
  (* db-org2 saw only the validate — its projection is that single line *)
  Alcotest.(check int) "other node projects its own events" 1
    (List.length (lines (Export.Testing.causal_jsonl ~node:"db-org2" evs)))

(* --- metrics percentiles ---------------------------------------------------- *)

let test_percentile_interpolation () =
  let p values q =
    let s = Reg.Stat.create () in
    List.iter (Reg.Stat.add s) values;
    Reg.Stat.percentile s q
  in
  (* linear interpolation at small n: rank (n-1)*p/100 between neighbors *)
  Alcotest.(check (float 1e-9)) "n=2 p50 is the midpoint" 2. (p [ 3.; 1. ] 50.);
  Alcotest.(check (float 1e-9)) "n=2 p95 interpolates" 2.9 (p [ 1.; 3. ] 95.);
  Alcotest.(check (float 0.)) "p0 = min" 1. (p [ 3.; 1. ] 0.);
  Alcotest.(check (float 0.)) "p100 = max" 3. (p [ 1.; 3. ] 100.);
  Alcotest.(check (float 0.)) "clamped below" 1. (p [ 1.; 3. ] (-20.));
  Alcotest.(check (float 0.)) "clamped above" 3. (p [ 1.; 3. ] 250.);
  Alcotest.(check (float 1e-9)) "odd n p50 is the median" 30.
    (p [ 50.; 10.; 40.; 20.; 30. ] 50.);
  Alcotest.(check (float 1e-9)) "even n p50 interpolates between middles" 25.
    (p [ 40.; 10.; 30.; 20. ] 50.)

(* --- registry -------------------------------------------------------------- *)

let test_registry_kinds () =
  let r = Reg.create () in
  Reg.incr r ~node:"a" "hits";
  Reg.incr ~by:4 r ~node:"a" "hits";
  Alcotest.(check int) "counter" 5 (Reg.counter r ~node:"a" "hits");
  Alcotest.(check int) "absent counter" 0 (Reg.counter r ~node:"z" "hits");
  Reg.set r ~node:"a" "depth" 3.5;
  Reg.set r ~node:"a" "depth" 4.5;
  let gauge name =
    match
      List.find_opt (fun e -> e.Reg.e_node = "a" && e.Reg.e_name = name) (Reg.snapshot r)
    with
    | Some e -> e.Reg.e_value
    | None -> 0.
  in
  Alcotest.(check (float 0.)) "gauge overwrites" 4.5 (gauge "depth");
  Reg.observe r ~node:"a" "lat" 1.;
  Reg.observe r ~node:"a" "lat" 3.;
  (match Reg.histogram r ~node:"a" "lat" with
  | Some s ->
      Alcotest.(check int) "hist count" 2 (Reg.Stat.count s);
      Alcotest.(check (float 0.)) "hist mean" 2. (Reg.Stat.mean s)
  | None -> Alcotest.fail "histogram missing");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry: metric \"hits\" is a counter, not a gauge")
    (fun () -> Reg.set r ~node:"a" "hits" 1.)

let test_registry_views () =
  let r = Reg.create () in
  (* insertion order deliberately scrambled; views must sort *)
  Reg.incr ~by:2 r ~node:"n2" "txn.committed";
  Reg.incr ~by:3 r ~node:"n1" "txn.committed";
  Reg.observe r ~node:"n2" "lat" 10.;
  Reg.observe r ~node:"n1" "lat" 2.;
  Reg.observe r ~node:"n1" "lat" 4.;
  Reg.set r ~node:"n1" "depth" 1.5;
  let keys = List.map (fun e -> (e.Reg.e_name, e.Reg.e_node)) (Reg.snapshot r) in
  Alcotest.(check (list (pair string string)))
    "snapshot sorted by (name, node)"
    [ ("depth", "n1"); ("lat", "n1"); ("lat", "n2");
      ("txn.committed", "n1"); ("txn.committed", "n2") ]
    keys;
  Alcotest.(check (list string)) "nodes sorted" [ "n1"; "n2" ]
    (List.sort_uniq compare (List.map (fun e -> e.Reg.e_node) (Reg.snapshot r)));
  Alcotest.(check int) "node view size" 3
    (List.length (List.filter (fun e -> e.Reg.e_node = "n1") (Reg.snapshot r)));
  let cluster = Reg.cluster_view r in
  let find name = List.find (fun e -> e.Reg.e_name = name) cluster in
  Alcotest.(check int) "counters sum" 5 (find "txn.committed").Reg.e_count;
  let lat = find "lat" in
  Alcotest.(check int) "histograms merge" 3 lat.Reg.e_count;
  Alcotest.(check (float 1e-9)) "merged max" 10. lat.Reg.e_max;
  List.iter
    (fun e -> Alcotest.(check string) "cluster node" "cluster" e.Reg.e_node)
    cluster

(* --- abort taxonomy -------------------------------------------------------- *)

let test_abort_classes () =
  let names = List.map Abort_class.to_string Abort_class.all in
  Alcotest.(check int) "class names distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  let check reason cls =
    Alcotest.(check string)
      (Txn.abort_reason_to_string reason)
      (Abort_class.to_string cls)
      (Abort_class.to_string (Abort_class.of_reason reason))
  in
  (* plain SSI rules vs the block-aware Table 2 rules of Brdb_ssi.Rules *)
  check (Txn.Ssi_conflict "dangerous-structure") Abort_class.Rw_antidependency;
  check (Txn.Ssi_conflict "pivot-committed-out") Abort_class.Rw_antidependency;
  List.iter
    (fun rule -> check (Txn.Ssi_conflict rule) Abort_class.Block_aware_commit)
    [
      "committed-out-conflict";
      "near-cross-block";
      "rw-cycle";
      "far-committed";
      "same-block-later";
      "far-cross-block";
    ];
  check (Txn.Ww_conflict 7) Abort_class.Lost_update;
  check Txn.Stale_read Abort_class.Stale_read;
  check Txn.Phantom_read Abort_class.Phantom_read;
  check (Txn.Duplicate_key "t.id=1") Abort_class.Uniqueness;
  check Txn.Duplicate_txid Abort_class.Duplicate_txid;
  check (Txn.Missing_index "t.v") Abort_class.Index_restriction;
  check (Txn.Blind_update "t") Abort_class.Index_restriction;
  check (Txn.Contract_error "boom") Abort_class.Contract_failure;
  check Txn.Update_conflict_on_deploy Abort_class.Deploy_conflict;
  (* fault-plane rollbacks are classed as chaos, not contract failures *)
  List.iter
    (fun marker -> check (Txn.Contract_error marker) Abort_class.Chaos_induced)
    [ "crash rollback"; "snapshot clamped by ordering" ]

(* --- end to end ------------------------------------------------------------ *)

let init_net ?(tracing = false) ?(flow = Node_core.Order_execute) () =
  let config =
    {
      (B.default_config ()) with
      B.flow;
      block_size = 5;
      block_timeout = 0.25;
      tracing;
    }
  in
  let net = B.create config in
  B.install_contract net ~name:"init"
    (Registry.Native
       (fun ctx ->
         ignore (Api.execute ctx "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")));
  (match
     B.install_contract_source net ~name:"put" "INSERT INTO kv VALUES ($1, $2)"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let admin = B.admin net "org1" in
  ignore (B.submit net ~user:admin ~contract:"init" ~args:[]);
  B.settle net;
  net

let run_workload net =
  let alice = B.register_user net "org1/alice" in
  let ids =
    List.init 12 (fun i ->
        B.submit net ~user:alice ~contract:"put"
          ~args:[ Value.Int (i mod 9); Value.Int i ])
  in
  B.settle net;
  List.map
    (fun id ->
      ( id,
        match B.status net id with
        | Some B.Committed -> "committed"
        | Some (B.Aborted r) -> "aborted:" ^ r
        | Some (B.Rejected r) -> "rejected:" ^ r
        | None -> "undecided" ))
    ids

let test_lifecycle_trace () =
  let net = init_net ~tracing:true () in
  let statuses = run_workload net in
  Alcotest.(check bool) "some tx committed" true
    (List.exists (fun (_, s) -> s = "committed") statuses);
  let evs = B.trace_events net in
  Alcotest.(check bool) "events recorded" true (evs <> []);
  let db_nodes = [ "db-org1"; "db-org2"; "db-org3" ] in
  let has node kind name =
    List.exists
      (fun e -> e.Trace.node = node && e.Trace.kind = kind && e.Trace.name = name)
      evs
  in
  (* submit → order → execute → validate → commit, on every node *)
  List.iter
    (fun node ->
      Alcotest.(check bool) (node ^ " execute span") true
        (has node Trace.Complete "execute");
      Alcotest.(check bool) (node ^ " commit span") true
        (has node Trace.Complete "commit");
      Alcotest.(check bool) (node ^ " validate instant") true
        (has node Trace.Instant "validate"))
    db_nodes;
  Alcotest.(check bool) "order span" true
    (List.exists
       (fun e ->
         e.Trace.kind = Trace.Complete && e.Trace.cat = "order"
         && e.Trace.dur >= 0.)
       evs);
  (* the client lifecycle opens and closes with the same transaction id *)
  let begins =
    List.filter_map
      (fun e -> if e.Trace.kind = Trace.Async_begin then Some e.Trace.id else None)
      evs
  in
  Alcotest.(check bool) "async begin recorded" true (begins <> []);
  List.iter
    (fun id ->
      Alcotest.(check bool) ("async end for " ^ id) true
        (List.exists
           (fun e -> e.Trace.kind = Trace.Async_end && e.Trace.id = id)
           evs))
    begins;
  (* per-operator executor stats ride along on the exec track *)
  Alcotest.(check bool) "exec stats instants" true
    (List.exists (fun e -> e.Trace.track = "exec" && e.Trace.name = "contract") evs);
  check_valid_json "end-to-end chrome export" (Export.chrome_string evs)

let test_tracing_is_neutral () =
  let run tracing =
    let net = init_net ~tracing ~flow:Node_core.Execute_order () in
    let statuses = run_workload net in
    let height = Node_core.height (Peer.core (B.peer net 0)) in
    let s = B.summary net ~duration_s:1.0 in
    (statuses, height, s.B.committed, s.B.aborted)
  in
  let off = run false and on = run true in
  let _, _, committed, _ = off in
  Alcotest.(check bool) "workload nontrivial" true (committed > 0);
  Alcotest.(check bool)
    "identical statuses, heights and summary with tracing on vs off" true
    (off = on)

let test_chaos_trace_deterministic () =
  let spec =
    {
      Chaos.default_spec with
      Chaos.seed = 11;
      rate = 80.;
      duration = 0.8;
      crashes = 1;
      partitions = 0;
      tracing = true;
    }
  in
  let r1 = Chaos.run spec and r2 = Chaos.run spec in
  Alcotest.(check bool) "converged" true r1.Chaos.converged;
  Alcotest.(check (list string)) "no decision mismatches" []
    r1.Chaos.decision_mismatches;
  Alcotest.(check string) "fingerprints equal" r1.Chaos.fingerprint
    r2.Chaos.fingerprint;
  Alcotest.(check bool) "trace non-empty" true (r1.Chaos.trace_jsonl <> "");
  Alcotest.(check bool) "JSONL byte-identical across runs" true
    (String.equal r1.Chaos.trace_jsonl r2.Chaos.trace_jsonl)

let causal_decision_names = [ "validate"; "commit"; "abort"; "reject" ]

(* Shared connectivity check: every per-transaction decision instant must be
   reachable from its transaction's submit span (the follows edge lands on an
   Async_begin that opened [tx/<id>]) and hang off a span chain rooted at the
   ordering service ([order/<h>]). *)
let check_connected ~fail evs =
  let spans = Hashtbl.create 256 in
  List.iter
    (fun e -> if e.Trace.span <> "" then Hashtbl.replace spans e.Trace.span e)
    evs;
  let submit_spans = Hashtbl.create 256 in
  List.iter
    (fun e ->
      if e.Trace.kind = Trace.Async_begin then
        Hashtbl.replace submit_spans e.Trace.span ())
    evs;
  let rec root_of ctx depth =
    if depth > 8 then ctx
    else
      match Hashtbl.find_opt spans ctx with
      | Some e when e.Trace.parent <> "" -> root_of e.Trace.parent (depth + 1)
      | _ -> ctx
  in
  let checked = ref 0 in
  List.iter
    (fun e ->
      if
        e.Trace.track = "txn"
        && e.Trace.kind = Trace.Instant
        && List.mem e.Trace.name causal_decision_names
      then begin
        incr checked;
        if not (starts_with ~prefix:"tx/" e.Trace.follows) then
          fail
            (Printf.sprintf "%s on %s has no tx/ follows edge (got %S)"
               e.Trace.name e.Trace.node e.Trace.follows);
        if not (Hashtbl.mem submit_spans e.Trace.follows) then
          fail
            (Printf.sprintf "%s on %s follows %S, but no submit span opened it"
               e.Trace.name e.Trace.node e.Trace.follows);
        if not (Hashtbl.mem spans e.Trace.parent) then
          fail
            (Printf.sprintf "%s on %s has unresolved parent %S" e.Trace.name
               e.Trace.node e.Trace.parent);
        let root = root_of e.Trace.parent 0 in
        if not (starts_with ~prefix:"order/" root) then
          fail
            (Printf.sprintf "%s on %s roots at %S, not an order span"
               e.Trace.name e.Trace.node root)
      end)
    evs;
  !checked

let test_causal_cross_node () =
  let net = init_net ~tracing:true () in
  ignore (run_workload net);
  let evs = B.trace_events net in
  let proj node = Export.Testing.causal_jsonl ~node evs in
  let reference = proj "db-org1" in
  Alcotest.(check bool) "causal projection non-empty" true (reference <> "");
  List.iter
    (fun node ->
      Alcotest.(check string)
        (node ^ " causal projection byte-identical")
        reference (proj node))
    [ "db-org2"; "db-org3" ];
  let checked = check_connected ~fail:Alcotest.fail evs in
  Alcotest.(check bool) "decision instants were checked" true (checked > 0)

let prop_causal_traces_agree_under_chaos =
  (* Satellite 3: under a seeded fault schedule (loss, duplication, a
     healing partition, a crash/restart cycle), every node's causal
     projection — spans with parent/follows edges, node-local data
     stripped — is byte-identical, and the trace stays *connected*: each
     validate/commit/abort instant reaches its submit span and an order
     root. Replay after recovery re-emits spans; the projection dedupes. *)
  QCheck.Test.make
    ~name:"chaos: causal trace identical across nodes and connected" ~count:5
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 9999))
    (fun seed ->
      let spec =
        {
          Chaos.default_spec with
          Chaos.seed;
          rate = 90.;
          duration = 0.7;
          block_size = 6;
          drop = 0.02 +. (0.005 *. float_of_int (seed mod 5));
          duplicate = float_of_int (seed mod 3) /. 100.;
          crashes = seed mod 2;
          partitions = (seed + 1) mod 2;
          tracing = true;
        }
      in
      let r = Chaos.run spec in
      if not r.Chaos.converged then
        QCheck.Test.fail_reportf "seed %d diverged: %a" seed Chaos.pp_report r;
      let evs = r.Chaos.trace_events in
      if evs = [] then QCheck.Test.fail_reportf "seed %d: no trace events" seed;
      let proj node = Export.Testing.causal_jsonl ~node evs in
      let reference = proj "db-org1" in
      if reference = "" then
        QCheck.Test.fail_reportf "seed %d: empty causal projection" seed;
      List.iter
        (fun node ->
          let got = proj node in
          if got <> reference then
            QCheck.Test.fail_reportf
              "seed %d: causal projection differs between db-org1 and %s" seed
              node)
        [ "db-org2"; "db-org3" ];
      let checked =
        check_connected
          ~fail:(fun msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)
          evs
      in
      if checked = 0 then
        QCheck.Test.fail_reportf "seed %d: no decision instants traced" seed;
      true)

(* --- critical path: levelization and wave schedule (ISSUE 8) -------------- *)

let test_critical_path_diamond () =
  (* 0 -> {1, 2} -> 3: two parallel middles between a source and a sink *)
  let input =
    {
      Critical_path.n = 4;
      weights = [| 1.; 1.; 1.; 1. |];
      edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ];
    }
  in
  let r = Critical_path.analyze input in
  Alcotest.(check (float 1e-9)) "serial" 4. r.Critical_path.serial_s;
  Alcotest.(check (float 1e-9)) "critical" 3. r.Critical_path.critical_s;
  Alcotest.(check int) "waves" 3 r.Critical_path.waves;
  Alcotest.(check (array int)) "schedule" [| 0; 1; 1; 2 |]
    (Critical_path.schedule ~n:input.n ~edges:input.edges)

let test_critical_path_levelization_all_preds () =
  (* depth must be 1 + max over ALL predecessors, not just the heaviest:
     0 has weight 0, so the weighted longest path to 1 and 2 ignores it,
     but the wave schedule still must place them after 0 *)
  let input =
    {
      Critical_path.n = 3;
      weights = [| 0.; 1.; 1. |];
      edges = [ (0, 1); (0, 2) ];
    }
  in
  let r = Critical_path.analyze input in
  Alcotest.(check int) "waves counts the edge" 2 r.Critical_path.waves;
  Alcotest.(check (array int)) "fan-out schedule" [| 0; 1; 1 |]
    (Critical_path.schedule ~n:input.n ~edges:input.edges);
  (* independent positions all land in wave 0 *)
  Alcotest.(check (array int)) "no edges -> one wave" [| 0; 0; 0 |]
    (Critical_path.schedule ~n:3 ~edges:[])

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "null tracer is a no-op" `Quick test_null_tracer;
        Alcotest.test_case "event ordering" `Quick test_event_ordering;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "jsonl" `Quick test_jsonl_export;
        Alcotest.test_case "chrome trace_event" `Quick test_chrome_export;
        Alcotest.test_case "causal projection" `Quick test_causal_export;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "percentile interpolation at small n" `Quick
          test_percentile_interpolation;
      ] );
    ( "obs.registry",
      [
        Alcotest.test_case "kinds" `Quick test_registry_kinds;
        Alcotest.test_case "views and aggregation" `Quick test_registry_views;
      ] );
    ( "obs.abort-class",
      [ Alcotest.test_case "taxonomy mapping" `Quick test_abort_classes ] );
    ( "obs.critical-path",
      [
        Alcotest.test_case "diamond DAG" `Quick test_critical_path_diamond;
        Alcotest.test_case "levelization over all predecessors" `Quick
          test_critical_path_levelization_all_preds;
      ] );
    ( "obs.e2e",
      [
        Alcotest.test_case "lifecycle spans on every node" `Quick
          test_lifecycle_trace;
        Alcotest.test_case "tracing changes nothing" `Quick
          test_tracing_is_neutral;
        Alcotest.test_case "chaos trace byte-identical" `Quick
          test_chaos_trace_deterministic;
        Alcotest.test_case "causal projection identical across nodes" `Quick
          test_causal_cross_node;
        QCheck_alcotest.to_alcotest prop_causal_traces_agree_under_chaos;
      ] );
  ]
