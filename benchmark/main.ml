(* Wall-clock benchmark of the order-then-execute (§3.3) and
   execute-order-in-parallel (§3.4) flows, end to end and per layer.

     main.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--out FILE]
     main.exe --seed N ...     every workload, each in its own child process
     main.exe --smoke          every workload at 1/20 length

   One run of a workload sets up a fresh simulated cluster, drives the
   workload through the public API of Blockchain_db and Session, settles,
   replays peer 0's block stream into a fresh Node_core, and checks the
   results. The last line of standard output is the JSON result; the exit
   code is non-zero when any correctness check fails. See README.md. *)

module B = Brdb_core.Blockchain_db
module Session = Brdb_client.Session
module Admission = Brdb_client.Admission
module Proof = Brdb_client.Proof
module Node_core = Brdb_node.Node_core
module Peer = Brdb_node.Peer
module Identity = Brdb_crypto.Identity
module Value = Brdb_storage.Value
module Exec = Brdb_engine.Exec
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng
module W = Workloads

(* --- samples, counters, failures ------------------------------------------- *)

let samples : (string, Wall.sample list) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace samples name (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let get name = Option.value (Hashtbl.find_opt samples name) ~default:[]

let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let bump ?(by = 1) name =
  Hashtbl.replace counters name (by + Option.value (Hashtbl.find_opt counters name) ~default:0)

let count name = Option.value (Hashtbl.find_opt counters name) ~default:0

(* Operations that returned an error, and failed correctness checks. *)
let op_errors = ref []

let op_error msg = op_errors := msg :: !op_errors

let failed_checks = ref []

let check name ok = if not ok then failed_checks := name :: !failed_checks

(* [timed name f]: [f ()] inside a span, its wall time added to
   [name]'s samples. *)
let timed ?group name f =
  let r, s = Wall.measure (fun () -> Wall.span ?group name f) in
  add name s;
  r

(* Simulated submit-to-commit latencies (modeled, seconds). *)
let sim_latency = ref []

(* Traced: (write-set leaves, chained roots) of each provenance proof. *)
let proof_shapes = ref []

(* --- set-up ------------------------------------------------------------------ *)

type env = { db : B.t; users : Identity.t array; seed_height : int }

let setup kind ~seed =
  let db = B.create (W.config kind ~seed) in
  List.iter (fun (name, body) -> B.install_contract db ~name body) (Lazy.force W.contracts);
  let users =
    Array.init W.sessions (fun i ->
        B.register_user db (Printf.sprintf "org%d/client-%d" ((i mod 3) + 1) i))
  in
  let admin = B.admin db "org1" in
  let commit contract args =
    Wall.calibrate ();
    let id = B.submit db ~user:admin ~contract ~args in
    B.settle db;
    if B.status db id <> Some B.Committed then failwith ("set-up: " ^ contract ^ " did not commit")
  in
  commit "bm_schema" [];
  List.iter
    (fun (table, first, n) -> commit "bm_load" [ Value.Text table; Value.Int first; Value.Int n ])
    (W.loads kind);
  match List.map (fun p -> Node_core.height (Peer.core p)) (B.peers db) with
  | h :: rest when List.for_all (( = ) h) rest -> { db; users; seed_height = h }
  | _ -> failwith "set-up: peers stopped at different heights"

(* --- transaction tracking ----------------------------------------------------- *)

(* Submitted, undecided: simulated submit time and deposit amount. *)
let pending : (string, float * int) Hashtbl.t = Hashtbl.create 4096

let track db id amount =
  bump "shipped";
  Hashtbl.replace pending id (Clock.now (B.clock db), amount)

let watch db =
  B.on_decided db (fun ~tx_id status ->
      match Hashtbl.find_opt pending tx_id with
      | None -> ()
      | Some (submitted_at, amount) -> (
          Hashtbl.remove pending tx_id;
          match status with
          | B.Committed ->
              bump "committed";
              bump ~by:amount "deposited";
              sim_latency := (Clock.now (B.clock db) -. submitted_at) :: !sim_latency
          | B.Aborted _ -> ()
          | B.Rejected _ -> bump "rejected"))

(* --- readers ------------------------------------------------------------------- *)

(* A client's read path on one peer: a session in the EO flow; in the OE
   flow, which has no sessions, the same pinned read and provenance proof
   that Session.read / read_verified perform, on the peer's Node_core. *)
type reader = {
  node : int;
  read : table:string -> key:Value.t -> Value.t array option;
  verified : table:string -> key:Value.t -> (Proof.provenance, string) result;
  close : unit -> unit;
}

let session_reader s =
  {
    node = Session.peer_index s;
    read = Session.read s;
    verified =
      (fun ~table ~key -> Result.map (fun (_, pv, _) -> pv) (Session.read_verified s ~table ~key));
    close = (fun () -> Session.close s);
  }

let core_reader db node =
  let core = Peer.core (B.peer db node) in
  let read ~table ~key =
    snd (Admission.pin_read core ~table ~key ~height:(Node_core.height core))
  in
  let verified ~table ~key =
    let pin, values = Admission.pin_read core ~table ~key ~height:(Node_core.height core) in
    match (values, pin.Admission.p_creator) with
    | Some values, Some creator -> (
        match
          Proof.build_provenance core ~height:creator
            ~matches:(Proof.row_write_matches ~table ~values)
        with
        | Error e -> Error e
        | Ok pv ->
            if Proof.verify_provenance ~tip_digest:(Proof.tip_digest core) pv then Ok pv
            else Error "provenance proof failed verification")
    | _ -> Error "no visible row"
  in
  { node; read; verified; close = ignore }

let do_read ~group r ~table ~key =
  if timed ~group "client.read" (fun () -> r.read ~table ~key) = None then
    op_error (Printf.sprintf "read %s[%s]: no row" table (Value.to_string key))

let do_query db ~group r sql param ~expect =
  if !Wall.enabled then ignore (timed ~group "sql.parse" (fun () -> Brdb_sql.Parser.parse sql));
  match timed ~group "core.query" (fun () -> B.query db ~node:r.node ~params:[| param |] sql) with
  | Ok { Exec.rows = [ [| _; Value.Int n |] ]; _ } when n = expect -> ()
  | Ok _ -> op_error (Printf.sprintf "%s: expected %d rows aggregated" sql expect)
  | Error e -> op_error (sql ^ ": " ^ e)

(* Traced: the proof split into its build and verify halves, re-run on
   the same inputs beside the verified read. *)
let proof_split db ~group node (pv : Proof.provenance) =
  let core = Peer.core (B.peer db node) in
  match
    timed ~group "client.proof_build" (fun () ->
        Proof.build_provenance core ~height:pv.Proof.pv_height
          ~matches:(String.equal pv.Proof.pv_entry))
  with
  | Error e -> op_error ("proof rebuild: " ^ e)
  | Ok pv ->
      let ok =
        timed ~group "client.proof_verify" (fun () ->
            Proof.verify_provenance ~tip_digest:(Proof.tip_digest core) pv)
      in
      if not ok then op_error "proof re-verification failed";
      let leaves =
        Option.value (Node_core.write_set_entries_at core ~height:pv.Proof.pv_height) ~default:[]
      in
      proof_shapes := (List.length leaves, List.length pv.Proof.pv_roots) :: !proof_shapes

let do_verified db ~group r ~table ~key =
  match timed ~group "client.read_verified" (fun () -> r.verified ~table ~key) with
  | Error e -> op_error (Printf.sprintf "verified read %s[%s]: %s" table (Value.to_string key) e)
  | Ok pv -> if !Wall.enabled then proof_split db ~group r.node pv

(* --- windows --------------------------------------------------------------------- *)

let tick_s = 0.05

(* Reader calls between the write workloads' simulated 50 ms slices:
   point reads and aggregates per tick, a verified read every few ticks. *)
let reads_per_tick = 4

let proof_every = 2

let orders_agg = "SELECT SUM(qty), COUNT(*) FROM orders WHERE customer_id = $1"

let accounts_agg = "SELECT SUM(bal), COUNT(*) FROM accounts WHERE branch = $1"

let probe env ~hub ~rng ~tick =
  let group = Printf.sprintf "probe/%d" tick in
  let r =
    match hub with
    | Some hub -> session_reader (Session.begin_ hub ~user:env.users.(tick mod W.sessions))
    | None -> core_reader env.db (tick mod List.length (B.peers env.db))
  in
  for _ = 1 to reads_per_tick do
    do_read ~group r ~table:"kvstore" ~key:(Value.Int (Rng.int rng W.kv_rows));
    do_query env.db ~group r orders_agg
      (Value.Int (Rng.int rng W.n_customers))
      ~expect:(W.n_orders / W.n_customers)
  done;
  if tick mod proof_every = 0 then
    do_verified env.db ~group r ~table:"kvstore" ~key:(Value.Int (Rng.int rng W.rows_per_load));
  r.close ()

(* Open loop: each arrival is a clock event at its due time, so B.submit
   fires exactly when due and the generator never runs late. *)
let open_loop env kind ~hub ~rng ~sim_seconds =
  let db = env.db in
  let clock = B.clock db in
  let t0 = Clock.now clock in
  let calls = W.arrivals kind (Rng.split rng) ~sim_seconds in
  let probe_rng = Rng.split rng in
  let n = ref 0 in
  let rec arm = function
    | [] -> ()
    | (c : W.call) :: rest ->
        Clock.schedule_at clock ~time:(t0 +. c.W.due) (fun () ->
            let user = env.users.(!n mod W.sessions) in
            incr n;
            let id =
              timed ~group:"submit" "core.submit" (fun () ->
                  B.submit db ~user ~contract:c.W.contract ~args:c.W.args)
            in
            track db id 0;
            arm rest)
  in
  arm calls;
  let ticks = int_of_float (Float.ceil (sim_seconds /. tick_s)) in
  for tick = 1 to ticks do
    Wall.calibrate ();
    timed "core.run" (fun () -> B.run db ~seconds:tick_s);
    probe env ~hub ~rng:probe_rng ~tick
  done

(* Closed loop of 16 logical sessions called in turn, one round every
   50 simulated ms. *)
let sessions_loop env hub ~rng ~sim_seconds =
  let db = env.db in
  let rounds = int_of_float (Float.round (sim_seconds /. W.round_gap)) in
  for round = 0 to rounds - 1 do
    Wall.calibrate ();
    for s = 0 to W.sessions - 1 do
      let index = (round * W.sessions) + s in
      let t = W.turn rng ~index in
      let group = Printf.sprintf "session/%d" index in
      let sess = Session.begin_ hub ~user:env.users.(s) in
      let r = session_reader sess in
      do_read ~group r ~table:"accounts" ~key:(Value.Int t.W.read_key);
      do_query db ~group r accounts_agg (Value.Int t.W.branch)
        ~expect:(W.n_accounts / W.n_branches);
      Option.iter
        (fun k -> do_verified db ~group r ~table:"accounts" ~key:(Value.Int k))
        t.W.verified_key;
      match
        timed ~group "core.submit" (fun () ->
            Session.submit sess ~contract:"bm_deposit"
              ~args:[ Value.Int t.W.deposit_key; Value.Int t.W.amount; Value.Int index ])
      with
      | Session.Submitted id -> track db id t.W.amount
      | Session.Early_abort _ -> bump "early_aborts"
    done;
    timed "core.run" (fun () -> B.run db ~seconds:W.round_gap)
  done

(* --- metrics ----------------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let metric ?(n = 0) m_name m_unit m_value = { m_name; m_value; m_unit; m_n = n }

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

let query_int db sql =
  match B.query db sql with
  | Ok { Exec.rows = [ row ]; _ } ->
      Array.map (function Value.Int n -> n | Value.Float f -> int_of_float f | _ -> 0) row
  | Ok _ -> failwith (sql ^ ": unexpected result shape")
  | Error e -> failwith (sql ^ ": " ^ e)

(* --- one workload run --------------------------------------------------------------- *)

(* Set-ups timed per run; the median is setup_s. *)
let setups = 3

type result = { e2e : metric list; layers : metric list; attempted : int; failed : int }

let run_workload kind ~seed ~length ~trace ~trace_out =
  let shape = W.shape kind in
  let sim_seconds = shape.W.sim_seconds *. length in
  let env, setup1 = Wall.measure (fun () -> setup kind ~seed) in
  let db = env.db in
  watch db;
  let hub = if shape.W.flow = Node_core.Execute_order then Some (Session.create_hub db) else None in
  let rng = Rng.create ~seed in
  Wall.enabled := trace;
  let (), window =
    Wall.measure (fun () ->
        (match (kind, hub) with
        | W.Eo_sessions, Some hub -> sessions_loop env hub ~rng ~sim_seconds
        | _ -> open_loop env kind ~hub ~rng ~sim_seconds);
        timed "core.settle" (fun () -> B.settle db))
  in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let live_mb =
    if trace then begin
      Gc.full_major ();
      float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
    end
    else 0.
  in
  (* checks on the cluster's final state *)
  check "no transaction undecided after settle" (Hashtbl.length pending = 0);
  let committed = count "committed" in
  let attempted_txs = count "shipped" + count "early_aborts" in
  (match kind with
  | W.Oe_insert | W.Eo_group -> check "every transaction commits" (committed = attempted_txs)
  | W.Oe_hot_rmw ->
      List.iteri
        (fun node _ ->
          match B.query db ~node "SELECT SUM(v) FROM kvstore WHERE k < 0" with
          | Ok { Exec.rows = [ [| Value.Int s |] ]; _ } ->
              check "hot-row SUM(v) equals committed increments" (s = committed)
          | _ -> check "hot-row SUM(v) query" false)
        (B.peers db)
  | W.Eo_sessions ->
      List.iteri
        (fun node _ ->
          match B.query db ~node "SELECT SUM(bal) FROM accounts" with
          | Ok { Exec.rows = [ [| Value.Int s |] ]; _ } ->
              check "total balance equals preload plus committed deposits"
                (s = (W.n_accounts * W.opening_balance) + count "deposited")
          | _ -> check "total balance query" false)
        (B.peers db));
  check "no rejected transaction" (count "rejected" = 0);
  let versions_per_live =
    if trace then
      let r = query_int db "SELECT SUM(versions), SUM(live) FROM sys.tables" in
      float_of_int r.(0) /. float_of_int (max 1 r.(1))
    else 0.
  in
  let obs_samples =
    if trace then begin
      ignore (timed "obs.sys_metrics" (fun () -> B.query db "SELECT * FROM sys.metrics"));
      float_of_int (query_int db "SELECT SUM(n) FROM sys.metrics WHERE kind = 'histogram'").(0)
    end
    else 0.
  in
  (* Two replays into fresh nodes; a block's time is the lower of its two
     measurements, which filters out most of the host's sub-millisecond
     stalls. The second replay records no spans. *)
  let rp = Replay.run db kind ~seed_height:env.seed_height in
  let rp2 = Wall.untraced (fun () -> Replay.run db kind ~seed_height:env.seed_height) in
  List.iter
    (fun p ->
      let core = Peer.core p in
      check "every peer reaches the replayed height"
        (Node_core.height core = rp.Replay.final_height);
      List.iter
        (fun (r : Replay.result) ->
          check "replayed state digest equals every peer's"
            (r.Replay.digest <> None
            && Node_core.state_digest core ~height:rp.Replay.final_height = r.Replay.digest))
        [ rp; rp2 ])
    (B.peers db);
  if trace then Replay.cut db kind rp.Replay.window_txs;
  let window_txs = List.length rp.Replay.window_txs in
  (* extra set-ups, after the window so they leave heap_peak_mb alone *)
  let setup_runs =
    if trace then [ setup1 ]
    else setup1 :: List.init (setups - 1) (fun _ -> snd (Wall.measure (fun () -> setup kind ~seed)))
  in
  (* every timing at the reference kernel's nominal speed *)
  let sl = Wall.slowness () in
  let over = Wall.normalize_span sl in
  let values name = List.map (Wall.normalize sl) (get name) in
  let n name = List.length (get name) in
  let pct name p scale = Wall.percentile (values name) p *. scale in
  let block_ms =
    List.map2
      (fun a b -> Float.min (Wall.normalize sl a) (Wall.normalize sl b) *. 1e3)
      rp.Replay.blocks rp2.Replay.blocks
  in
  let e2e =
    [
      metric ~n:(List.length setup_runs) "setup_s" "s" (Wall.median (List.map over setup_runs));
      metric ~n:committed "commit_tps_wall" "tx/s" (float_of_int committed /. over window);
      metric ~n:(List.length block_ms) "block_ms_p50" "ms" (Wall.percentile block_ms 50.);
      metric ~n:(List.length block_ms) "block_ms_p90" "ms" (Wall.percentile block_ms 90.);
      metric ~n:attempted_txs "commit_frac" "ratio"
        (float_of_int committed /. float_of_int (max 1 attempted_txs));
      metric ~n:(List.length !sim_latency) "sim_latency_p50_s" "s"
        (Wall.percentile !sim_latency 50.);
      metric ~n:(List.length !sim_latency) "sim_latency_p99_s" "s"
        (Wall.percentile !sim_latency 99.);
      metric "heap_peak_mb" "MB" heap_peak_mb;
      metric ~n:(n "client.read") "read_us_p50" "us" (pct "client.read" 50. 1e6);
      metric ~n:(n "core.query") "query_us_p50" "us" (pct "core.query" 50. 1e6);
      metric ~n:(n "core.query") "query_us_p90" "us" (pct "core.query" 90. 1e6);
      metric ~n:(n "client.read_verified") "proof_us_p50" "us" (pct "client.read_verified" 50. 1e6);
      metric ~n:(n "client.read_verified") "proof_us_p90" "us" (pct "client.read_verified" 90. 1e6);
    ]
  in
  let layers =
    if not trace then []
    else
      let ints l = List.map float_of_int l in
      (* median microseconds of a layer's spans; 0 where the layer does no
         work on this workload *)
      let p50_us name =
        match Wall.durations sl name with [] -> 0. | d -> Wall.median d *. 1e6
      in
      let leaves, roots = List.split !proof_shapes in
      [
        metric "core.submit_us" "us" (p50_us "core.submit");
        metric "core.run_s" "s" (sum (values "core.run") +. sum (values "core.settle"));
        metric "consensus.cut_us" "us"
          (sum (Wall.durations sl "consensus.cut") *. 1e6 /. float_of_int (max 1 window_txs));
        metric "crypto.verify_tx_us" "us" (p50_us "crypto.verify_tx");
        metric "crypto.block_verify_us" "us" (p50_us "crypto.block_verify");
        metric "crypto.ws_root_us" "us" (p50_us "crypto.ws_root");
        metric "crypto.ws_entries" "count" (mean (ints rp.Replay.ws_entries));
        metric "ssi.detect_ms" "ms" (p50_us "ssi.detect" /. 1e3);
        metric "ssi.pairs" "count" (mean (ints rp.Replay.pairs));
        metric "ssi.edges" "count" (mean (ints rp.Replay.edges));
        metric "node.pre_execute_us" "us" (p50_us "node.pre_execute");
        metric "node.abort_frac" "ratio"
          (float_of_int rp.Replay.aborts /. float_of_int (max 1 rp.Replay.statuses));
        metric "storage.versions_per_live" "ratio" versions_per_live;
        metric "engine.query_us" "us" (p50_us "engine.query");
        metric "engine.visited_per_tx" "count"
          (float_of_int rp.Replay.visited /. float_of_int (max 1 window_txs));
        metric "sql.parse_us" "us" (p50_us "sql.parse");
        metric "client.proof_build_us" "us" (p50_us "client.proof_build");
        metric "client.proof_verify_us" "us" (p50_us "client.proof_verify");
        metric "client.proof_leaves" "count" (Wall.median (ints leaves));
        metric "client.proof_roots" "count" (Wall.median (ints roots));
        metric "client.early_aborts" "count" (float_of_int (count "early_aborts"));
        metric "obs.samples" "count" obs_samples;
        metric "obs.sys_metrics_ms" "ms" (p50_us "obs.sys_metrics" /. 1e3);
        metric "mem.live_mb" "MB" live_mb;
        metric "host.slowness" "ratio" sl.Wall.overall;
        (* too noisy on a shared VM to gate: see README.md *)
        metric ~n:(n "client.read") "client.read_us_p90" "us" (pct "client.read" 90. 1e6);
      ]
  in
  (match trace_out with Some path when trace -> Wall.write_chrome_trace path | _ -> ());
  List.iter
    (fun m -> check (m.m_name ^ " is measured") (Float.is_finite m.m_value))
    (e2e @ layers);
  let reads = n "client.read" + n "core.query" + n "client.read_verified" in
  (* Conflict aborts and early aborts are decided outcomes, reported by
     commit_frac; they fail an operation only where nothing contends. *)
  let unexpected_aborts =
    match kind with W.Oe_insert | W.Eo_group -> attempted_txs - committed | _ -> 0
  in
  Printf.printf "%s host slowness %.3f (median kernel time / nominal, %d kernel runs)\n"
    (W.name kind) sl.Wall.overall (List.length !Wall.kernel_runs);
  {
    e2e;
    layers;
    attempted = attempted_txs + reads;
    failed =
      List.length !op_errors + Hashtbl.length pending + count "rejected" + unexpected_aborts;
  }

(* --- output ----------------------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Wall.json_string m.m_name)
           (json_number m.m_value) (Wall.json_string m.m_unit))
       ms)

let print_metric workload m =
  Printf.printf "%s %s %.6g %s%s\n" workload m.m_name m.m_value m.m_unit
    (if m.m_n > 0 then Printf.sprintf " (n=%d)" m.m_n else "")

let print_layer_table () =
  Printf.printf "%-28s %8s %12s %12s %12s\n" "layer span (raw wall time)" "count" "total_s"
    "self_s" "p50_us";
  List.iter
    (fun (l : Wall.layer_row) ->
      Printf.printf "%-28s %8d %12.4f %12.4f %12.2f\n" l.Wall.l_name l.Wall.l_count
        l.Wall.l_total_s l.Wall.l_self_s (l.Wall.l_p50_s *. 1e6))
    (Wall.layer_table ())

let single kind ~seed ~length ~trace ~trace_out ~out =
  let workload = W.name kind in
  let r = run_workload kind ~seed ~length ~trace ~trace_out in
  List.iter (print_metric workload) r.e2e;
  if trace then begin
    List.iter (print_metric workload) r.layers;
    print_layer_table ()
  end;
  List.iter (fun e -> Printf.printf "%s operation error: %s\n" workload e) (List.rev !op_errors);
  List.iter (fun c -> Printf.printf "%s CHECK FAILED: %s\n" workload c) (List.rev !failed_checks);
  let correct = !failed_checks = [] && !op_errors = [] in
  (* The traced run reports its own end-to-end metrics under traced.*, so
     the tracing overhead shows beside the untraced runs. *)
  let reported =
    if not trace then r.e2e
    else
      r.layers
      @ List.filter_map
          (fun m ->
            if m.m_name = "commit_tps_wall" || m.m_name = "block_ms_p50" then
              Some { m with m_name = "traced." ^ m.m_name }
            else None)
          r.e2e
  in
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Printf.fprintf oc
        "{\"workload\": %s, \"seed\": %d, \"trace\": %d, \"correct\": %b, \"metrics\": {%s}}\n"
        (Wall.json_string workload) seed (Bool.to_int trace) correct
        (json_metrics (r.e2e @ r.layers));
      close_out oc);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed (json_metrics reported);
  if not correct then exit 1

(* Every workload, one fresh child process each (so heap_peak_mb is that
   workload's alone), one at a time. With tracing, each workload runs
   untraced and then traced, and the two runs' end-to-end metrics are
   printed side by side: the change is the tracing overhead. *)
let all_workloads ~args ~trace =
  let run_child kind ~trace =
    let argv =
      Array.of_list
        (Sys.executable_name :: "--workload" :: W.name kind :: "--trace"
        :: (if trace then "1" else "0")
        :: args)
    in
    let ic = Unix.open_process_args_in Sys.executable_name argv in
    let metrics = ref [] in
    (try
       while true do
         let line = input_line ic in
         print_endline line;
         match String.split_on_char ' ' line with
         | [ w; name; value; _unit ] | [ w; name; value; _unit; _ ] when w = W.name kind -> (
             match float_of_string_opt value with
             | Some v -> metrics := (name, v) :: !metrics
             | None -> ())
         | _ -> ()
       done
     with End_of_file -> ());
    let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
    (ok, !metrics)
  in
  let ok =
    List.fold_left
      (fun ok kind ->
        let ok1, plain = run_child kind ~trace:false in
        if not trace then ok && ok1
        else begin
          let ok2, traced = run_child kind ~trace:true in
          Printf.printf "%-12s %-20s %14s %14s %10s\n" "workload" "metric" "untraced" "traced"
            "change";
          List.iter
            (fun (name, v) ->
              match List.assoc_opt name traced with
              | Some tv when String.contains name '.' = false ->
                  Printf.printf "%-12s %-20s %14.6g %14.6g %+9.1f%%\n" (W.name kind) name v tv
                    ((tv -. v) /. v *. 100.)
              | _ -> ())
            (List.rev plain);
          ok && ok1 && ok2
        end)
      true W.all
  in
  if not ok then exit 1

(* --- command line ----------------------------------------------------------------------- *)

(* --seconds S runs S/20 of the full-length workloads of Workloads.shape:
   the full length takes about 20 s per workload on a 2-core machine. *)
let full_length_seconds = 20.

let () =
  let workload = ref None and seed = ref 1 and seconds = ref full_length_seconds in
  let trace = ref 0 and trace_out = ref None and out = ref None and smoke = ref false in
  let spec =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME  run one workload in this process" );
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S  run length (20 = full length)");
      ("--trace", Arg.Set_int trace, "0|1  traced run: per-layer metrics");
      ( "--trace-out",
        Arg.String (fun s -> trace_out := Some s),
        "FILE  write the spans as Chrome trace JSON" );
      ( "--out",
        Arg.String (fun s -> out := Some s),
        "FILE  append each run's result as a JSON line" );
      ("--smoke", Arg.Set smoke, " every workload at 1/20 length");
    ]
  in
  let usage = "main.exe [--workload NAME] --seed N [--seconds S] [--trace 0|1] [--out FILE]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if !seconds <= 0. then (prerr_endline "--seconds must be positive"; exit 2);
  if !trace_out <> None && !workload = None then (
    prerr_endline "--trace-out needs --workload";
    exit 2);
  let length = if !smoke then 1. /. 20. else !seconds /. full_length_seconds in
  match !workload with
  | Some name -> (
      match W.of_name name with
      | None ->
          prerr_endline
            ("unknown workload " ^ name ^ "; one of: "
            ^ String.concat ", " (List.map W.name W.all));
          exit 2
      | Some kind ->
          single kind ~seed:!seed ~length ~trace:(!trace = 1) ~trace_out:!trace_out ~out:!out)
  | None ->
      let args =
        [ "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%g" !seconds ]
        @ (if !smoke then [ "--smoke" ] else [])
        @ match !out with Some f -> [ "--out"; f ] | None -> []
      in
      all_workloads ~args ~trace:(!trace = 1)
