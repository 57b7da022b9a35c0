type severity = Info | Warning | Critical

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Critical -> "critical"

type detector =
  | Ordering_stall
  | View_change_storm
  | Abort_spike
  | Replication_lag
  | Snapshot_failure
  | Auth_rejection_burst
  | Divergence_warning

let all_detectors =
  [
    Ordering_stall;
    View_change_storm;
    Abort_spike;
    Replication_lag;
    Snapshot_failure;
    Auth_rejection_burst;
    Divergence_warning;
  ]

let detector_id = function
  | Ordering_stall -> "ordering_stall"
  | View_change_storm -> "view_change_storm"
  | Abort_spike -> "abort_spike"
  | Replication_lag -> "replication_lag"
  | Snapshot_failure -> "snapshot_failure"
  | Auth_rejection_burst -> "auth_rejection_burst"
  | Divergence_warning -> "divergence_warning"

let severity_of = function
  | Ordering_stall -> Critical
  | View_change_storm -> Warning
  | Abort_spike -> Warning
  | Replication_lag -> Warning
  | Snapshot_failure -> Warning
  | Auth_rejection_burst -> Critical
  | Divergence_warning -> Critical

let describe = function
  | Ordering_stall -> "no block cut while client work is pending"
  | View_change_storm -> "consensus churn: extra elections or view changes"
  | Abort_spike -> "EWMA abort fraction of decided txns above threshold"
  | Replication_lag -> "peer height gap sustained above threshold"
  | Snapshot_failure -> "corrupted snapshot chunks or failed bootstraps"
  | Auth_rejection_burst ->
      "blocks refused by authenticated delivery or forged submissions dropped"
  | Divergence_warning -> "state digests disagree at a common height"

type transition = Fire | Clear

let transition_name = function Fire -> "fire" | Clear -> "clear"

type alert = {
  al_seq : int;
  al_time : float;
  al_height : int;
  al_detector : detector;
  al_severity : severity;
  al_transition : transition;
  al_subject : string;
  al_evidence : string;
}

(* Canonical rendering: the byte string compared across nodes and runs.
   %.3f keeps sim-time textual form stable (ticks land on multiples of
   the health interval, far above float noise). *)
let render_alert a =
  Printf.sprintf "#%d %.3fs h=%d %s %s %s %s | %s" a.al_seq a.al_time
    a.al_height
    (transition_name a.al_transition)
    (detector_id a.al_detector)
    (severity_name a.al_severity)
    a.al_subject a.al_evidence

(* Rule thresholds, calibrated so fault-free chaos runs stay silent
   across seeds (the qcheck false-positive-freedom property). *)
type thresholds = {
  stall_s : float;  (** fire when no cut for this long with work pending *)
  storm_window_s : float;  (** churn window *)
  storm_threshold : int;  (** churn events in window that fire *)
  ignore_first_election : bool;
      (** don't count the startup election a Raft cluster needs *)
  abort_alpha : float;  (** EWMA smoothing for the abort fraction *)
  abort_ratio : float;  (** EWMA level that fires (clears at half) *)
  abort_window_s : float;  (** window for the decided-count gate *)
  abort_min_decided : int;  (** min decisions in window before firing *)
  lag_blocks : int;  (** height gap that counts as lagging *)
  lag_sustain : int;  (** consecutive lagging ticks before firing *)
  fail_window_s : float;  (** window for corruption/rejection bursts *)
  corrupt_streak : int;  (** corrupted chunks in window that fire *)
  reject_burst : int;  (** rejected blocks in window that fire *)
}

let default_thresholds =
  {
    stall_s = 1.0;
    storm_window_s = 2.0;
    storm_threshold = 1;
    ignore_first_election = true;
    abort_alpha = 0.3;
    abort_ratio = 0.5;
    abort_window_s = 1.0;
    abort_min_decided = 8;
    lag_blocks = 4;
    lag_sustain = 3;
    fail_window_s = 2.0;
    corrupt_streak = 3;
    reject_burst = 1;
  }

type node_sample = {
  ns_node : string;
  ns_height : int;
  ns_crashed : bool;
  ns_blocks_rejected : int;
  ns_chunks_corrupted : int;
  ns_install_failures : int;
  ns_divergence_flags : int;
}

type sample = {
  s_time : float;
  s_nodes : node_sample list;
  s_blocks_cut : int;
  s_pending : int;
  s_decided : int;
  s_aborted : int;
  s_elections : int;
  s_view_changes : int;
  s_digests_agree : bool;
  s_auth_rejected : int;
}

(* Per-(detector, subject) hysteresis cell. *)
type dstate = {
  mutable firing : bool;
  mutable fires : int;
  mutable clears : int;
  mutable last_time : float;
  mutable last_height : int;
}

type t = {
  mutable seq : int;
  mutable log : alert list; (* newest first *)
  states : (string * string, dstate) Hashtbl.t; (* (detector id, subject) *)
  mutable prev : sample option;
  mutable last_cut_value : int;
  mutable last_cut_time : float;
  churn_win : Registry.Window.t;
  abort_ewma : Registry.Ewma.t;
  decided_win : Registry.Window.t;
  div_win : Registry.Window.t;
  lag_streak : (string, int ref) Hashtbl.t;
  reject_win : (string, Registry.Window.t) Hashtbl.t;
  snap_win : (string, Registry.Window.t) Hashtbl.t;
  auth_win : Registry.Window.t;
}

let create () =
  let th = default_thresholds in
  {
    seq = 0;
    log = [];
    states = Hashtbl.create 16;
    prev = None;
    last_cut_value = 0;
    last_cut_time = 0.;
    churn_win = Registry.Window.create ~span:th.storm_window_s;
    abort_ewma = Registry.Ewma.create ~alpha:th.abort_alpha;
    decided_win = Registry.Window.create ~span:th.abort_window_s;
    div_win = Registry.Window.create ~span:th.fail_window_s;
    lag_streak = Hashtbl.create 8;
    reject_win = Hashtbl.create 8;
    snap_win = Hashtbl.create 8;
    auth_win = Registry.Window.create ~span:th.fail_window_s;
  }

let state t d subject =
  let key = (detector_id d, subject) in
  match Hashtbl.find_opt t.states key with
  | Some s -> s
  | None ->
      let s =
        { firing = false; fires = 0; clears = 0; last_time = 0.; last_height = 0 }
      in
      Hashtbl.replace t.states key s;
      s

let node_window tbl ~span node =
  match Hashtbl.find_opt tbl node with
  | Some w -> w
  | None ->
      let w = Registry.Window.create ~span in
      Hashtbl.replace tbl node w;
      w

let emit t ~now ~height d subject tr evidence acc =
  t.seq <- t.seq + 1;
  let al =
    {
      al_seq = t.seq;
      al_time = now;
      al_height = height;
      al_detector = d;
      al_severity = severity_of d;
      al_transition = tr;
      al_subject = subject;
      al_evidence = evidence;
    }
  in
  t.log <- al :: t.log;
  al :: acc

(* Edge-triggered emission with per-cell state: a detector whose condition
   holds across many ticks fires once and clears once. *)
let set_condition t ~now ~height d subject ~active ~evidence acc =
  let s = state t d subject in
  if active && not s.firing then begin
    s.firing <- true;
    s.fires <- s.fires + 1;
    s.last_time <- now;
    s.last_height <- height;
    emit t ~now ~height d subject Fire (evidence ()) acc
  end
  else if (not active) && s.firing then begin
    s.firing <- false;
    s.clears <- s.clears + 1;
    s.last_time <- now;
    s.last_height <- height;
    emit t ~now ~height d subject Clear (evidence ()) acc
  end
  else acc

let observe t (s : sample) =
  let now = s.s_time in
  let th = default_thresholds in
  let max_height =
    List.fold_left (fun acc n -> max acc n.ns_height) 0 s.s_nodes
  in
  match t.prev with
  | None ->
      (* first tick seeds the baselines; nothing can fire yet *)
      t.last_cut_value <- s.s_blocks_cut;
      t.last_cut_time <- now;
      t.prev <- Some s;
      []
  | Some p ->
  let prev_node name =
    List.find_opt (fun n -> String.equal n.ns_node name) p.s_nodes
  in
  let acc = [] in
  (* --- ordering stall: the cut counter is flat while work is pending.
     The stall clock restarts on every cut AND whenever the queue is
     empty, so it measures how long pending work has waited — idle gaps
     between workloads never accumulate stall age. --- *)
  if s.s_blocks_cut <> t.last_cut_value || s.s_pending = 0 then begin
    t.last_cut_value <- s.s_blocks_cut;
    t.last_cut_time <- now
  end;
  let stall_age = now -. t.last_cut_time in
  let acc =
    set_condition t ~now ~height:max_height Ordering_stall "cluster"
      ~active:(s.s_pending > 0 && stall_age > th.stall_s)
      ~evidence:(fun () ->
        Printf.sprintf "pending=%d no_cut_for=%.3fs blocks_cut=%d" s.s_pending
          stall_age s.s_blocks_cut)
      acc
  in
  (* --- view-change storm: election/view-change churn inside the window.
     The startup election a Raft cluster needs to elect its first leader
     is expected and ignored (ignore_first_election). --- *)
  let churn_total =
    s.s_view_changes
    + max 0 (s.s_elections - if th.ignore_first_election then 1 else 0)
  in
  (let p_churn =
     p.s_view_changes
     + max 0 (p.s_elections - if th.ignore_first_election then 1 else 0)
   in
   let d = churn_total - p_churn in
   if d > 0 then Registry.Window.add t.churn_win ~now (float_of_int d));
  let churn_in_window = Registry.Window.sum t.churn_win ~now in
  let acc =
    set_condition t ~now ~height:max_height View_change_storm "ordering"
      ~active:(churn_in_window >= float_of_int th.storm_threshold)
      ~evidence:(fun () ->
        Printf.sprintf "churn=%d/%.1fs elections=%d view_changes=%d"
          (int_of_float churn_in_window)
          th.storm_window_s s.s_elections s.s_view_changes)
      acc
  in
  (* --- abort spike: EWMA of the abort fraction of newly decided txns,
     gated on enough decisions in the window to be meaningful; clears at
     half the firing threshold (hysteresis). --- *)
  (let dd = s.s_decided - p.s_decided in
   let da = s.s_aborted - p.s_aborted in
   if dd > 0 then begin
     Registry.Window.add t.decided_win ~now (float_of_int dd);
     Registry.Ewma.add t.abort_ewma (float_of_int da /. float_of_int dd)
   end);
  let ew = Registry.Ewma.value t.abort_ewma in
  let decided_in_window = Registry.Window.sum t.decided_win ~now in
  let spike_state = state t Abort_spike "cluster" in
  let abort_active =
    if spike_state.firing then ew >= th.abort_ratio /. 2.
    else
      Registry.Ewma.count t.abort_ewma > 0
      && ew >= th.abort_ratio
      && decided_in_window >= float_of_int th.abort_min_decided
  in
  let acc =
    set_condition t ~now ~height:max_height Abort_spike "cluster"
      ~active:abort_active
      ~evidence:(fun () ->
        Printf.sprintf "ewma_abort_fraction=%.3f decided_in_window=%d" ew
          (int_of_float decided_in_window))
      acc
  in
  (* --- per-node detectors; s_nodes arrives in deterministic (peer list)
     order, so the emission order is deterministic too --- *)
  let acc =
    List.fold_left
      (fun acc n ->
        let node = n.ns_node in
        (* replication lag: height gap to the cluster tip, sustained for
           lag_sustain consecutive ticks; clears when the gap halves *)
        let gap = max_height - n.ns_height in
        let streak =
          match Hashtbl.find_opt t.lag_streak node with
          | Some r -> r
          | None ->
              let r = ref 0 in
              Hashtbl.replace t.lag_streak node r;
              r
        in
        if gap > th.lag_blocks then incr streak else streak := 0;
        let lag_state = state t Replication_lag node in
        let lag_active =
          if lag_state.firing then gap > th.lag_blocks / 2
          else !streak >= th.lag_sustain
        in
        let acc =
          set_condition t ~now ~height:max_height Replication_lag node
            ~active:lag_active
            ~evidence:(fun () ->
              Printf.sprintf "gap=%d height=%d tip=%d crashed=%b" gap
                n.ns_height max_height n.ns_crashed)
            acc
        in
        (* snapshot-bootstrap failure: a streak of rejected chunks or any
           failed install inside the window *)
        let snap_w = node_window t.snap_win ~span:th.fail_window_s node in
        (match prev_node node with
        | None -> ()
        | Some p ->
            let d =
              n.ns_chunks_corrupted - p.ns_chunks_corrupted
              + ((n.ns_install_failures - p.ns_install_failures)
                * th.corrupt_streak)
            in
            if d > 0 then Registry.Window.add snap_w ~now (float_of_int d));
        let snap_sum = Registry.Window.sum snap_w ~now in
        let snap_state = state t Snapshot_failure node in
        let snap_active =
          if snap_state.firing then snap_sum > 0.
          else snap_sum >= float_of_int th.corrupt_streak
        in
        let acc =
          set_condition t ~now ~height:max_height Snapshot_failure node
            ~active:snap_active
            ~evidence:(fun () ->
              Printf.sprintf
                "corrupt_events=%d/%.1fs chunks_corrupted=%d install_failures=%d"
                (int_of_float snap_sum) th.fail_window_s n.ns_chunks_corrupted
                n.ns_install_failures)
            acc
        in
        (* equivocation / auth-rejection burst: any block refused by §4.4
           authenticated delivery is anomalous (zero in clean runs) *)
        let rej_w = node_window t.reject_win ~span:th.fail_window_s node in
        (match prev_node node with
        | None -> ()
        | Some p ->
            let d = n.ns_blocks_rejected - p.ns_blocks_rejected in
            if d > 0 then Registry.Window.add rej_w ~now (float_of_int d));
        let rej_sum = Registry.Window.sum rej_w ~now in
        set_condition t ~now ~height:max_height Auth_rejection_burst node
          ~active:(rej_sum >= float_of_int th.reject_burst)
          ~evidence:(fun () ->
            Printf.sprintf "rejected=%d/%.1fs total_rejected=%d"
              (int_of_float rej_sum) th.fail_window_s n.ns_blocks_rejected)
          acc)
      acc s.s_nodes
  in
  (* --- forged-submission burst at the ordering service (ISSUE 10): any
     transaction dropped by cut-time batch signature verification is
     anomalous (zero in clean runs — clients sign every submission) *)
  (let d = s.s_auth_rejected - p.s_auth_rejected in
   if d > 0 then Registry.Window.add t.auth_win ~now (float_of_int d));
  let auth_sum = Registry.Window.sum t.auth_win ~now in
  let acc =
    set_condition t ~now ~height:max_height Auth_rejection_burst "ordering"
      ~active:(auth_sum >= float_of_int th.reject_burst)
      ~evidence:(fun () ->
        Printf.sprintf "forged=%d/%.1fs total_forged=%d" (int_of_float auth_sum)
          th.fail_window_s s.s_auth_rejected)
      acc
  in
  (* --- divergence early-warning: live digest disagreement, or a node's
     own checkpoint monitor flagging a mismatch, inside the window --- *)
  (let flags smp =
     List.fold_left (fun acc n -> acc + n.ns_divergence_flags) 0 smp.s_nodes
   in
   let d = flags s - flags p in
   if d > 0 then Registry.Window.add t.div_win ~now (float_of_int d));
  let div_flags = Registry.Window.sum t.div_win ~now in
  let acc =
    set_condition t ~now ~height:max_height Divergence_warning "cluster"
      ~active:((not s.s_digests_agree) || div_flags > 0.)
      ~evidence:(fun () ->
        Printf.sprintf "digests_agree=%b divergence_flags=%d/%.1fs"
          s.s_digests_agree (int_of_float div_flags) th.fail_window_s)
      acc
  in
  t.prev <- Some s;
  List.rev acc

let alerts t = List.rev t.log

type summary = {
  sm_detector : detector;
  sm_firing : int;
  sm_fires : int;
  sm_clears : int;
  sm_last_time : float;
  sm_last_height : int;
}

let summaries t =
  List.map
    (fun d ->
      let id = detector_id d in
      let cells =
        Hashtbl.fold
          (fun (id', _) s acc -> if String.equal id' id then s :: acc else acc)
          t.states []
      in
      List.fold_left
        (fun sm s ->
          {
            sm with
            sm_firing = (sm.sm_firing + if s.firing then 1 else 0);
            sm_fires = sm.sm_fires + s.fires;
            sm_clears = sm.sm_clears + s.clears;
            sm_last_time = Float.max sm.sm_last_time s.last_time;
            sm_last_height = max sm.sm_last_height s.last_height;
          })
        {
          sm_detector = d;
          sm_firing = 0;
          sm_fires = 0;
          sm_clears = 0;
          sm_last_time = 0.;
          sm_last_height = 0;
        }
        cells)
    all_detectors

let stream t = String.concat "\n" (List.map render_alert (alerts t))
