(** Deterministic streaming health plane (ISSUE 9, DESIGN.md §15).

    A cluster-level anomaly-detection engine: the deployment layer feeds
    it one {!sample} per tick of the simulated clock (node heights and
    fault counters, consensus churn, decision totals, digest agreement)
    and each windowed rule emits edge-triggered {!alert} events — [Fire]
    when its condition starts holding, [Clear] when it stops.

    Determinism is the design invariant: the engine never reads a clock
    or rng — every input arrives in the sample, windows ({!Registry.Window})
    and EWMAs ({!Registry.Ewma}) are driven by the sample's own
    timestamp, and per-node rules walk [s_nodes] in the caller's
    (deterministic) order. Ticked at fixed sim-clock intervals over
    state that is itself a pure function of (block stream, seed), the
    alert log — and {!stream}, its canonical byte rendering — is too:
    byte-identical across nodes (all nodes serve the one shared engine,
    like [sys.nodes]) and across runs of the same seed. *)

type severity = Info | Warning | Critical

val severity_name : severity -> string

(** The detector set, one per §3.4/Table-2 failure signal the paper's
    operator would watch by hand:
    - [Ordering_stall]: no block cut while client work is pending
      (consensus liveness under Raft/BFT, §4.3/§4.4);
    - [View_change_storm]: election / view-change churn beyond the
      startup election (§4.3 leader changes, §4.4 view changes);
    - [Abort_spike]: EWMA of the abort fraction over the Table-2
      taxonomy crossing a ratio threshold;
    - [Replication_lag]: a peer's height gap to the cluster tip
      sustained over consecutive ticks (§3.6 catch-up failing to keep
      up);
    - [Snapshot_failure]: corrupted-chunk streaks or failed snapshot
      installs (§11 bootstrap under attack);
    - [Auth_rejection_burst]: blocks refused by §4.4 authenticated
      delivery (signature/hash tamper, equivocation, broken linkage);
    - [Divergence_warning]: state digests disagreeing at a common
      height, or a node's checkpoint monitor flagging a mismatch. *)
type detector =
  | Ordering_stall
  | View_change_storm
  | Abort_spike
  | Replication_lag
  | Snapshot_failure
  | Auth_rejection_burst
  | Divergence_warning

(** Stable string id (["ordering_stall"], …) used in sys.alerts rows,
    metrics names and the chaos coverage matrix. *)
val detector_id : detector -> string

val severity_of : detector -> severity

(** One-line rule description (sys.detectors). *)
val describe : detector -> string

type transition = Fire | Clear

val transition_name : transition -> string

type alert = {
  al_seq : int;  (** 1-based position in the deployment's alert log *)
  al_time : float;  (** simulated seconds at emission *)
  al_height : int;  (** cluster tip height at emission *)
  al_detector : detector;
  al_severity : severity;
  al_transition : transition;
  al_subject : string;  (** offending node, or ["cluster"]/["ordering"] *)
  al_evidence : string;  (** rule-specific evidence, canonical format *)
}

(** Canonical single-line rendering — the bytes compared across nodes
    and runs. *)
val render_alert : alert -> string

(** Per-node slice of a sample. All counters are cumulative (the engine
    differentiates internally). *)
type node_sample = {
  ns_node : string;
  ns_height : int;
  ns_crashed : bool;
  ns_blocks_rejected : int;
  ns_chunks_corrupted : int;
  ns_install_failures : int;
  ns_divergence_flags : int;  (** checkpoint-monitor mismatch count *)
}

(** One engine tick's worth of cluster state. Counters cumulative. *)
type sample = {
  s_time : float;  (** simulated time of the tick *)
  s_nodes : node_sample list;  (** in deterministic (peer list) order *)
  s_blocks_cut : int;  (** total blocks cut by the ordering service *)
  s_pending : int;
      (** work the ordering service holds but has not cut (its cutter
          backlog) — the stall clock only runs while this is positive *)
  s_decided : int;
  s_aborted : int;  (** decided as aborted or rejected *)
  s_elections : int;  (** Raft elections won (cumulative) *)
  s_view_changes : int;  (** BFT view changes (cumulative) *)
  s_digests_agree : bool;  (** state digests equal at the common height *)
  s_auth_rejected : int;
      (** forged submissions dropped by cut-time batch signature
          verification across the ordering service (ISSUE 10),
          cumulative; drives the ["ordering"]-subject
          {!Auth_rejection_burst} rule *)
}

type t

(** A fresh engine with the calibrated rule thresholds (chosen so
    fault-free chaos runs stay silent across seeds — the qcheck
    false-positive-freedom property). *)
val create : unit -> t

(** Evaluate every rule against the next sample; returns the transitions
    emitted by this tick, in deterministic order. The first sample only
    seeds baselines (nothing can fire). *)
val observe : t -> sample -> alert list

(** Full alert log, oldest first. *)
val alerts : t -> alert list

(** sys.detectors row material: per-detector aggregate over subjects. *)
type summary = {
  sm_detector : detector;
  sm_firing : int;  (** subjects currently firing *)
  sm_fires : int;
  sm_clears : int;
  sm_last_time : float;  (** last transition (0. if none) *)
  sm_last_height : int;
}

(** One summary per detector, in declaration order of {!detector}. *)
val summaries : t -> summary list

(** The whole alert log as canonical bytes ({!render_alert} lines). *)
val stream : t -> string
