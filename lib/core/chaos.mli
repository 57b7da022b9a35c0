(** Seeded chaos harness: a {!Blockchain_db} cluster under a deterministic
    fault schedule.

    Exercises the paper's resilience story end-to-end: node crashes with
    §3.6 recovery (clean fail-stop or mid-block {!Brdb_node.Node_core.crash_point}
    injection), healing network partitions, and continuous message
    loss/duplication — all driven by the fault-injection plane of
    {!Brdb_sim.Network} and a seeded {!Brdb_sim.Rng}, so a run is a pure
    function of its {!spec}.

    After the fault window the harness heals the network and drives the
    cluster until the load-bearing invariants can be checked:
    - all nodes converge to the same block-store height and chain hash;
    - per-block write-set hashes (§3.3.4 checkpoints) match on every node;
    - every client request reaches a final status (with bounded client
      resubmission for requests whose submission itself was swallowed by a
      fault — the paper's §3.5 resubmission scenario). *)

type spec = {
  seed : int;  (** drives the fault schedule and all network randomness *)
  orgs : int;
      (** cluster size; ≥ 3 keeps every block in a live majority of block
          stores under the single-victim fault schedule *)
  flow : Brdb_node.Node_core.flow;
  rate : float;  (** client requests per second *)
  duration : float;  (** fault window (simulated seconds) *)
  block_size : int;
  block_timeout : float;
  drop : float;  (** per-message loss probability on faulted links (0–1) *)
  duplicate : float;  (** per-message duplication probability *)
  snap_corrupt : float;
      (** probability a snapshot chunk payload is bit-flipped in flight on
          peer<->peer links (§11): chunk content addresses must reject the
          mangled chunk and the fetcher must recover (re-request, rotate
          sources). Other message kinds are never corrupted. *)
  snapshot_threshold : int;
      (** {!Blockchain_db.config.snapshot_threshold} — gap above which a
          restarting peer bootstraps from a snapshot; 0 disables *)
  compaction : Brdb_snapshot.Snapshot.compaction;
      (** version-chain retention on every peer (§11) *)
  crashes : int;  (** crash/restart cycles, one victim at a time *)
  partitions : int;  (** partition/heal cycles, one victim at a time *)
  crash_points : bool;
      (** crash mid-block at a random §3.6 crash point instead of cleanly
          between messages *)
  tracing : bool;
      (** record a deterministic trace; the report then carries its JSONL
          rendering, byte-identical across two runs of the same spec *)
  ordering : Brdb_consensus.Service.kind;
      (** ordering service under test (§4.4); Solo by default *)
  n_orderers : int;  (** orderer cluster size for Raft/Bft *)
  orderer_crashes : int;
      (** crash/restart cycles against the ordering plane: each picks its
          victim at fire time — whoever currently holds the cutting role
          (Raft leader / BFT primary) — so elections and view changes are
          actually exercised, not dodged *)
  block_tamper : float;
      (** probability a cut block is bit-flipped in flight on the
          orderer->victim delivery links (single victim, like the lossy
          fault — orderers keep no block history, so every height must
          stay fetchable from an honest peer): §4.4 authenticated
          delivery must reject the mangled block ([blocks_rejected]) and
          the victim must recover it via §3.6 catch-up *)
  client_forge : float;
      (** probability a client submission's Schnorr signature is
          bit-flipped in flight on the workload client's outgoing links
          (ISSUE 10): ordering-side batch authentication must drop the
          forged transaction before a block is cut ([forged_rejected]),
          the [auth_rejection_burst] detector must fire, and §3.5 client
          resubmission must eventually land a clean copy of every slot *)
  parallel_validation : bool;
      (** {!Blockchain_db.config.parallel_validation}: multi-core timing
          of the wave-scheduled commit (DESIGN.md §14). Only simulated
          time moves, and with it message interleavings; every invariant
          the harness checks — convergence, per-tx decision agreement,
          state fingerprints — must hold exactly as with one core. *)
}

(** 3 orgs, OE flow, 150 req/s for 1.5 s, 5% loss, 2% duplication,
    2 crash cycles + 1 partition cycle; Solo ordering, no orderer faults. *)
val default_spec : spec

(** The fault classes the harness can inject, as the health plane's
    coverage matrix names them (ISSUE 9). *)
type fault =
  | Message_loss
      (** lossy links and healing partitions ([drop] / [partitions]) *)
  | Node_crash  (** peer crash/restart cycles ([crashes]) *)
  | Orderer_crash  (** ordering-plane crash cycles ([orderer_crashes]) *)
  | Block_tamper  (** in-flight block mangling ([block_tamper]) *)
  | Client_forge  (** client signature mangling ([client_forge]) *)
  | Snapshot_corruption  (** chunk payload mangling ([snap_corrupt]) *)

(** Stable id: ["message_loss"], ["node_crash"], … *)
val fault_id : fault -> string

(** The fault-scenario catalogue: [(label, fault, spec)], one tuned
    scenario per row of the coverage matrix — ["partition"], ["crash"],
    ["orderer_raft"], ["orderer_bft"], ["tamper"] and ["snapshot"]. Each
    spec injects its row's fault and carries the row's base seed; every
    row but ["snapshot"] (which needs lossy links and crash cycles to
    force snapshot bootstraps) runs over clean links with no other
    fault. The bench's detection-latency table, [brdb_cli alerts] and
    the [health.coverage] tests all run these specs. *)
val scenarios : (string * fault * spec) list

(** The spec of the {!scenarios} row labelled [label]. Raises
    [Invalid_argument] for an unknown label. *)
val scenario : string -> spec

(** The fault-free run with seed [seed]: 100 req/s for 0.5 s with every
    fault off. The health plane must raise no alert on it. *)
val clean_spec : int -> spec

(** One row of the coverage matrix: when the fault class first became
    active and the first expected alert that fired at/after it. *)
type detection = {
  det_fault : fault;
  det_injected_at : float;
  det_injection_height : int;
  det_alert : Brdb_obs.Health.alert option;
}

(** [(seconds, blocks)] from injection to first matching alert; [None]
    when undetected. *)
val detection_latency : detection -> (float * int) option

type report = {
  submitted : int;  (** distinct client requests (slots) *)
  resubmitted : int;  (** §3.5 client retries for swallowed submissions *)
  decided : int;  (** slots with a majority commit/abort decision *)
  committed : int;
  heights : (string * int) list;  (** per-node final block-store height *)
  converged : bool;
      (** equal heights and chain hashes, equal per-block write-set hashes,
          and every slot decided *)
  divergent : string list;  (** nodes disagreeing with node 0 *)
  fingerprint : string;
      (** sha256 over every node's chain and write-set hashes plus all
          final statuses — byte-identical across two runs of the same spec *)
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
      (** payloads actually mangled by the corruption fault in flight *)
  snapshots_installed : int;
      (** snapshot bootstraps completed across all peers (§11) *)
  chunks_corrupted : int;
      (** snapshot chunks rejected by per-chunk content-address
          verification, summed across peers *)
  loss_percent : float;
  fetch_requests : int;  (** catch-up requests sent across the cluster *)
  fetched_blocks : int;  (** blocks recovered via §3.6 catch-up *)
  crash_cycles : int;
  partition_cycles : int;
  orderer_crash_cycles : int;
      (** crash/restart cycles fired against the ordering plane *)
  elections : int;
      (** Raft elections won across orderer nodes (0 under Solo/Bft) *)
  view_changes : int;
      (** BFT view changes: max views entered by any replica (0 under
          Solo/Raft) *)
  blocks_rejected : int;
      (** blocks refused by §4.4 authenticated delivery (bad signature or
          hash, equivocation, broken chain linkage), summed across peers *)
  forged_rejected : int;
      (** forged client submissions dropped by ordering-side batch
          authentication before block cut (ISSUE 10) *)
  decision_mismatches : string list;
      (** transactions where one node committed and another finalized
          differently — must be empty (also folded into [converged]) *)
  reason_divergences : string list;
      (** transactions aborted everywhere but with different
          {!Brdb_obs.Abort_class} on different nodes — legal (CLAUDE.md
          gotcha), recorded for visibility *)
  abort_classes : (string * int) list;
      (** cluster-wide abort taxonomy: (class name, count) *)
  first_divergent_height : int option;
      (** when write sets diverged, the earliest height at which two nodes
          publish different [sys.blocks.state_digest] values, located by
          {!find_divergence}; [None] when converged *)
  trace_jsonl : string;
      (** JSONL trace when [spec.tracing]; [""] otherwise *)
  trace_events : Brdb_obs.Trace.event list;
      (** raw span events when [spec.tracing] — feeds
          {!Brdb_obs.Export.causal_jsonl} for per-node causal projections
          (tested byte-identical across replicas); [[]] otherwise *)
  alerts : Brdb_obs.Health.alert list;
      (** the health plane's full alert log (ISSUE 9), oldest first *)
  alerts_fired : (string * int) list;
      (** fire transitions per detector id (detectors that fired only) *)
  alert_stream : string;
      (** canonical byte rendering of the alert log — identical across
          nodes by construction (all serve the one shared engine) and
          across two runs of the same spec *)
  fault_coverage : detection list;
      (** the fault→alert coverage matrix, one row per injected class in
          injection order *)
  uncovered_faults : fault list;
      (** injected classes with no matching alert — the chaos suite and
          [brdb_cli alerts] assert this is empty for tuned scenarios *)
}

(** Run one seeded chaos schedule to completion (bounded: the
    post-heal convergence loop gives up after ~30 simulated seconds, which
    shows up as [converged = false]). *)
val run : spec -> report

val pp_report : Format.formatter -> report -> unit

module Testing : sig
  (** The fault→alert coverage map: the {!Brdb_obs.Health} detectors
      expected to notice each injected fault class (any one of the listed
      detectors firing counts as detection). Wildcard-free by construction
      — adding a [fault] constructor without an entry fails to compile,
      and tools/lint.sh additionally asserts every constructor appears
      here — so a new fault class cannot ship undetectable. *)
  val expected_alerts : fault -> Brdb_obs.Health.detector list

  (** The online divergence monitor {!run} applies after each run
      (DESIGN.md §10): the first block height at which any two nodes
      publish different [sys.blocks.state_digest] values, found by binary
      search over SQL queries against every node. [None] when all nodes
      agree up to the lowest common height. Works because the digest is
      chained (cumulative): disagreement is monotone in height. No
      scenario makes honest replicas diverge, so tests point it at a
      cluster whose digest they tampered. *)
  val find_divergence : Blockchain_db.t -> int option
end
