(** Metrics registry: named counters, gauges and histograms keyed by
    (node, metric name), with per-node and cluster-wide views.

    Histograms are {!Stat}s (all samples retained, so a cluster view can
    merge per-node distributions exactly). Metrics are
    created on first use; using the same name with a different kind is a
    programmer error ([Invalid_argument]).

    The registry is always-on (it never touches rng, clock scheduling or
    committed state); only {!Trace} is gated behind an enabled flag. *)

(** Sample store behind every histogram: count, sum, min and max are
    kept incrementally, and every sample is retained so percentiles are
    exact and per-node histograms merge without loss. *)
module Stat : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val mean : t -> float  (** 0 when empty *)

  val min : t -> float  (** 0 when empty *)

  val max : t -> float  (** 0 when empty *)

  (** Exact percentile over the retained samples, linearly interpolated
      between closest ranks; [p] is clamped to [0, 100]; 0 when empty. *)
  val percentile : t -> float -> float

  (** All retained samples in insertion order (used by {!cluster_view} to
      merge per-node histograms). *)
  val samples : t -> float list
end

type t

val create : unit -> t

(** [incr ?by t ~node name] bumps a counter (created at 0). *)
val incr : ?by:int -> t -> node:string -> string -> unit

(** [set t ~node name v] installs an absolute gauge value. *)
val set : t -> node:string -> string -> float -> unit

(** [observe t ~node name v] adds a sample to a histogram. *)
val observe : t -> node:string -> string -> float -> unit

(** Current counter value; [0] when absent. *)
val counter : t -> node:string -> string -> int

(** Current gauge value; [0.] when absent. *)
val gauge : t -> node:string -> string -> float

val histogram : t -> node:string -> string -> Stat.t option

(** One row of a view; [e_count]/[e_value] carry the counter value, the
    gauge value, or the histogram count/mean depending on [e_kind]. *)
type entry = {
  e_node : string;
  e_name : string;
  e_kind : string;  (** ["counter"] | ["gauge"] | ["histogram"] *)
  e_count : int;
  e_value : float;
  e_min : float;
  e_max : float;
  e_p50 : float;
  e_p95 : float;
}

(** All metrics, sorted by (name, node) — deterministic regardless of
    insertion order. *)
val snapshot : t -> entry list

val node_view : t -> node:string -> entry list

(** Nodes that have recorded at least one metric, sorted. *)
val nodes : t -> string list

(** One entry per metric name aggregated over all nodes (counters and
    gauges sum; histograms merge their samples); [e_node = "cluster"]. *)
val cluster_view : t -> entry list

(** Time-windowed accumulator over (sample time, value) pairs — the
    smoothing primitive behind the {!Health} detectors (ISSUE 9).
    Samples older than [span] seconds are pruned on every access; time is
    always supplied by the caller (the simulated clock), never read here,
    so a window's contents are a pure function of its [add] history.

    Edge cases are total: an empty window (or one whose every sample has
    aged out) sums to [0.] and means [0.]; a single sample is its own
    mean; a window shorter than the sampling interval simply holds at
    most one sample at a time. *)
module Window : sig
  type t

  (** [create ~span] — [span] is the window length in seconds
      ([Invalid_argument] unless positive). *)
  val create : span:float -> t

  val add : t -> now:float -> float -> unit

  (** Samples newer than [now - span]. *)
  val count : t -> now:float -> int

  (** Sum of in-window values; [0.] when empty. *)
  val sum : t -> now:float -> float

  (** Mean of in-window values; [0.] when empty. *)
  val mean : t -> now:float -> float
end

(** Exponentially-weighted moving average. The first sample seeds the
    average exactly (so a single sample reads back unchanged); each later
    sample moves it by [alpha * (v - value)]. [value] is [0.] before any
    sample. *)
module Ewma : sig
  type t

  (** [Invalid_argument] unless [0 < alpha <= 1]. *)
  val create : alpha:float -> t

  val add : t -> float -> unit

  val value : t -> float

  val count : t -> int
end

val pp_entry : Format.formatter -> entry -> unit

val pp_entries : Format.formatter -> entry list -> unit
