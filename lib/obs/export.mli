(** Trace exporters.

    Both renderers are pure functions of the event list with fixed number
    formatting: equal event streams produce byte-identical output, which
    is how the determinism acceptance tests compare traces across runs.

    - {!jsonl_string}: one JSON object per line, keeping node/track as
      strings — the diff-friendly format.
    - {!chrome_string}: Chrome [trace_event] JSON (loadable in
      [chrome://tracing] or Perfetto). Nodes map to integer pids and
      (node, track) pairs to tids, named via "M" metadata records;
      timestamps/durations are microseconds; async events carry the
      transaction id so submit → ordered → decided renders as one arrow
      chain per transaction. *)

val jsonl_string : Trace.event list -> string

val chrome_string : Trace.event list -> string

(** Test hooks (DESIGN.md §3). *)
module Testing : sig
  (** [causal_jsonl ~node events] projects [events] down to [node]'s causal
      skeleton: block/txn-track events with node-local data stripped — the
      node name normalized, timestamps/durations/sequence numbers dropped,
      args filtered to the replicated keys ([tx], [height], [txs]; abort
      reasons and classes are node-local per §3.4.1 and excluded), and
      replayed events (crash recovery, §3.6) deduplicated. Because every
      replica applies the same block stream, this projection is
      byte-identical across the nodes of a deployment — the property the
      cross-node causal-trace qcheck pins down. *)
  val causal_jsonl : node:string -> Trace.event list -> string
end
