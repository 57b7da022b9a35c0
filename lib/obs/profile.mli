(** Attribution profiler (ISSUE 7, tentpole c): folds the causal span
    tree of a trace into a deterministic flame-style aggregate.

    Events are grouped by their {e causal path} — the chain of span-kind
    segments from the root context to the event, e.g.
    [order;block;exec;validate]. Segments are the prefix of the span
    context id before ['/'] ([block/7] -> [block]), so all heights fold
    into one row per phase; events without a context fall back to their
    name. Complete spans contribute their simulated duration; instants
    contribute event counts. Self time is a path's total minus its direct
    children — for a per-node fold of block processing this surfaces the
    constant block overhead ([bpt - bet - bct], §5's block_const) as the
    [block] row's self time.

    Determinism: output rows are sorted by path and derived only from the
    event list, so equal traces fold to equal aggregates (the property
    [sys.spans] inherits). *)

type row = {
  p_path : string;  (** [;]-joined causal path, root first *)
  p_depth : int;  (** segments - 1; render indentation *)
  p_events : int;
  p_total_s : float;  (** summed span durations (simulated seconds) *)
  p_self_s : float;
      (** total minus direct children, clamped at 0 — children replicated
          on several nodes can exceed a cluster-wide parent *)
}

(** [fold ?node events] — aggregate rows sorted by path. With [?node],
    only that node's events are retained and parent links are resolved
    within them (cross-node parents root new trees). *)
val fold : ?node:string -> Trace.event list -> row list
