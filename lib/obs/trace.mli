(** Deterministic tracing core.

    Spans and events are keyed by (node, track, name) plus an optional
    async id (transaction / block identifier). Timestamps come exclusively
    from the [now] closure the tracer is created with — in the simulator
    that closure reads {!Brdb_sim.Clock.now} — so for equal seeds a run
    produces a byte-identical event stream (see {!Export}).

    The tracer is an append-only sink: recording an event never draws from
    an {!Brdb_sim.Rng}, never schedules clock work, and is invisible to
    committed state, hashes and the cost model. The {!null} tracer is
    disabled; every emitter checks {!enabled} first, so tracing is
    zero-cost when off. *)

type value = I of int | F of float | S of string | B of bool

type kind =
  | Complete  (** a span: [ts .. ts + dur] ("X" in Chrome trace_event) *)
  | Instant  (** a point event ("i") *)
  | Async_begin  (** start of an id-keyed lifecycle ("b") *)
  | Async_instant  (** milestone inside an id-keyed lifecycle ("n") *)
  | Async_end  (** end of an id-keyed lifecycle ("e") *)
  | Counter  (** a sampled counter value ("C") *)

type event = {
  seq : int;  (** emission order, dense from 0 *)
  ts : float;  (** simulated seconds *)
  dur : float;  (** span duration in seconds; 0 for non-spans *)
  node : string;  (** process lane: node name, ["client"], ["cluster"] *)
  track : string;  (** thread lane within the node *)
  cat : string;
  kind : kind;
  name : string;
  id : string;  (** async correlation id (txn id); [""] otherwise *)
  span : string;
      (** span-context id this event establishes (e.g. ["block/7"]);
          deterministic — derived from transaction ids and block heights,
          never from emission order — so equal runs produce equal ids.
          [""] when the event opens no context. *)
  parent : string;
      (** parent span context (strong causal edge: this work happened
          {e inside} the parent); [""] for roots *)
  follows : string;
      (** follows-from edge (weak causal link across lifecycles: e.g. a
          validate event follows the submit span of its transaction) *)
  args : (string * value) list;
}

type t

(** Disabled sink: all emitters are no-ops. *)
val null : t

(** [create ~now ()] — an enabled tracer whose timestamps come from
    [now] (bind it to [Brdb_sim.Clock.now clock]). *)
val create : ?now:(unit -> float) -> unit -> t

val enabled : t -> bool

(** [complete t ~node ~name ~ts ~dur ()] records a span covering
    [ts .. ts + dur]; [ts] may lie in the past (block phases are emitted
    on completion and back-dated by their modeled cost). [?span] names
    the context this span establishes; [?parent] / [?follows] link it
    into the causal graph (see {!event}). *)
val complete :
  t ->
  node:string ->
  ?track:string ->
  ?cat:string ->
  name:string ->
  ts:float ->
  dur:float ->
  ?span:string ->
  ?parent:string ->
  ?follows:string ->
  ?args:(string * value) list ->
  unit ->
  unit

val instant :
  t ->
  node:string ->
  ?track:string ->
  ?cat:string ->
  name:string ->
  ?ts:float ->
  ?span:string ->
  ?parent:string ->
  ?follows:string ->
  ?args:(string * value) list ->
  unit ->
  unit

(** Async events correlate across nodes by [(cat, id, name)] — use the
    transaction id to stitch submit → ordered → decided into one
    lifecycle span. *)
val async_begin :
  t ->
  node:string ->
  ?track:string ->
  ?cat:string ->
  name:string ->
  id:string ->
  ?ts:float ->
  ?span:string ->
  ?parent:string ->
  ?follows:string ->
  ?args:(string * value) list ->
  unit ->
  unit

val async_instant :
  t ->
  node:string ->
  ?track:string ->
  ?cat:string ->
  name:string ->
  id:string ->
  ?ts:float ->
  ?span:string ->
  ?parent:string ->
  ?follows:string ->
  ?args:(string * value) list ->
  unit ->
  unit

val async_end :
  t ->
  node:string ->
  ?track:string ->
  ?cat:string ->
  name:string ->
  id:string ->
  ?ts:float ->
  ?span:string ->
  ?parent:string ->
  ?follows:string ->
  ?args:(string * value) list ->
  unit ->
  unit

(** Events in emission order. *)
val events : t -> event list

(** Test hooks (DESIGN.md §3). *)
module Testing : sig
  (** [counter t ~node ~name ~value ()] records a sampled counter value
      (a [Counter] event) on [track] (default ["counters"]). *)
  val counter :
    t -> node:string -> ?track:string -> name:string -> value:float -> ?ts:float -> unit -> unit
end
