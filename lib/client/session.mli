(** Client sessions — the SDK plane over {!Brdb_core.Blockchain_db}
    (ISSUE 10, DESIGN.md §16).

    A {!hub} is created once per deployment (EO flow only: admission
    control reasons about the client-side execution snapshot of §3.4).
    [begin_] opens a session: it is assigned a database peer round-robin
    and pins that peer's current ledger height. [read]/[read_verified]
    observe committed state {e at the pinned height} and record each
    read's MVCC version; [submit] runs the {!Admission} check first and
    fails doomed transactions locally — they never reach the orderer —
    then ships the invocation pinned to the session's snapshot via
    {!Brdb_core.Blockchain_db.submit_at}.

    Every session is surfaced as a [sys.clients] row, and the hub feeds
    the [client.*] / [admission.*] registry metrics. All of it is
    deterministic: sessions draw no rng, read no wall clock, and the
    admission check is a pure function of (pins, committed state) — a
    run with admission on commits byte-identical state to one with it
    off (the [test_client] qcheck oracle). *)

module B = Brdb_core.Blockchain_db
module Value = Brdb_storage.Value

type hub

type t

(** [create_hub ?admission ?max_window db] — [admission:false] keeps the
    pinning and bookkeeping but skips the pre-submit check (the A/B
    baseline); [max_window] enables Early Fail Tx (2) for sessions older
    than that many blocks (off by default). Installs the [sys.clients]
    rows provider. Raises [Invalid_argument] unless [db] runs the EO
    flow. *)
val create_hub : ?admission:bool -> ?max_window:int -> B.t -> hub

(** Open a session: assign a peer (round-robin) and pin its height. *)
val begin_ : hub -> user:Brdb_crypto.Identity.t -> t

(** Index of the session's database peer. *)
val peer_index : t -> int

(** Pinned read: the row visible at the session's pinned height on its
    peer ([None] when absent); records the pin for admission. *)
val read : t -> table:string -> key:Value.t -> Value.t array option

(** Like {!read}, but also serves a provenance proof for the row's
    creating write and verifies it against the peer's provenance anchor
    ({!Proof.tip_digest}: the head of its history tree over the chained
    state digests) before returning it — [Error] when the row is absent,
    the proof cannot be built (provenance floor) or verification fails.
    The returned anchor is the tree head the proof was checked against;
    an untrusting client re-checks the anchor across peers. *)
val read_verified :
  t ->
  table:string ->
  key:Value.t ->
  (Value.t array * Proof.provenance * string, string) result

(** Outcome of a {!submit}: shipped to the network, or failed locally by
    admission control (the transaction consumed no ordering bandwidth). *)
type submit_result = Submitted of string | Early_abort of Admission.violation

(** Pre-submit admission check, then pinned submission. A session is
    single-shot like a transaction context: after [submit] it is closed
    and further [read]/[submit] calls raise [Invalid_argument]. *)
val submit : t -> contract:string -> args:Value.t list -> submit_result

(** Serve + verify a read receipt for a decided transaction from the
    session's peer (checked against the peer's tip block hash). *)
val receipt : t -> tx_id:string -> (Proof.receipt * string, string) result

(** Explicitly close a session without submitting. *)
val close : t -> unit

(** Hub-level totals (mirrored into the registry as [admission.*] /
    [client.*] metrics): sessions opened, pinned reads, transactions
    submitted, early aborts, receipts verified. *)
val totals : hub -> int * int * int * int * int
