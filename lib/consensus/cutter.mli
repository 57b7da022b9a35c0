(** Block cutting: accumulate transactions until the block-size cap or a
    time-to-cut decision (§4.4).

    The cutter also deduplicates transaction ids across the whole stream:
    resubmissions of an already ordered or pending transaction are
    dropped, matching the §3.5 obscuration-recovery story — which doubles
    as replay protection for the ISSUE 10 authentication plane.

    Signatures are checked by the [auth] verifier in deterministic
    batches at cut time: the batch order is canonical, so every orderer
    that cuts the same batch drops the same forged transactions and the
    cut stays byte-identical across nodes. *)

type t

(** [auth] is the per-transaction signature verifier (DESIGN.md §16). *)
val create : auth:(Brdb_ledger.Block.tx -> bool) -> block_size:int -> unit -> t

type add_result =
  | Cut of Brdb_ledger.Block.tx list  (** size cap reached *)
  | First  (** buffered; it opened a new batch — arm the timer *)
  | Buffered
  | Duplicate

val add : t -> Brdb_ledger.Block.tx -> add_result

(** Force a cut (time-to-cut); [None] when nothing is pending. *)
val cut : t -> Brdb_ledger.Block.tx list option

(** Buffer a transaction without ever triggering a size cut — how BFT
    replicas that are not the current primary accumulate the backlog a
    view change may later ask them to propose (§4.4). The signature is
    checked on arrival: a forgery is counted in
    {!auth_rejected} and dropped ([`Rejected]), so it can never sit in a
    backlog that no primary will deliver. *)
val stash : t -> Brdb_ledger.Block.tx -> [ `Stashed | `Duplicate | `Rejected ]

(** [drop t ~ids] marks [ids] as seen and removes them from the pending
    batch (they were ordered by someone else — e.g. delivered in a block
    cut by another primary). Returns how many pending txs were removed. *)
val drop : t -> ids:string list -> int

(** Like {!cut} but takes at most [block_size] transactions (oldest
    first), leaving the rest pending — used by a new primary draining a
    backlog accumulated across a view change. *)
val take_batch : t -> Brdb_ledger.Block.tx list option

val pending : t -> int

(** The pending batch, oldest first, without removing it — a BFT replica
    re-relays this backlog to the new primary after a view change. *)
val pending_txs : t -> Brdb_ledger.Block.tx list

(** The configured block size (the cap {!add} cuts at). *)
val capacity : t -> int

(** Number of batches opened so far — used to detect whether a timer
    still refers to the current batch. *)
val epoch : t -> int

(** Transactions whose signature passed batch verification at cut time. *)
val auth_verified : t -> int

(** Forged transactions dropped at cut time. *)
val auth_rejected : t -> int

(** Submissions dropped by the duplicate-id check — replayed (or benignly
    resubmitted) transaction ids observed at this orderer. *)
val replays : t -> int
