(** PBFT-style byzantine fault-tolerant ordering service (BFT-SMaRt
    stand-in, §4.4).

    The primary of the current view cuts blocks and drives a three-phase
    exchange (pre-prepare, prepare, commit) with O(n²) messages per
    block. Every message costs CPU at its sender and receiver, so the
    Fig. 8(b) degradation with orderer count *emerges* from the protocol
    rather than being hard-coded.

    View changes are implemented PBFT-style: every non-primary replica
    arms a watchdog timer (on the simulated clock) whenever it holds
    undelivered work; if no block is delivered before it fires, the
    replica broadcasts VIEW-CHANGE for view [v+1] and stops accepting
    old-view protocol messages. A replica also joins a view change once
    [f+1] distinct replicas vote for it (at least one is honest). The
    primary of the new view — [names] indexed by [view mod n] — collects
    [2f+1] votes, deterministically merges the certified in-flight blocks
    they carry, re-anchors its assembler above the highest contiguous
    sequence number, broadcasts NEW-VIEW, and re-runs the three-phase
    protocol for each carried block; quorum intersection guarantees any
    block already delivered anywhere is among them, so no height is ever
    re-proposed with a different block. Unquorumed proposals are
    abandoned and their transactions re-cut (every replica stashes the
    client backlog for exactly this purpose).

    Tolerates [f = (n-1)/3] byzantine orderers for [n] nodes: a block is
    delivered only after [2f] prepares and [2f] commits from distinct
    other nodes. *)

type t

(** Create one orderer node. [names] lists all orderer nodes in a fixed
    order; the primary of view [v] is [names] at index [v mod n] (so the
    first name is the initial primary). Call once per name with that
    node's identity and connected peers.

    The watchdog delay before a silent primary is voted out is
    [4 * block_timeout]. *)
val create :
  net:Msg.Net.net ->
  name:string ->
  names:string list ->
  identity:Brdb_crypto.Identity.t ->
  auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers:string list ->
  unit ->
  t

(** The node's application layer: the cutter it stashes the backlog in
    and cuts from while primary, and its blocks-delivered count — every
    replica delivers each committed block, signed by itself, through it. *)
val assembler : t -> Assembler.t

(** The current view number (0 until the first view change). *)
val view : t -> int

(** How many view changes this replica has entered. *)
val view_changes : t -> int

(** Name of the primary of this replica's current view. *)
val primary : t -> string

(** Crash: unregister from the network and cancel timers. Protocol state
    is kept in memory (mirrors {!Raft.crash}). *)
val crash : t -> unit

(** Restart after {!crash}: re-register and re-arm the watchdog if work
    is outstanding. If a view change displaced this replica while it was
    down, it re-adopts the current view from the legitimate primary's
    traffic. *)
val restart : t -> unit

val is_crashed : t -> bool
