(** Single-orderer ordering service (development / baseline).

    One orderer node receives transactions, cuts blocks by size or
    timeout, signs them and delivers to every connected peer. Charged a
    fixed CPU cost per transaction (20 µs) and per block (1 ms) so
    saturation behaviour is realistic. *)

type t

val create :
  net:Msg.Net.net ->
  name:string ->
  identity:Brdb_crypto.Identity.t ->
  ?auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers:string list ->
  unit ->
  t

(** Blocks cut so far. *)
val blocks_cut : t -> int

(** Transactions buffered for the next block (health plane, ISSUE 9):
    the cutter backlog this node holds right now (0 while a crashed
    Raft/Bft node is down). *)
val queued : t -> int

(** Batch-authentication counters (ISSUE 10): transactions verified /
    dropped at cut time, and duplicate ids observed (replay protection).
    All 0 when no [auth] verifier was installed. *)
val auth_verified : t -> int

val auth_rejected : t -> int

val replays : t -> int
