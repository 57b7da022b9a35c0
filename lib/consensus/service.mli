(** Pluggable ordering service (§3.1): one constructor for each consensus
    flavour, a uniform handle for the database layer.

    Clients and database nodes interact with the service purely through
    network messages: they send {!Msg.Client_tx} to one of
    {!orderer_names} and receive {!Msg.Block_deliver} from the orderer
    they are connected to. *)

type kind =
  | Solo
  | Kafka  (** CFT, broker-cluster total order (paper's default) *)
  | Raft  (** CFT, leader-replicated log *)
  | Bft  (** PBFT-style, tolerates (n-1)/3 byzantine orderers *)

type t

(** [create ~net ~kind ~orderer_names ~identity_of ~rng ~authenticator
     ~block_size ~block_timeout ~peers_of ()] starts all orderer nodes.
    [peers_of o] lists the database nodes connected to orderer [o] (each
    peer should be connected to exactly one orderer, or to [2f+1] for
    byzantine settings — the delivery fan-out is up to the caller).

    [authenticator] is the per-transaction signature verifier every
    orderer's cutter applies in deterministic batches before cutting a
    block (DESIGN.md §16). *)
val create :
  net:Msg.Net.net ->
  kind:kind ->
  orderer_names:string list ->
  identity_of:(string -> Brdb_crypto.Identity.t) ->
  rng:Brdb_sim.Rng.t ->
  authenticator:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers_of:(string -> string list) ->
  unit ->
  t

val orderer_names : t -> string list

(** Round-robin assignment helper: the orderer that the [i]-th client
    should submit to. *)
val submit_target : t -> int -> string

(** Blocks cut/delivered per orderer (diagnostics). *)
val blocks_cut : t -> (string * int) list

(** Sum of {!blocks_cut} — the monotone progress counter the health
    plane's ordering-stall detector watches (ISSUE 9): flat while the
    service cuts nothing, whatever the consensus flavour. *)
val cut_total : t -> int

(** Largest cutter backlog held by any live orderer node — the "work the
    service has but is not cutting" signal behind the ordering-stall
    detector (ISSUE 9). Max, not sum: BFT replicas stash copies of the
    same backlog, and a crashed node's stranded queue must not read as
    pending work. *)
val queued : t -> int

(** Batch-authentication totals across the service (ISSUE 10):
    transactions verified / forged-and-dropped at cut time (a BFT backup
    also drops forgeries as they arrive), and duplicate ids observed
    (replay protection). Kafka and Raft orderers all cut identical
    blocks, so their counters are maxed rather than summed; BFT counters
    are summed over the replicas. *)
val auth_verified : t -> int

val auth_rejected : t -> int

val auth_replayed : t -> int

(** Crash/restart one orderer node by name (Raft and Bft only; mirrors
    {!Raft.crash}/{!Bft.crash}). Returns [false] for unknown names and
    for ordering kinds without a crash model (Solo, Kafka). *)
val crash_orderer : t -> string -> bool

val restart_orderer : t -> string -> bool

(** The node currently in charge of cutting blocks, if the notion
    applies: the Solo orderer, the Raft leader, or the BFT primary of
    the highest view any replica has entered. *)
val leader : t -> string option

(** Raft: total elections won across nodes (0 for other kinds). *)
val elections : t -> int

(** Bft: max view changes entered by any replica (0 for other kinds). *)
val view_changes : t -> int

(** Raft: highest term across nodes (0 for other kinds). *)
val term : t -> int

(** Bft: highest view across replicas (0 for other kinds). *)
val view : t -> int
