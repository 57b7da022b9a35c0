(** The per-orderer application layer every ordering flavour shares
    (§3.1, §4.4): an ordering service turns submissions into one ordered
    stream of {!Msg.kafka_entry} values, and each orderer node applies
    that stream here — it owns the node's {!Cutter}, assembles cut
    batches into hash-chained, signed blocks, and fans them out to the
    peers connected to the node.

    Solo applies the degenerate stream (each submission and each
    time-to-cut where it is made), Kafka the broker's offset order and
    Raft its committed log, so every Kafka or Raft orderer cuts
    byte-identical blocks. Bft stashes and cuts through the cutter
    itself, as its protocol requires, and delivers committed blocks
    through {!deliver}. Orderers running the same deterministic stream
    produce identical hashes (signatures are not part of the hash). *)

type t

(** [create ~net ~name ~identity ~metadata ~auth ~block_size
     ~block_timeout ~peers] — [name] is the orderer node's network name,
    [identity] signs its blocks, [metadata] goes into every block
    header; [auth] and [block_size] configure the cutter
    ({!Cutter.create}), and a batch's time-to-cut fires [block_timeout]
    seconds after its first transaction. *)
val create :
  net:Msg.Net.net ->
  name:string ->
  identity:Brdb_crypto.Identity.t ->
  metadata:string ->
  auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers:string list ->
  t

(** The node's cutter: its batch backlog ({!Cutter.pending}) and its
    batch-authentication counters (DESIGN.md §16), which {!Service}
    reads. *)
val cutter : t -> Cutter.t

(** Blocks delivered to the connected peers so far. *)
val blocks_cut : t -> int

(** Apply one entry of the ordered stream. [K_tx] adds the transaction
    to the batch; a full batch is cut at once, and a transaction that
    opens a batch arms its time-to-cut: [block_timeout] later, if that
    batch is still open and non-empty, [ttc] receives the [K_ttc] entry
    naming it, to order like any other entry. [K_ttc] cuts the batch it
    names if that batch is still the open one; later duplicates are
    stale. A cut block is assembled ({!make}) and delivered
    ({!deliver}) inside [cut], so each flavour charges its own modelled
    CPU for it. *)
val apply :
  t ->
  cut:((unit -> unit) -> unit) ->
  ttc:(Msg.kafka_entry -> unit) ->
  Msg.kafka_entry ->
  unit

(** Assemble the next block of the chain from [txs] and sign it. *)
val make : t -> Brdb_ledger.Block.tx list -> Brdb_ledger.Block.t

(** Send a block to every connected peer and count it. *)
val deliver : t -> Brdb_ledger.Block.t -> unit

(** Re-anchor the chain — a BFT replica that just became primary resumes
    assembly above the highest block the view change carried over. *)
val reset : t -> next_height:int -> prev_hash:string -> unit
