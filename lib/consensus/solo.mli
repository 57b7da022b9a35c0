(** Single-orderer ordering service (development / baseline).

    One orderer node receives transactions, cuts blocks by size or
    timeout, signs them and delivers to every connected peer: the
    {!Assembler} application layer over the degenerate ordered stream,
    where each submission is applied as it arrives and each time-to-cut
    as its timer fires. Charged a fixed CPU cost per transaction (20 µs)
    and per block (1 ms) so saturation behaviour is realistic. *)

type t

val create :
  net:Msg.Net.net ->
  name:string ->
  identity:Brdb_crypto.Identity.t ->
  auth:(Brdb_ledger.Block.tx -> bool) ->
  block_size:int ->
  block_timeout:float ->
  peers:string list ->
  unit ->
  t

(** The node's application layer: its cutter and blocks-cut count. *)
val assembler : t -> Assembler.t
