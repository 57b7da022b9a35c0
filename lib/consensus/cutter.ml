module Block = Brdb_ledger.Block

type t = {
  block_size : int;
  auth : Block.tx -> bool;
  mutable pending : Block.tx list; (* newest first *)
  mutable pending_count : int;
  mutable epoch : int;
  mutable auth_verified : int;
  mutable auth_rejected : int;
  mutable replays : int;
  seen : (string, unit) Hashtbl.t;
}

let create ~auth ~block_size () =
  if block_size < 1 then invalid_arg "Cutter.create: block_size must be >= 1";
  {
    block_size;
    auth;
    pending = [];
    pending_count = 0;
    epoch = 0;
    auth_verified = 0;
    auth_rejected = 0;
    replays = 0;
    seen = Hashtbl.create 256;
  }

type add_result = Cut of Block.tx list | First | Buffered | Duplicate

(* Batch authentication (ISSUE 10): signatures are checked when a batch
   is taken for cutting, in batch order — one deterministic verification
   pass per block rather than one per submission. Forged transactions are
   dropped here, so they never reach the assembler. *)
let authenticate t txs =
  List.filter
    (fun tx ->
      if t.auth tx then begin
        t.auth_verified <- t.auth_verified + 1;
        true
      end
      else begin
        t.auth_rejected <- t.auth_rejected + 1;
        false
      end)
    txs

let take t =
  let txs = List.rev t.pending in
  t.pending <- [];
  t.pending_count <- 0;
  t.epoch <- t.epoch + 1;
  authenticate t txs

let add t tx =
  if Hashtbl.mem t.seen tx.Block.tx_id then begin
    t.replays <- t.replays + 1;
    Duplicate
  end
  else begin
    Hashtbl.replace t.seen tx.Block.tx_id ();
    t.pending <- tx :: t.pending;
    t.pending_count <- t.pending_count + 1;
    if t.pending_count >= t.block_size then
      (* An all-forged batch cuts to nothing; report it as buffered so the
         caller does not propose an empty block. *)
      match take t with [] -> Buffered | txs -> Cut txs
    else if t.pending_count = 1 then First
    else Buffered
  end

let cut t =
  if t.pending_count = 0 then None
  else match take t with [] -> None | txs -> Some txs

(* A stashed forgery would never be delivered, so it would keep the
   holder's view-change watchdog armed and depose every primary in turn:
   verify it on arrival instead of at cut time. Only the rejection is
   counted here; a stashed transaction is counted as verified when the
   primary cuts it. *)
let stash t tx =
  if Hashtbl.mem t.seen tx.Block.tx_id then begin
    t.replays <- t.replays + 1;
    `Duplicate
  end
  else begin
    Hashtbl.replace t.seen tx.Block.tx_id ();
    if t.auth tx then begin
      t.pending <- tx :: t.pending;
      t.pending_count <- t.pending_count + 1;
      `Stashed
    end
    else begin
      t.auth_rejected <- t.auth_rejected + 1;
      `Rejected
    end
  end

let drop t ~ids =
  List.iter (fun id -> Hashtbl.replace t.seen id ()) ids;
  let keep =
    List.filter (fun tx -> not (List.mem tx.Block.tx_id ids)) t.pending
  in
  let removed = t.pending_count - List.length keep in
  if removed > 0 then begin
    t.pending <- keep;
    t.pending_count <- List.length keep
  end;
  removed

let take_batch t =
  if t.pending_count = 0 then None
  else begin
    let oldest_first = List.rev t.pending in
    let rec split n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | tx :: rest -> split (n - 1) (tx :: acc) rest
    in
    let batch, rest = split t.block_size [] oldest_first in
    t.pending <- List.rev rest;
    t.pending_count <- List.length rest;
    t.epoch <- t.epoch + 1;
    match authenticate t batch with [] -> None | txs -> Some txs
  end

let pending t = t.pending_count

let pending_txs t = List.rev t.pending

let capacity t = t.block_size

let epoch t = t.epoch

let auth_verified t = t.auth_verified

let auth_rejected t = t.auth_rejected

let replays t = t.replays
