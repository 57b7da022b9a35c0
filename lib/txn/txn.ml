type abort_reason =
  | Ssi_conflict of string
  | Ww_conflict of int
  | Stale_read
  | Phantom_read
  | Duplicate_key of string
  | Duplicate_txid
  | Missing_index of string
  | Blind_update of string
  | Contract_error of string
  | Update_conflict_on_deploy

let abort_reason_to_string = function
  | Ssi_conflict rule -> "serialization failure (" ^ rule ^ ")"
  | Ww_conflict winner -> Printf.sprintf "lost update to txn %d" winner
  | Stale_read -> "stale read"
  | Phantom_read -> "phantom read"
  | Duplicate_key k -> "duplicate key " ^ k
  | Duplicate_txid -> "duplicate transaction identifier"
  | Missing_index what -> "no index for predicate on " ^ what
  | Blind_update table -> "blind update on " ^ table
  | Contract_error msg -> "contract error: " ^ msg
  | Update_conflict_on_deploy -> "smart contract updated during execution"

(* Canonical codec for snapshot serialization (DESIGN.md §11): one tag
   character plus the payload, if any. [abort_reason_to_string] is for
   humans and not injective; this one round-trips. *)
let abort_reason_encode = function
  | Ssi_conflict rule -> "S" ^ rule
  | Ww_conflict winner -> "W" ^ string_of_int winner
  | Stale_read -> "s"
  | Phantom_read -> "p"
  | Duplicate_key k -> "K" ^ k
  | Duplicate_txid -> "d"
  | Missing_index what -> "M" ^ what
  | Blind_update table -> "B" ^ table
  | Contract_error msg -> "C" ^ msg
  | Update_conflict_on_deploy -> "u"

let abort_reason_decode s =
  if String.length s = 0 then None
  else
    let rest = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'S' -> Some (Ssi_conflict rest)
    | 'W' -> Option.map (fun i -> Ww_conflict i) (int_of_string_opt rest)
    | 's' when rest = "" -> Some Stale_read
    | 'p' when rest = "" -> Some Phantom_read
    | 'K' -> Some (Duplicate_key rest)
    | 'd' when rest = "" -> Some Duplicate_txid
    | 'M' -> Some (Missing_index rest)
    | 'B' -> Some (Blind_update rest)
    | 'C' -> Some (Contract_error rest)
    | 'u' when rest = "" -> Some Update_conflict_on_deploy
    | _ -> None

type status = Pending | Committed of int | Aborted of abort_reason

type write =
  | W_insert of { table : string; vid : int }
  | W_update of { table : string; old_vid : int; new_vid : int }
  | W_delete of { table : string; old_vid : int }

type ddl =
  | D_created_table of string
  | D_dropped_table of Brdb_storage.Table.t
  | D_created_index of { table : string; column : int }

type t = {
  txid : int;
  tracked : bool;
  global_id : string;
  client : string;
  description : string;
  snapshot_height : int;
  mutable reads : (string * int) list;
  reads_seen : (string * int, unit) Hashtbl.t;
  mutable predicates : Brdb_storage.Predicate.t list;
  predicates_seen : (Brdb_storage.Predicate.t, unit) Hashtbl.t;
  mutable writes : write list;
  mutable ddl : ddl list;
  mutable status : status;
  mutable marked : abort_reason option;
  mutable block : int option;
  mutable block_pos : int option;
  mutable on_commit : (unit -> unit) list;
}

let create ~txid ~global_id ~client ?(description = "") ~snapshot_height () =
  {
    txid;
    tracked = true;
    global_id;
    client;
    description;
    snapshot_height;
    reads = [];
    reads_seen = Hashtbl.create 32;
    predicates = [];
    predicates_seen = Hashtbl.create 16;
    writes = [];
    ddl = [];
    status = Pending;
    marked = None;
    block = None;
    block_pos = None;
    on_commit = [];
  }

(* The Manager allocates txids from 1 and system rows use xmin 0, so -1
   can never own a version: the reader sees exactly the committed state. *)
let reader ~snapshot_height =
  let t = create ~txid:(-1) ~global_id:"" ~client:"" ~snapshot_height () in
  { t with tracked = false }

let record_read t ~table ~vid =
  (* Reads repeat a lot (every scan revisits hot rows); a hash set keeps
     the list duplicate-free in O(1). *)
  let entry = (table, vid) in
  if t.tracked && not (Hashtbl.mem t.reads_seen entry) then begin
    Hashtbl.replace t.reads_seen entry ();
    t.reads <- entry :: t.reads
  end

let record_predicate t p =
  if t.tracked && not (Hashtbl.mem t.predicates_seen p) then begin
    Hashtbl.replace t.predicates_seen p ();
    t.predicates <- p :: t.predicates
  end

let record_write t w = t.writes <- w :: t.writes

let record_ddl t d = t.ddl <- d :: t.ddl

let mark_abort t reason = if t.marked = None then t.marked <- Some reason

let is_pending t = t.status = Pending

let writes_in_order t = List.rev t.writes

let claimed t =
  List.filter_map
    (function
      | W_update { table; old_vid; _ } | W_delete { table; old_vid } ->
          Some (table, old_vid)
      | W_insert _ -> None)
    t.writes

let created t =
  List.filter_map
    (function
      | W_insert { table; vid } -> Some (table, vid)
      | W_update { table; new_vid; _ } -> Some (table, new_vid)
      | W_delete _ -> None)
    t.writes

let add_on_commit t f = t.on_commit <- f :: t.on_commit
