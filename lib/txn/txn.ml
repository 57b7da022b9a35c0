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

module Predicate_tbl = Hashtbl.Make (Brdb_storage.Predicate)

(* One table's read set: an unboxed, growable vid buffer. [sorted] means
   [buf.(0 .. len-1)] is strictly ascending, hence duplicate-free; a read
   that breaks the order clears it and [seal] restores it. *)
type reads = {
  table : string;
  mutable buf : int array;
  mutable len : int;
  mutable sorted : bool;
}

type t = {
  txid : int;
  tracked : bool;
  global_id : string;
  client : string;
  description : string;
  snapshot_height : int;
  mutable reads : reads list;
  mutable predicates : Brdb_storage.Predicate.t list;
  mutable predicates_seen : unit Predicate_tbl.t option;
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
    predicates = [];
    predicates_seen = None;
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

(* What an untracked transaction records into: a buffer owned by no
   transaction, which [record_read] never grows. *)
let untracked = { table = ""; buf = [||]; len = 0; sorted = true }

let rec find_reads table = function
  | [] -> untracked
  | r :: rest -> if String.equal r.table table then r else find_reads table rest

let reads_of t ~table =
  if not t.tracked then untracked
  else
    let r = find_reads table t.reads in
    if r != untracked then r
    else begin
      let r = { table; buf = [||]; len = 0; sorted = true } in
      t.reads <- r :: t.reads;
      r
    end

let record_read r vid =
  let len = r.len in
  (* A scan yields ascending vids and nested probes revisit hot rows, so
     checking the last entry drops most duplicates before they land. *)
  if len = 0 || r.buf.(len - 1) <> vid then
    if r != untracked then begin
      if len = Array.length r.buf then begin
        let buf = Array.make (max 8 (2 * len)) 0 in
        Array.blit r.buf 0 buf 0 len;
        r.buf <- buf
      end;
      if len > 0 && vid < r.buf.(len - 1) then r.sorted <- false;
      r.buf.(len) <- vid;
      r.len <- len + 1
    end

(* [sort_into src dst lo hi] sorts the vids [src] and [dst] both hold in
   [lo, hi) into [dst], using [src] as scratch: a merge sort whose int
   comparisons compile inline, where [Array.sort] calls a closure for
   each one. *)
let rec sort_into (src : int array) (dst : int array) lo hi =
  if hi - lo >= 2 then begin
    let mid = (lo + hi) / 2 in
    sort_into dst src lo mid;
    sort_into dst src mid hi;
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi || (!i < mid && src.(!i) <= src.(!j)) then begin
        dst.(k) <- src.(!i);
        incr i
      end
      else begin
        dst.(k) <- src.(!j);
        incr j
      end
    done
  end

(* Sort, drop duplicates and trim the buffer to its length: the set
   outlives execution (until the block commits), so it keeps no slack. *)
let seal_table r =
  if not r.sorted then begin
    let a = Array.sub r.buf 0 r.len in
    sort_into r.buf a 0 r.len;
    let n = ref 1 in
    for i = 1 to r.len - 1 do
      if a.(i) <> a.(!n - 1) then begin
        a.(!n) <- a.(i);
        incr n
      end
    done;
    r.buf <- (if !n = r.len then a else Array.sub a 0 !n);
    r.len <- !n;
    r.sorted <- true
  end
  else if r.len < Array.length r.buf then r.buf <- Array.sub r.buf 0 r.len

let seal t = List.iter seal_table t.reads

let reads_table r = r.table

let iter_vids f r =
  if not r.sorted then seal_table r;
  for i = 0 to r.len - 1 do
    f r.buf.(i)
  done

let exists_vid p r =
  if not r.sorted then seal_table r;
  let rec from i = i < r.len && (p r.buf.(i) || from (i + 1)) in
  from 0

let record_predicate t p =
  if t.tracked then begin
    let seen =
      match t.predicates_seen with
      | Some seen -> seen
      | None ->
          let seen = Predicate_tbl.create 8 in
          t.predicates_seen <- Some seen;
          seen
    in
    (* One hash per predicate: [replace] grows the set only for a new one. *)
    let before = Predicate_tbl.length seen in
    Predicate_tbl.replace seen p ();
    if Predicate_tbl.length seen > before then t.predicates <- p :: t.predicates
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
