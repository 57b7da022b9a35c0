(** A table: schema + versioned heap + ordered indexes.

    The primary-key column (when present) always has a backing index.
    Mutations here are *physical*: transactional semantics (claims,
    commits, aborts) are orchestrated by [Brdb_txn]. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val name : t -> string

(** Number of versions ever created (live, dead and uncommitted). *)
val version_count : t -> int

(** Number of versions in the live visibility set (not aborted, no
    deleter); includes uncommitted inserts. *)
val live_count : t -> int

(** [find_version t vid] is [None] when [vid] was pruned or never
    existed. *)
val find_version : t -> int -> Version.t option

(** Like {!find_version}, but raises [Invalid_argument] for a pruned or
    unknown [vid]. *)
val get_version : t -> int -> Version.t

(** [insert_version t ~xmin values] appends a new uncommitted version and
    registers it in all indexes. The caller has already validated the row
    against the schema. *)
val insert_version : t -> xmin:int -> Value.t array -> Version.t

(** [add_index t ~column ~unique] is a no-op when an index on that column
    exists (the unique flag is then OR-ed in). *)
val add_index : t -> column:int -> unique:bool -> unit

val has_index : t -> column:int -> bool

val indexed_columns : t -> int list

(** Columns with a uniqueness constraint (always includes the primary
    key). Enforced at commit time by the transaction manager. *)
val unique_columns : t -> int list

(** {2 Version lifecycle}

    Commit/abort/rollback transitions must go through these so the
    visibility index stays coherent with the version fields (the
    transaction manager and the system ledger are the only callers).
    Setting [creator_block] needs no helper: it never changes index
    membership. *)

(** [mark_deleted t v ~xmax ~height] retires a version: sets its [xmax]
    and [deleter_block], clears claimants, and moves it from the live set
    to the dead bucket of [height], and likewise under its key in every
    index (commit of UPDATE/DELETE, §3.3.3). *)
val mark_deleted : t -> Version.t -> xmax:int -> height:int -> unit

(** Reverse of {!mark_deleted}: clears [xmax]/[deleter_block] and returns
    the version to the live set (§3.6 block rollback). *)
val unmark_deleted : t -> Version.t -> unit

(** [mark_aborted t v] sets [xmin_aborted] and drops the version from the
    visibility index (live set or dead bucket) and from every index.
    Idempotent. *)
val mark_aborted : t -> Version.t -> unit

(** [iter_versions t f] walks every version in vid order. *)
val iter_versions : t -> (Version.t -> unit) -> unit

(** [iter_live t ~height f] walks, in vid order, every version that can be
    visible to some transaction whose snapshot is [height]: the live set
    plus versions deleted by blocks above [height]. A strict superset of
    the versions [Version.visible_at ~height] accepts (callers still apply
    MVCC visibility), skipping dead history entirely. *)
val iter_live : t -> height:int -> (Version.t -> unit) -> unit

(** [iter_index ?height t ~column ~lo ~hi f] walks matching versions in
    key order, ascending vid within a key. With [height] (a snapshot
    height) it walks only what some reader at [height] could see: versions
    with no deleter (committed or not) and versions deleted by a block
    above [height], a strict superset of what [Version.visible_at ~height]
    accepts. Without it (provenance) it walks every version that is not
    aborted. Aborted versions are never walked. Raises [Invalid_argument]
    when no index covers [column]. *)
val iter_index :
  ?height:int ->
  t ->
  column:int ->
  lo:Index.bound ->
  hi:Index.bound ->
  (Version.t -> unit) ->
  unit

(** [index t ~column] is the index covering [column], for a scan that
    probes it many times: resolved once, where {!iter_index} finds it on
    every call. Raises [Invalid_argument] when no index covers [column]. *)
val index : t -> column:int -> Index.t

(** A version callback bound to its table once, for a scan that probes
    many times: each probe then hands it vids, with no closure built. *)
type reader

(** [reader t f] calls [f] with the version of each vid it is handed
    (pruned vids are skipped). *)
val reader : t -> (Version.t -> unit) -> reader

(** [iter_in r idx ~height ~lo ~hi] is {!iter_index} through an index
    from {!index}, calling [r]; [height = min_int] walks every version
    that is not aborted, as {!iter_index} without [height] does. *)
val iter_in : reader -> Index.t -> height:int -> lo:Index.bound -> hi:Index.bound -> unit

(** [probe r idx ~height key] is {!iter_in} over the point range
    [[Incl key, Incl key]], with no bounds built: one index lookup. *)
val probe : reader -> Index.t -> height:int -> Value.t -> unit

(** [pk_lookup ?height t v f] iterates versions whose primary key equals
    [v], filtered by [height] as in {!iter_index}. *)
val pk_lookup : ?height:int -> t -> Value.t -> (Version.t -> unit) -> unit

(** [prune t ~keep] physically drops versions not satisfying [keep]
    (the vacuum analogue, §7 of the paper). Returns number removed.
    Retained versions keep their vids; pruned vids also leave the
    visibility index. *)
val prune : t -> keep:(Version.t -> bool) -> int

(** Cumulative count of versions removed by {!prune} over the table's
    lifetime (the sys.tables [pruned] column). *)
val pruned_total : t -> int

(** {2 Snapshot support (DESIGN.md §11)} *)

(** The heap as a dense array indexed by vid; [None] marks pruned slots.
    The returned versions are the live objects — callers must not mutate
    them. *)
val heap_slots : t -> Version.t option array

(** Indexed columns in index order, paired with their uniqueness flag
    (canonical input for {!restore}). *)
val index_specs : t -> (int * bool) list

(** [restore ~schema ~slots ~indexes ~pruned_total] rebuilds a table from
    a snapshot: the heap is installed verbatim (vids = slot positions),
    the visibility index is recomputed from the version fields, and the
    given indexes are rebuilt over the heap. Raises [Invalid_argument]
    when a slot's vid disagrees with its position. *)
val restore :
  schema:Schema.t ->
  slots:Version.t option array ->
  indexes:(int * bool) list ->
  pruned_total:int ->
  t

(** Debug validator: recomputes the visibility index and each index's
    per-key live/retired split from the heap and compares. [Error]
    describes the divergences found (for an index, its first bad key). *)
val check_visibility : t -> (unit, string) result
