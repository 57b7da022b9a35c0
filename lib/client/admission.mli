(** Client-side admission control — the "Early Fail Tx" checks (ISSUE 10).

    A session pins the ledger height at [Begin]; every read records the
    MVCC version it observed (the creator block of the visible version,
    or its absence). Before submitting, the client re-checks each pinned
    read against the peer's {e current} committed state:

    - {b Early Fail Tx (1)}: a pinned version has been superseded — the
      key's visible version changed (updated, deleted, or appeared where
      the pinned read saw nothing). The transaction would abort
      server-side as a stale read / lost update / rw-conflict, so it is
      failed locally and never consumes ordering bandwidth.
    - {b Early Fail Tx (2)}: the session outlived a configurable height
      window — its snapshot is so old that conflict checks against it
      are no longer worth shipping.

    The check is a pure read over a {!Brdb_node.Node_core.t}: it draws no
    rng, writes nothing, and is a function of (pins, committed state), so
    running it never perturbs the block stream. *)

module Value = Brdb_storage.Value

(** One pinned read: the key and the creator block of the version that
    was visible at the session's pinned height ([None] — no visible
    version, i.e. the read observed absence). *)
type pin = { p_table : string; p_key : Value.t; p_creator : int option }

type violation =
  | Superseded of { table : string; key : Value.t }
      (** Early Fail Tx (1): the pinned version is no longer the visible
          one at the peer's current height *)
  | Expired of { age : int; window : int }
      (** Early Fail Tx (2): current height - pinned height exceeds the
          session's height window *)

val violation_to_string : violation -> string

(** [pin_read core ~table ~key ~height] performs a pinned read: returns
    the pin to record plus the row values visible at [height]. *)
val pin_read :
  Brdb_node.Node_core.t ->
  table:string ->
  key:Value.t ->
  height:int ->
  pin * Value.t array option

(** [check core ~pins ~pinned_height ?max_window ()] — the pre-submit
    admission decision against [core]'s current height. Pins are checked
    in the given order; the first violated pin wins (deterministic). *)
val check :
  Brdb_node.Node_core.t ->
  pins:pin list ->
  pinned_height:int ->
  ?max_window:int ->
  unit ->
  (unit, violation) result
