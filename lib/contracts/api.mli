(** The restricted, deterministic API a smart contract executes against —
    the stored-procedure environment of §2(1).

    Contracts see only this interface: parameterized SQL against the
    transaction's snapshot, invocation arguments, local bindings, and the
    invoker's name (for in-contract access control, §3.7). No clock, no
    randomness, no I/O — the determinism the paper requires. *)

type hooks = {
  deploy : kind:string -> name:string -> body:string -> (unit, string) result;
      (** install/replace/drop a contract in the node registry *)
  set_user : name:string -> pubkey:string option -> (unit, string) result;
      (** register (Some pk) or remove (None) a user credential *)
}

type t = {
  catalog : Brdb_storage.Catalog.t;
  txn : Brdb_txn.Txn.t;
  args : Brdb_storage.Value.t array;
  mode : Brdb_engine.Exec.mode;
  hooks : hooks;
  mutable locals : (string * Brdb_storage.Value.t) list;
}

(** Raised by the API on failed statements and by contracts to abort
    themselves; carries the executor error so the flow can map
    [Missing_index]/[Blind_update] to their specific abort reasons. *)
exception Failed of Brdb_engine.Exec.error

val fail : string -> 'a

val make :
  catalog:Brdb_storage.Catalog.t ->
  txn:Brdb_txn.Txn.t ->
  args:Brdb_storage.Value.t array ->
  ?mode:Brdb_engine.Exec.mode ->
  ?hooks:hooks ->
  unit ->
  t

(** Name of the submitting client (authenticated before execution). *)
val invoker : t -> string

val arg_int : t -> int -> int

val arg_text : t -> int -> string

(** [query ctx sql] runs a statement; [$n] refers to invocation args and
    [:name] to locals. *)
val query : t -> string -> Brdb_engine.Exec.result_set

(** First column of the first result row; [None] when no rows. *)
val query1 : t -> string -> Brdb_storage.Value.t option

(** DML convenience: rows affected. *)
val execute : t -> string -> int

val set_local : t -> string -> Brdb_storage.Value.t -> unit
