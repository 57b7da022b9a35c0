(** The per-node smart-contract registry.

    Contracts are versioned: replacing a contract bumps its version, and
    the flows abort any in-flight transaction that executed an older
    version (§3.7: "any uncommitted transactions that executed on an
    older version of the contract are aborted"). *)

type body =
  | Native of (Api.t -> unit)  (** OCaml closure over the restricted API *)
  | Procedural of Procedural.t

type contract = { name : string; version : int; body : body }

type t

val create : unit -> t

(** [deploy t ~name body] installs or replaces; returns the new version.
    Procedural bodies must already have passed the determinism guard. *)
val deploy : t -> name:string -> body -> int

val drop : t -> name:string -> (unit, string) result

val find : t -> string -> contract option

(** {2 Snapshot support (DESIGN.md §11)} *)

(** Version counter carried in state snapshots so deploys after a
    bootstrap allocate the same versions as on a replaying node. *)
val next_version : t -> int

val set_next_version : t -> int -> unit

(** Procedural contracts as [(name, version, source)], sorted by name.
    Native contracts are not serializable; nodes install them
    out-of-band at startup, identically on every peer. *)
val export_procedural : t -> (string * int * string) list

(** Install a procedural contract at an exact version (snapshot install);
    parses and determinism-checks the source. *)
val install_exact :
  t -> name:string -> version:int -> source:string -> (unit, string) result
