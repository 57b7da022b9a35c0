(** Named signing identities and a public-key registry.

    Plays the role of the paper's certificate infrastructure: every client,
    admin, database node and orderer node owns an identity; every node holds
    a registry mapping names to public keys (the [pgCerts] analogue). *)

type t

(** [create name] derives a deterministic keypair from [name]. Names are
    conventionally ["org/user"], e.g. ["org1/alice"] or ["org2/db-node"]. *)
val create : string -> t

val name : t -> string

val sign : t -> string -> Schnorr.signature

module Registry : sig
  type id := t

  type t

  val create : unit -> t

  (** [register t identity] stores the identity's public key. Re-registering
      the same name with a different key is an error ([Error `Conflict]). *)
  val register : t -> id -> (unit, [ `Conflict ]) result

  (** Unconditional upsert (user-management updates). *)
  val set : t -> name:string -> Schnorr.public_key -> unit

  val remove : t -> string -> unit

  (** [verify t ~name msg signature] is false when [name] is unknown. *)
  val verify : t -> name:string -> string -> Schnorr.signature -> bool

end
