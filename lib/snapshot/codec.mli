(** Canonical, deterministic serialization primitives for state snapshots
    (DESIGN.md §11).

    Every field is a netstring ([<len>:<bytes>]): self-delimiting, with
    exactly one spelling per value, so equal states encode to equal bytes
    on every node — the property chunk content-addressing and the
    manifest's Merkle root rely on. No [Marshal], ever (its output
    depends on sharing and word size). *)

type writer

val writer : unit -> writer

val contents : writer -> string

val str : writer -> string -> unit

val int : writer -> int -> unit

val bool : writer -> bool -> unit

val value : writer -> Brdb_storage.Value.t -> unit

(** [list w f xs] writes the length then each element. *)
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

type reader

(** Readers raise an internal exception on malformed input; only
    {!decode} catches it, so use the [r_*] functions inside a decoder
    passed to {!decode}. *)

val r_str : reader -> string

val r_int : reader -> int

val r_bool : reader -> bool

val r_value : reader -> Brdb_storage.Value.t

val r_list : reader -> (reader -> 'a) -> 'a list

(** [decode src f] runs decoder [f] over [src], requiring full
    consumption; malformed input yields [Error] (never an exception). *)
val decode : string -> (reader -> 'a) -> ('a, string) result

(** [fail msg] aborts the decoder running under {!decode} (semantic
    validation failures: bad schema, broken chain, unknown tag). *)
val fail : string -> 'a

