(** Lowercase hexadecimal encoding of byte strings. *)

val encode : string -> string

(** First [n] hex characters of [encode s]; handy for log-friendly digests. *)
val short : ?n:int -> string -> string
