(** Discrete-event scheduler with a virtual clock (seconds).

    Events scheduled for the same instant fire in scheduling order, so
    simulations are fully deterministic. Callbacks may schedule further
    events. *)

type t

val create : unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** [schedule t ~delay f] — [delay] is clamped at 0. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** Process events in time order until the queue is empty or the next
    event lies beyond [until]. Returns the number of events processed. *)
val run : ?until:float -> t -> int
