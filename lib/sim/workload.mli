(** Open-loop Poisson workload generator. *)

(** [run ~clock ~rng ~rate ~duration submit] schedules transaction
    submissions at exponential interarrival times with the given mean
    [rate] (per second) for [duration] seconds of virtual time; [submit]
    receives the 0-based sequence number. Returns the number of arrivals
    scheduled (known only after the clock has run). *)
val run :
  clock:Clock.t ->
  rng:Rng.t ->
  rate:float ->
  duration:float ->
  submit:(int -> unit) ->
  unit
