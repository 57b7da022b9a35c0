(** Simulated CPU: [cores] identical slots behind per-core busy-until
    horizons. With the default [cores = 1] this is the FIFO backlog model
    used for per-message processing in the ordering services; the node
    plane creates a multi-core instance to schedule intra-block validation
    waves (ISSUE 8, DESIGN.md §14). *)

type t

(** Occupancy report handed to the {!run_waves} completion callback. *)
type wave_stats = {
  exec_elapsed : float;
      (** wall-clock span of the wave phase (first wave start to last wave
          end), excluding [head]/[tail] *)
  exec_busy : float;  (** sum of all job costs (core-seconds of real work) *)
  wave_count : int;  (** number of waves executed *)
}

val create : ?cores:int -> Clock.t -> t

val cores : t -> int

(** [run t ~cost f] enqueues [cost] seconds of work on the earliest-free
    core and calls [f] when it completes (after any previously queued work
    on that core). With one core this serializes FIFO. *)
val run : t -> cost:float -> (unit -> unit) -> unit

(** [run_waves t ~head ~tail ~waves ~costs f] models one block's
    wave-scheduled validation: [head] seconds of serial prelude, then for
    each wave index in ascending order the jobs with that index (arrays
    are per block position; [waves.(i)] is position [i]'s wave, [costs.(i)]
    its execution cost) run greedily on the earliest-free core with a merge
    barrier between consecutive waves, then [tail] seconds of serial
    commit. The block is a pipeline barrier: it starts after every core has
    drained and holds every core until the tail finishes, when [f] is
    called with the occupancy stats. *)
val run_waves :
  t ->
  head:float ->
  tail:float ->
  waves:int array ->
  costs:float array ->
  (wave_stats -> unit) ->
  unit
