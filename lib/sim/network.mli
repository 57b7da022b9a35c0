(** Simulated point-to-point network with deterministic fault injection.

    Message delivery time = one-way latency + size / bandwidth (+ small
    seeded jitter). Two presets reproduce the paper's deployments (§5):
    - {!lan_link}: one cloud datacenter, ~0.1 ms one-way, 5 Gbps;
    - {!wan_link}: multi-cloud, ~50 ms one-way, 55 Mbps.

    Nodes register a handler; [send] schedules delivery on the shared
    clock. Messages to unregistered destinations are dropped at delivery
    time (crashed or byzantine-obscuring nodes) and counted in
    {!Make.dropped}.

    The fault plane models the network failures the paper's recovery
    protocol (§3.6) and checkpointing (§3.3.4) are designed to survive:
    per-link message loss and duplication ({!Make.set_fault}) and named
    partitions ({!Make.partition}/{!Make.heal}). All randomness flows
    through the seeded {!Rng}, so a fault schedule is a pure function of
    the seed; configuring no faults leaves the event stream byte-identical
    to a fault-free network (no extra rng draws). *)

type link = { latency_s : float; bandwidth_bps : float }

val lan_link : link

val wan_link : link

(** Per-link fault rates: [drop] is the probability a message vanishes in
    flight, [duplicate] the probability a delivered message arrives twice
    (with independent jitter, so the copy may overtake the original), and
    [corrupt] the probability the delivered payload is passed through the
    net's corrupter ({!Make.set_corrupter}) before delivery — modelling
    in-flight bit rot that integrity checks (snapshot chunk hashes,
    DESIGN.md §11) must catch. *)
type fault = { drop : float; duplicate : float; corrupt : float }

module Make (P : sig
  type payload
end) : sig
  type net

  val create : clock:Clock.t -> rng:Rng.t -> default_link:link -> net

  val clock : net -> Clock.t

  (** Override the link used for one ordered (src, dst) pair. *)
  val set_link : net -> src:string -> dst:string -> link -> unit

  (** Override the fault rates for one ordered (src, dst) pair.
      Setting all three rates to [0.] restores perfect delivery for the
      pair. *)
  val set_fault : net -> src:string -> dst:string -> fault -> unit

  (** [partition net ~name ~members] installs a named partition: every
      message between a member and a non-member (either direction) is
      dropped until {!heal}. Installing a partition with an existing name
      replaces it; independent partitions compose (a message is dropped if
      any active partition separates the endpoints). *)
  val partition : net -> name:string -> members:string list -> unit

  (** Remove the named partition (no-op if absent). *)
  val heal : net -> name:string -> unit

  (** Remove all per-link faults and all partitions. *)
  val clear_faults : net -> unit

  (** [set_tap net f] installs a passive send-side observer: [f] fires
      once per {!send} after the drop/deliver outcome is decided (the
      duplicate copy does not re-fire it). The tap draws no rng and
      schedules nothing, so observability hooks cannot perturb the fault
      schedule or event stream. *)
  val set_tap :
    net ->
    (src:string -> dst:string -> size_bytes:int -> dropped:bool -> P.payload -> unit) ->
    unit

  (** [set_corrupter net f] installs the payload transformer the [corrupt]
      fault applies. Without one, a firing corruption fault delivers the
      payload unchanged; the rng draw happens whenever the link's rate is
      non-zero either way, so installing a corrupter never perturbs the
      drop/duplicate schedule. *)
  val set_corrupter : net -> (P.payload -> P.payload) -> unit

  val register : net -> name:string -> (src:string -> P.payload -> unit) -> unit

  val unregister : net -> name:string -> unit

  (** [send net ~src ~dst ~size_bytes payload] returns the scheduled
      delivery delay (self-sends are immediate). The message may still be
      dropped or duplicated by the fault plane. *)
  val send : net -> src:string -> dst:string -> size_bytes:int -> P.payload -> float

  (** Messages delivered so far. *)
  val delivered : net -> int

  (** Messages lost so far: fault-plane drops, partition drops, and
      messages addressed to an unregistered (crashed) destination. *)
  val dropped : net -> int

  (** Extra copies injected by the duplication fault so far. *)
  val duplicated : net -> int

  (** Payloads actually corrupted (fault fired with a corrupter installed)
      so far. *)
  val corrupted : net -> int

  (** Bytes sent so far. *)
  val bytes_sent : net -> int
end
