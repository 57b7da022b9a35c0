(** Calibrated service-time model for the simulated testbed.

    The paper's numbers come from 32-vCPU VMs; we reproduce the *shape* of
    its results by running the real engine for semantics while charging
    virtual time from this model. Constants are calibrated once against
    Tables 4 and 5 (see EXPERIMENTS.md) and then held fixed for every
    experiment.

    All times are in seconds. *)

type contract_class =
  | Simple  (** single INSERT (Fig. 5) *)
  | Complex_join  (** two-table join + aggregate (Fig. 6), ≈160x simple *)
  | Complex_group  (** group-by/order-by/limit (Fig. 7) *)
  | Custom of float  (** explicit base execution time *)

type t = {
  cores : int;  (** parallel execution slots per node *)
  tet_simple : float;
  tet_complex_join : float;
  tet_complex_group : float;
  oe_start : float;  (** per-transaction thread start/dispatch (OE) *)
  oe_commit : float;  (** per-transaction serial commit cost (OE) *)
  eo_check : float;  (** per-transaction commit-entry check (EO) *)
  eo_commit : float;  (** per-transaction serial commit cost (EO) *)
  eo_contention : float;
      (** extra execution time per concurrently active backend (EO) — the
          §5.1 observation that unrestricted concurrency inflates tet *)
  serial_overhead : float;  (** extra per-tx cost of the Ethereum-style baseline *)
  block_const : float;  (** fixed per-block processing cost *)
  auth_cost : float;  (** per-transaction signature verification *)
}

val default : t

(** Base transaction execution time for a contract class. *)
val tet : t -> contract_class -> float

(** OE block execution time: serially starting [n] backends plus the
    parallel execution makespan on [cores] slots: [n] jobs of [tet] each
    take [ceil (n / cores)] rounds of [tet], the closed form the Tables 4/5
    calibration used. Raises
    [Invalid_argument] if [cores < 1]. *)
val oe_bet : t -> n:int -> tet:float -> float

val oe_bct : t -> n:int -> float

(** EO block execution time: most transactions already ran; the block
    processor validates [n] of them and executes the [missing] ones. *)
val eo_bet : t -> n:int -> missing:int -> tet:float -> float

val eo_bct : t -> n:int -> float

(** EO per-transaction execution time inflated by backend contention
    ([active] concurrently executing backends) — the §5.1 observation that
    tet grows with unrestricted concurrency. *)
val eo_tet : t -> tet:float -> active:int -> float

(** Ethereum-style baseline: execute and commit one at a time. *)
val serial_bpt : t -> n:int -> tet:float -> float
