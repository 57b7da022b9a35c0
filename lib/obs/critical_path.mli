(** Per-block critical-path analysis (ISSUE 7, tentpole b).

    A block's transactions are applied serially in commit order (§3.4),
    but only the dependency structure — rw antidependencies from SSI
    metadata plus ww conflicts on claimed versions — actually {e forces}
    an order. The longest weighted path through that DAG is the time the
    block would take under perfect intra-block parallelism; the ratio
    [serial /. critical] is the {b parallel headroom} that sizes ROADMAP
    item 1 (parallel validation) before building it. Cf. Meir et al.,
    "Lockless Transaction Isolation in Hyperledger Fabric" (PAPERS.md),
    which exploits the same structure.

    The analyzer is a pure function: callers extract the edges and
    per-transaction weights (cost-model [tet] values), so results are
    deterministic and identical on every node of a deployment. *)

type input = {
  n : int;  (** transactions in the block, positions [0 .. n-1] *)
  weights : float array;
      (** simulated execution cost per position (seconds); 0 for
          transactions that never execute (early rejects) *)
  edges : (int * int) list;
      (** dependency edges [(a, b)] with [a < b]: position [b] must wait
          for position [a] (rw or ww conflict; commit order resolves the
          direction) *)
}

type result = {
  serial_s : float;  (** sum of all weights — today's serial execution *)
  critical_s : float;  (** longest weighted path through the DAG *)
  headroom : float;
      (** [serial_s /. critical_s]; [1.0] for an empty block — always
          >= 1.0 *)
  waves : int;
      (** longest edge-count chain + 1: minimum number of sequential
          execution waves any scheduler needs *)
  path : int list;  (** positions of one longest path, in commit order *)
}

(** Raises [Invalid_argument] if the weight array mismatches [n] or an
    edge is out of range / not (low, high). [waves] is one more than the
    highest wave index {!schedule} assigns. *)
val analyze : input -> result

(** [schedule ~n ~edges] levelizes the DAG into topological waves:
    position [i]'s wave index is [0] if it has no in-block predecessors,
    otherwise one more than the max wave over its predecessors. Every
    edge [(a, b)] satisfies [wave.(a) < wave.(b)], so executing waves in
    ascending index order with a barrier between them respects every
    dependency; this is the schedule the parallel validator runs
    (DESIGN.md §14). Raises [Invalid_argument] if an edge is out of
    range / not (low, high). *)
val schedule : n:int -> edges:(int * int) list -> int array
