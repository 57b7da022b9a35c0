(** Abort-reason taxonomy.

    Collapses {!Brdb_txn.Txn.abort_reason} into the classes the paper's
    evaluation (and Ports & Grittner's SSI tuning methodology) reason
    about. The class is a node-local judgement: for the same transaction
    one node may see an rw-antidependency while another sees a stale read
    (CLAUDE.md gotcha) — only the commit/abort {i decision} and write-set
    hash must agree across nodes, which {!Brdb_core.Chaos} now checks. *)

type t =
  | Rw_antidependency
      (** plain SSI dangerous structure (pivot-committed-out /
          dangerous-structure) *)
  | Block_aware_commit
      (** abort-during-commit by the block-aware rules of Table 2 *)
  | Lost_update  (** first-committer-wins ww conflict *)
  | Stale_read
  | Phantom_read
  | Uniqueness  (** duplicate primary key *)
  | Duplicate_txid
  | Index_restriction  (** missing index / blind update under strict reads *)
  | Contract_failure  (** contract raised [Api.Failed] *)
  | Deploy_conflict  (** contract updated during execution (§3.7) *)
  | Chaos_induced  (** rollback forced by crash replay or ordering clamp *)
  | Admission
      (** failed the client-side pre-submit admission check (ISSUE 10
          "Early Fail Tx"): a pinned read version was superseded, or the
          session outlived its height window — the transaction never
          reached the orderer, so {!of_reason} never returns this class;
          counts surface via [sys.clients] and the [admission.*] metrics *)

val all : t list

val to_string : t -> string

val of_reason : Brdb_txn.Txn.abort_reason -> t
