(** Row-snapshot renderers for the node-local introspection views
    (DESIGN.md §10): the column lists and [Value.t] row encodings of
    [sys.metrics] and [sys.nodes]. The node layer owns registration (via
    [Catalog.register_virtual]) and supplies the facts; this module only
    fixes the schemas so every node renders identical bytes for identical
    inputs. *)

(** Columns of [sys.metrics]: node, name, kind, n, value, vmin, vmax,
    p50, p95 — one row per {!Registry.entry} ([value] is the counter
    value, gauge value or histogram mean depending on [kind]; the
    min/max/percentile columns are 0 for non-histograms). *)
val metrics_columns : Brdb_storage.Schema.column list

(** Rows for a registry snapshot, in the snapshot's (already sorted)
    order. *)
val metric_rows : Registry.entry list -> Brdb_storage.Value.t array list

(** Columns of [sys.nodes]: node (PK), height, inbox, crashed,
    fetch_requests, fetched_blocks, blocks_rejected, crashes, restarts. *)
val nodes_columns : Brdb_storage.Schema.column list

val node_row :
  node:string ->
  height:int ->
  inbox:int ->
  crashed:bool ->
  fetch_requests:int ->
  fetched_blocks:int ->
  blocks_rejected:int ->
  crashes:int ->
  restarts:int ->
  Brdb_storage.Value.t array

(** Columns of [sys.alerts] (ISSUE 9): seq (PK), ts, height, transition,
    detector, severity, subject, evidence — one row per {!Health.alert}
    transition, in log order. *)
val alerts_columns : Brdb_storage.Schema.column list

val alert_row : Health.alert -> Brdb_storage.Value.t array

(** Columns of [sys.detectors]: detector (PK), severity, rule, firing,
    fires, clears, last_ts, last_height — one row per {!Health.summary}. *)
val detectors_columns : Brdb_storage.Schema.column list

val detector_row : Health.summary -> Brdb_storage.Value.t array

(** Columns of [sys.clients] (ISSUE 10): session (PK), user, peer,
    status, pinned_height, reads_pinned, submitted, early_aborts,
    receipts_verified — one row per client-plane session, in session-id
    order. The client hub supplies the facts; registration lives in
    [Blockchain_db] like the other cluster-level views. *)
val clients_columns : Brdb_storage.Schema.column list

val client_row :
  session:string ->
  user:string ->
  peer:string ->
  status:string ->
  pinned_height:int ->
  reads_pinned:int ->
  submitted:int ->
  early_aborts:int ->
  receipts_verified:int ->
  Brdb_storage.Value.t array
