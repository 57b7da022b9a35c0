(** Chunked, content-addressed transfer of an encoded snapshot
    (DESIGN.md §11).

    The encoded snapshot payload is split into fixed-size chunks; each
    chunk is addressed by its SHA-256, the manifest carries the full hash
    list plus their Merkle root, and the root is bound to the checkpoint's
    chained state digest ([m_binding]) so a manifest cannot mix chunks of
    one state with the digest of another. A fetched chunk verifies
    independently — corruption is detected chunk-by-chunk and only the
    bad chunk is re-fetched (from a rotated source). *)

type chunk = {
  c_index : int;
  c_hash : string;  (** hex SHA-256 of [c_payload] *)
  c_payload : string;
}

type manifest = {
  m_height : int;  (** checkpoint height the snapshot captures *)
  m_state_digest : string;  (** chained state digest at [m_height] *)
  m_chunk_size : int;
  m_total_bytes : int;  (** length of the encoded snapshot *)
  m_hashes : string array;  (** per-chunk content addresses *)
  m_root : string;  (** Merkle root over [m_hashes] *)
  m_binding : string;  (** digest binding root + state digest + height *)
}

(** Default chunk size (bytes). *)
val default_size : int

(** [split ~chunk_size payload] — at least one (possibly empty) chunk.
    Raises [Invalid_argument] when [chunk_size <= 0]. *)
val split : chunk_size:int -> string -> chunk array

val manifest_of_chunks :
  height:int ->
  state_digest:string ->
  chunk_size:int ->
  total_bytes:int ->
  chunk array ->
  manifest

val chunk_count : manifest -> int

(** Internal consistency: root matches the hash list, the binding matches
    the (root, state digest, height) triple, and the chunk count matches
    the advertised size. *)
val verify_manifest : manifest -> bool

(** [verify_chunk m c] — [c]'s payload hashes to the manifest's address
    for its index. *)
val verify_chunk : manifest -> chunk -> bool

(** [assemble m parts] concatenates verified chunk payloads back into the
    encoded snapshot; [Error] names the first missing chunk. *)
val assemble : manifest -> string option array -> (string, string) result
