module B = Brdb_core.Blockchain_db
module Value = Brdb_storage.Value
module Identity = Brdb_crypto.Identity
module Peer = Brdb_node.Peer
module Node_core = Brdb_node.Node_core
module Reg = Brdb_obs.Registry
module Obs = Brdb_obs.Obs

type status = Active | Submitted | Early_aborted | Closed

let status_to_string = function
  | Active -> "active"
  | Submitted -> "submitted"
  | Early_aborted -> "early-aborted"
  | Closed -> "closed"

type t = {
  s_id : string;
  s_user : Identity.t;
  s_peer : int;
  s_pinned : int;
  hub : hub;
  mutable s_pins : Admission.pin list;  (** reverse read order *)
  mutable s_reads : int;
  mutable s_submitted : int;
  mutable s_early_aborts : int;
  mutable s_receipts : int;
  mutable s_status : status;
}

and hub = {
  db : B.t;
  admission : bool;
  max_window : int option;
  mutable next : int;
  mutable sessions : t list;  (** reverse open order *)
  mutable opened : int;
}

let reg h = Obs.metrics (B.obs h.db)

let bump ?(by = 1) h name = Reg.incr ~by (reg h) ~node:"client" name

let rows h () =
  List.rev_map
    (fun s ->
      {
        B.cr_session = s.s_id;
        cr_user = Identity.name s.s_user;
        cr_peer = Peer.name (List.nth (B.peers h.db) s.s_peer);
        cr_status = status_to_string s.s_status;
        cr_pinned_height = s.s_pinned;
        cr_reads_pinned = s.s_reads;
        cr_submitted = s.s_submitted;
        cr_early_aborts = s.s_early_aborts;
        cr_receipts_verified = s.s_receipts;
      })
    h.sessions

let create_hub ?(admission = true) ?max_window db =
  (match max_window with
  | Some w when w < 1 -> invalid_arg "Session.create_hub: max_window < 1"
  | _ -> ());
  let h = { db; admission; max_window; next = 0; sessions = []; opened = 0 } in
  B.set_client_rows_provider db (rows h);
  h

let core_of s = Peer.core (List.nth (B.peers s.hub.db) s.s_peer)

let begin_ h ~user =
  let peers = B.peers h.db in
  let peer = h.next mod List.length peers in
  h.next <- h.next + 1;
  h.opened <- h.opened + 1;
  let s =
    {
      s_id = Printf.sprintf "sess-%04d" h.opened;
      s_user = user;
      s_peer = peer;
      s_pinned = Node_core.height (Peer.core (List.nth peers peer));
      hub = h;
      s_pins = [];
      s_reads = 0;
      s_submitted = 0;
      s_early_aborts = 0;
      s_receipts = 0;
      s_status = Active;
    }
  in
  h.sessions <- s :: h.sessions;
  bump h "client.sessions";
  s

let peer_index s = s.s_peer

let require_active s op =
  match s.s_status with
  | Active -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Session.%s: session %s is %s" op s.s_id
           (status_to_string s.s_status))

let read s ~table ~key =
  require_active s "read";
  let pin, values =
    Admission.pin_read (core_of s) ~table ~key ~height:s.s_pinned
  in
  s.s_pins <- pin :: s.s_pins;
  s.s_reads <- s.s_reads + 1;
  bump s.hub "client.reads_pinned";
  values

type submit_result = Submitted of string | Early_abort of Admission.violation

let submit s ~contract ~args =
  require_active s "submit";
  let verdict =
    if not s.hub.admission then Ok ()
    else
      Admission.check (core_of s) ~pins:(List.rev s.s_pins)
        ~pinned_height:s.s_pinned ?max_window:s.hub.max_window ()
  in
  match verdict with
  | Error v ->
      s.s_status <- Early_aborted;
      s.s_early_aborts <- s.s_early_aborts + 1;
      bump s.hub "admission.early_aborts";
      Early_abort v
  | Ok () ->
      let tx_id =
        B.submit_at s.hub.db ~user:s.s_user ~contract ~args ~peer:s.s_peer
          ~snapshot:s.s_pinned
      in
      s.s_status <- Submitted;
      s.s_submitted <- s.s_submitted + 1;
      (* [Blockchain_db.submit_at] already counts client.submitted *)
      Submitted tx_id

let read_verified s ~table ~key =
  require_active s "read_verified";
  let core = core_of s in
  let pin, values =
    Admission.pin_read core ~table ~key ~height:s.s_pinned
  in
  s.s_pins <- pin :: s.s_pins;
  s.s_reads <- s.s_reads + 1;
  bump s.hub "client.reads_pinned";
  match (values, pin.Admission.p_creator) with
  | None, _ | _, None ->
      Error (Printf.sprintf "%s[%s]: no visible row" table (Value.encode key))
  | Some vals, Some creator -> (
      match
        Proof.build_provenance core ~height:creator
          ~matches:(Proof.row_write_matches ~table ~values:vals)
      with
      | Error e -> Error e
      | Ok pv ->
          let anchor = Proof.tip_digest core in
          if Proof.verify_provenance ~tip_digest:anchor pv then (
            s.s_receipts <- s.s_receipts + 1;
            bump s.hub "client.receipts_verified";
            Ok (vals, pv, anchor))
          else Error "provenance proof failed verification")

let receipt s ~tx_id =
  let core = core_of s in
  match Proof.build_receipt core ~tx_id with
  | Error e -> Error e
  | Ok rc ->
      let anchor = Proof.tip_hash core in
      if Proof.verify_receipt ~tip_hash:anchor rc then (
        s.s_receipts <- s.s_receipts + 1;
        bump s.hub "client.receipts_verified";
        Ok (rc, anchor))
      else Error "receipt failed verification"

let close s = match s.s_status with Active -> s.s_status <- Closed | _ -> ()

let totals h =
  let reads, submitted, early, receipts =
    List.fold_left
      (fun (r, sub, e, rc) s ->
        ( r + s.s_reads,
          sub + s.s_submitted,
          e + s.s_early_aborts,
          rc + s.s_receipts ))
      (0, 0, 0, 0) h.sessions
  in
  (h.opened, reads, submitted, early, receipts)
