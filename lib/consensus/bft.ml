module Block = Brdb_ledger.Block
module Clock = Brdb_sim.Clock
module Cpu = Brdb_sim.Cpu
module SSet = Set.Make (String)

(* Delivered blocks carried in a VIEW-CHANGE message below the sender's
   frontier: lets a new primary (or a straggler) re-anchor its chain and
   catch up without a separate fetch protocol. *)
let vc_tail = 8

(* Modelled CPU (s): per client transaction received, per protocol message
   received, per message serialized for each recipient, and per block
   assembled and signed. *)
let tx_cpu = 0.00002

let recv_cpu = 0.0012

let send_cpu = 0.0006

let block_cpu = 0.018

type phase_state = {
  mutable block : Block.t option;
  mutable vview : int;  (** view in which the current votes are counted *)
  mutable prepares : SSet.t;
  mutable commits : SSet.t;
  mutable prepare_sent : bool;
  mutable commit_sent : bool;
  mutable delivered : bool;
}

type t = {
  net : Msg.Net.net;
  name : string;
  names : string list;
  others : string list;
  identity : Brdb_crypto.Identity.t;
  clock : Clock.t;
  cpu : Cpu.t;
  assembler : Assembler.t;  (* proposal chain, delivery fan-out *)
  cutter : Cutter.t;  (* the assembler's *)
  block_timeout : float;
  f : int;
  states : (int, phase_state) Hashtbl.t;
  mutable next_deliver : int;
  mutable activity : int;
      (** liveness evidence: bumps on every delivery and on every
          proposal seen from the current primary — a slow-but-streaming
          primary must not be voted out (the watchdog compares this, not
          just deliveries) *)
  mutable top_seq : int;  (** highest sequence number with a known block *)
  (* view-change machinery (§4.4 / PBFT): [view] is the active view,
     [pending_view > view] while this replica has voted to move on and
     stopped accepting old-view protocol messages. *)
  mutable view : int;
  mutable pending_view : int;
  mutable view_changes : int;
  mutable crashed : bool;
  (* target view -> sender -> (last_delivered, entries) *)
  vc_votes : (int, (string, int * (int * Block.t) list) Hashtbl.t) Hashtbl.t;
  (* latest NEW-VIEW seen (sent or received): re-sent to stragglers whose
     VIEW-CHANGE asks for a view we already completed *)
  mutable last_new_view : Msg.t option;
  mutable vc_armed : bool;
  mutable vc_epoch : int;
}

let n_of t = List.length t.names

let primary_of t v = List.nth t.names (v mod n_of t)

let is_primary t = String.equal t.name (primary_of t t.view)

let in_view_change t = t.pending_view > t.view

let state t seq =
  match Hashtbl.find_opt t.states seq with
  | Some s -> s
  | None ->
      let s =
        {
          block = None;
          vview = t.view;
          prepares = SSet.empty;
          commits = SSet.empty;
          prepare_sent = false;
          commit_sent = false;
          delivered = false;
        }
      in
      Hashtbl.replace t.states seq s;
      s

let send_to t dst msg =
  ignore (Msg.Net.send t.net ~src:t.name ~dst ~size_bytes:(Msg.size msg) msg)

let send_all t msg =
  (* Serialization cost per recipient on the sender's CPU. *)
  Cpu.run t.cpu
    ~cost:(send_cpu *. float_of_int (List.length t.others))
    (fun () -> List.iter (fun dst -> send_to t dst msg) t.others)

(* Undelivered work this replica knows about — what the view-change
   watchdog guards. *)
let work_outstanding t =
  Cutter.pending t.cutter > 0 || t.next_deliver <= t.top_seq

(* --- view-change watchdog -------------------------------------------------- *)

(* Forward declarations resolved below (the protocol is mutually
   recursive: timers start view changes, view changes re-propose blocks,
   proposals re-arm timers). *)
let rec ensure_vc_timer t =
  if
    (not t.crashed)
    && (not t.vc_armed)
    && not (String.equal t.name (primary_of t t.view))
  then begin
    t.vc_armed <- true;
    t.vc_epoch <- t.vc_epoch + 1;
    let epoch = t.vc_epoch in
    let snapshot = t.activity in
    let view = t.view in
    (* the view-change timeout: 4x the block timeout *)
    Clock.schedule t.clock ~delay:(4.0 *. t.block_timeout) (fun () ->
        if t.vc_epoch = epoch && not t.crashed then begin
          t.vc_armed <- false;
          if work_outstanding t then begin
            (* No delivery since arming: the primary is crashed or
               silent — vote it out. An already-pending change that also
               stalled (the next primary is down too) escalates. *)
            if t.activity = snapshot && t.view = view then
              send_view_change t (max t.view t.pending_view + 1);
            ensure_vc_timer t
          end
        end)
  end

and vc_table t v =
  match Hashtbl.find_opt t.vc_votes v with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.vc_votes v tbl;
      tbl

(* The blocks this replica can vouch for: delivered tail (chain anchor +
   straggler catch-up) and prepared-but-undelivered in-flight blocks.
   Quorum intersection guarantees any block delivered anywhere appears in
   at least one of the 2f+1 collected votes. Unprepared blocks are
   abandoned — their transactions are still pending in every replica's
   cutter and get re-cut by the new primary. *)
and vc_entries t =
  let lo = max 1 (t.next_deliver - vc_tail) in
  let rec collect seq acc =
    if seq < lo then acc
    else
      let acc =
        match Hashtbl.find_opt t.states seq with
        | Some ({ block = Some b; _ } as s)
          when s.delivered || SSet.cardinal s.prepares >= 2 * t.f ->
            (seq, b) :: acc
        | _ -> acc
      in
      collect (seq - 1) acc
  in
  collect t.top_seq []

and send_view_change t v =
  if v > t.pending_view then begin
    t.pending_view <- v;
    let last = t.next_deliver - 1 in
    let entries = vc_entries t in
    Hashtbl.replace (vc_table t v) t.name (last, entries);
    send_all t (Msg.Bft (Msg.View_change { view = v; last_delivered = last; entries }));
    maybe_become_primary t v
  end

and maybe_become_primary t v =
  if v > t.view && String.equal t.name (primary_of t v) then begin
    let votes = vc_table t v in
    if Hashtbl.length votes >= (2 * t.f) + 1 then become_primary t v votes
  end

(* Enter view [v]: every completed change supersedes any in-flight hope
   for a different view, so old-view message acceptance resumes. *)
and enter_view t v =
  if v > t.view then begin
    t.view <- v;
    t.pending_view <- v;
    t.view_changes <- t.view_changes + 1;
    let stale = Hashtbl.fold (fun k _ acc -> if k <= v then k :: acc else acc) t.vc_votes [] in
    List.iter (Hashtbl.remove t.vc_votes) stale;
    (* restart the watchdog against the new primary *)
    t.vc_epoch <- t.vc_epoch + 1;
    t.vc_armed <- false;
    relay_backlog t;
    if work_outstanding t then ensure_vc_timer t
  end

(* Hand our stashed backlog to the current primary (it deduplicates):
   transactions the dead primary took to its grave get re-proposed as
   long as any live replica stashed them. *)
and relay_backlog t =
  if not (is_primary t) then begin
    let txs = Cutter.pending_txs t.cutter in
    if txs <> [] then
      Cpu.run t.cpu
        ~cost:(send_cpu *. float_of_int (List.length txs))
        (fun () ->
          let dst = primary_of t t.view in
          List.iter (fun tx -> send_to t dst (Msg.Client_tx tx)) txs)
  end

(* Accept block [block] at [seq] proposed in [view] (a PRE-PREPARE or a
   NEW-VIEW re-proposal). A higher view replaces whatever an abandoned
   old-view proposal left behind; delivered slots are final and instead
   echo a PREPARE so a lagging primary can re-form its quorum. *)
and on_block t ~view seq block =
  if view = t.view && not (in_view_change t) then begin
    let s = state t seq in
    if s.delivered then begin
      match s.block with
      | Some b when String.equal b.Block.hash block.Block.hash ->
          send_all t (Msg.Bft (Msg.Prepare { view; seq; digest = b.Block.hash }))
      | _ -> ()
    end
    else begin
      let fresh = s.block = None || view > s.vview in
      let same =
        match s.block with
        | Some b -> String.equal b.Block.hash block.Block.hash
        | None -> false
      in
      if fresh then begin
        s.block <- Some block;
        s.vview <- view;
        s.prepares <- SSet.singleton t.name;
        s.commits <- SSet.empty;
        s.prepare_sent <- true;
        s.commit_sent <- false;
        if seq > t.top_seq then t.top_seq <- seq
      end;
      if fresh || (same && s.vview = view) then begin
        (* re-sending on a duplicate PRE-PREPARE lets quorums re-form
           after a crash wiped the receiver off the network mid-phase *)
        send_all t (Msg.Bft (Msg.Prepare { view; seq; digest = block.Block.hash }));
        if not (is_primary t) then ensure_vc_timer t;
        maybe_commit t seq;
        deliver_ready t
      end
    end
  end

and maybe_commit t seq =
  let s = state t seq in
  if
    s.block <> None && s.prepare_sent
    && (not s.commit_sent)
    && SSet.cardinal s.prepares >= 2 * t.f
  then begin
    s.commit_sent <- true;
    s.commits <- SSet.add t.name s.commits;
    (match s.block with
    | Some b ->
        send_all t
          (Msg.Bft (Msg.Commit_vote { view = s.vview; seq; digest = b.Block.hash }))
    | None -> ());
    deliver_ready t
  end

and deliver_ready t =
  let rec loop () =
    match Hashtbl.find_opt t.states t.next_deliver with
    | Some ({ block = Some b; delivered = false; _ } as s)
      when SSet.cardinal s.commits >= 2 * t.f ->
        s.delivered <- true;
        t.activity <- t.activity + 1;
        ignore
          (Cutter.drop t.cutter
             ~ids:(List.map (fun (tx : Block.tx) -> tx.Block.tx_id) b.Block.txs));
        Assembler.deliver t.assembler (Block.sign b t.identity);
        t.next_deliver <- t.next_deliver + 1;
        loop ()
    | _ -> ()
  in
  loop ()

and propose_block t txs =
  Cpu.run t.cpu ~cost:block_cpu (fun () ->
      let b = Assembler.make t.assembler txs in
      let seq = b.Block.height in
      send_all t (Msg.Bft (Msg.Pre_prepare { view = t.view; seq; block = b }));
      on_block t ~view:t.view seq b)

and arm_timer t =
  let epoch = Cutter.epoch t.cutter in
  let view = t.view in
  Clock.schedule t.clock ~delay:t.block_timeout (fun () ->
      if
        (not t.crashed) && t.view = view && is_primary t
        && Cutter.epoch t.cutter = epoch
      then
        match Cutter.take_batch t.cutter with
        | Some txs -> propose_block t txs
        | None -> ())

(* Drain the backlog a new primary inherited across the view change:
   full blocks immediately, a partial batch on the cut timer. *)
and drain_backlog t =
  while is_primary t && Cutter.pending t.cutter >= Cutter.capacity t.cutter do
    match Cutter.take_batch t.cutter with
    | Some txs -> propose_block t txs
    | None -> ()
  done;
  if is_primary t && Cutter.pending t.cutter > 0 then arm_timer t

(* 2f+1 replicas voted this replica primary of [v]. Merge their
   certified blocks with ours (deterministically: voters in name order),
   re-anchor the assembler above the highest contiguous sequence number,
   broadcast NEW-VIEW, and re-run the three-phase protocol for every
   in-flight block so delivery resumes. *)
and become_primary t v votes =
  enter_view t v;
  let merged : (int, Block.t) Hashtbl.t = Hashtbl.create 32 in
  let add (seq, b) = if not (Hashtbl.mem merged seq) then Hashtbl.replace merged seq b in
  List.iter add (vc_entries t);
  let my_last = t.next_deliver - 1 in
  let min_last = ref my_last and max_last = ref my_last in
  Hashtbl.fold (fun sender vote acc -> (sender, vote) :: acc) votes []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (_, (last, entries)) ->
         if last < !min_last then min_last := last;
         if last > !max_last then max_last := last;
         List.iter add entries);
  (* Anything delivered anywhere is certified in [merged] (quorum
     intersection), so the run ending at the delivered frontier is
     contiguous; blocks beyond the first hole above it were never
     delivered and are abandoned (their txs are still pending). *)
  let top = ref !max_last in
  while Hashtbl.mem merged (!top + 1) do
    incr top
  done;
  (* If our own frontier sits below a hole we can never fill from here
     (delivered elsewhere, outside every tail window), skip it: our
     database peers recover the missing heights through §3.6 block fetch
     from other peers. *)
  if t.next_deliver <= !max_last && not (Hashtbl.mem merged t.next_deliver)
  then begin
    let low = ref !max_last in
    while Hashtbl.mem merged (!low - 1) do
      decr low
    done;
    if !low > t.next_deliver then t.next_deliver <- !low
  end;
  let anchor_hash =
    if !top < 1 then Block.genesis_hash
    else
      match Hashtbl.find_opt merged !top with
      | Some b -> b.Block.hash
      | None -> (
          match Hashtbl.find_opt t.states !top with
          | Some { block = Some b; _ } -> b.Block.hash
          | _ -> Block.genesis_hash)
  in
  Assembler.reset t.assembler ~next_height:(!top + 1) ~prev_hash:anchor_hash;
  (* every certified tx is accounted for; nothing pending may double-order *)
  Hashtbl.iter
    (fun _ (b : Block.t) ->
      ignore
        (Cutter.drop t.cutter
           ~ids:(List.map (fun (tx : Block.tx) -> tx.Block.tx_id) b.Block.txs)))
    merged;
  let entries =
    let rec collect seq acc =
      if seq <= !min_last then acc
      else
        match Hashtbl.find_opt merged seq with
        | Some b -> collect (seq - 1) ((seq, b) :: acc)
        | None -> collect (seq - 1) acc
    in
    collect !top []
  in
  let nv = Msg.Bft (Msg.New_view { view = v; entries }) in
  t.last_new_view <- Some nv;
  send_all t nv;
  adopt_entries t v entries;
  drain_backlog t

(* Process NEW-VIEW entries (also run locally by the new primary): each
   is an implicit PRE-PREPARE in the new view. *)
and adopt_entries t v entries =
  List.iter (fun (seq, b) -> on_block t ~view:v seq b) entries;
  (match List.rev entries with
  | (hi, _) :: _ ->
      (* same gap-skip as the primary: a straggler whose next needed
         sequence number predates every carried entry jumps to the start
         of the contiguous run (its peers fetch the skipped heights) *)
      let low = ref hi in
      while List.mem_assoc (!low - 1) entries do
        decr low
      done;
      if
        t.next_deliver < !low
        && (not (List.mem_assoc t.next_deliver entries))
        && not
             (match Hashtbl.find_opt t.states t.next_deliver with
             | Some { block = Some _; _ } -> true
             | _ -> false)
      then t.next_deliver <- !low
  | [] -> ());
  deliver_ready t

let handle t ~src msg =
  match msg with
  | Msg.Client_tx tx ->
      (* Client ingestion is cheap (batched); the protocol messages below
         carry the real per-orderer cost. *)
      Cpu.run t.cpu ~cost:tx_cpu (fun () ->
          if is_primary t then (
            match Cutter.add t.cutter tx with
            | Cutter.Cut txs -> propose_block t txs
            | Cutter.First -> arm_timer t
            | Cutter.Buffered | Cutter.Duplicate -> ())
          else begin
            (* Stash a copy (the view-change backlog, re-relayed to the
               next primary if this one dies with it) and relay to the
               primary — once: replica-to-replica relays are not
               re-forwarded, so a stale sender cannot start a loop. *)
            let relay =
              match Cutter.stash t.cutter tx with
              | `Stashed ->
                  ensure_vc_timer t;
                  true
              | `Duplicate -> true
              | `Rejected -> false
            in
            if relay && not (List.mem src t.names) then
              send_to t (primary_of t t.view) msg
          end)
  | Msg.Bft (Msg.Pre_prepare { view; seq; block }) ->
      Cpu.run t.cpu ~cost:(recv_cpu +. (block_cpu /. 4.)) (fun () ->
          (* A proposal from the legitimate primary of a later view is
             proof the cluster moved on while we were down: adopt it. *)
          if
            view > t.view
            && view >= t.pending_view
            && String.equal src (primary_of t view)
          then enter_view t view;
          if view = t.view && String.equal src (primary_of t view) then begin
            t.activity <- t.activity + 1;
            on_block t ~view seq block
          end)
  | Msg.Bft (Msg.Prepare { view; seq; digest }) ->
      Cpu.run t.cpu ~cost:recv_cpu (fun () ->
          if view = t.view && not (in_view_change t) then begin
            let s = state t seq in
            if s.delivered then (
              (* echo our commit so a replica re-running the protocol for
                 an already-final slot can reach its quorum *)
              match s.block with
              | Some b when String.equal b.Block.hash digest ->
                  send_all t (Msg.Bft (Msg.Commit_vote { view; seq; digest }))
              | _ -> ())
            else if s.vview = view then begin
              let digest_ok =
                match s.block with
                | Some b -> String.equal b.Block.hash digest
                | None -> true
              in
              if digest_ok then begin
                s.prepares <- SSet.add src s.prepares;
                maybe_commit t seq
              end
            end
          end)
  | Msg.Bft (Msg.Commit_vote { view; seq; digest }) ->
      Cpu.run t.cpu ~cost:recv_cpu (fun () ->
          if view = t.view && not (in_view_change t) then begin
            let s = state t seq in
            if (not s.delivered) && s.vview = view then begin
              let digest_ok =
                match s.block with
                | Some b -> String.equal b.Block.hash digest
                | None -> true
              in
              if digest_ok then begin
                s.commits <- SSet.add src s.commits;
                deliver_ready t
              end
            end
          end)
  | Msg.Bft (Msg.View_change { view = v; last_delivered; entries }) ->
      Cpu.run t.cpu ~cost:recv_cpu (fun () ->
          if v <= t.view then (
            (* straggler that missed the change we already completed *)
            match t.last_new_view with
            | Some nv -> send_to t src nv
            | None -> ())
          else begin
            let tbl = vc_table t v in
            if not (Hashtbl.mem tbl src) then begin
              Hashtbl.replace tbl src (last_delivered, entries);
              (* join once f+1 distinct replicas want out of this view —
                 at least one of them is honest *)
              if v > t.pending_view && Hashtbl.length tbl >= t.f + 1 then
                send_view_change t v
              else maybe_become_primary t v
            end
          end)
  | Msg.Bft (Msg.New_view { view = v; entries }) ->
      Cpu.run t.cpu ~cost:(recv_cpu +. (block_cpu /. 4.)) (fun () ->
          if String.equal src (primary_of t v) && v >= t.view then begin
            if v > t.view then enter_view t v;
            if v = t.view then begin
              t.last_new_view <- Some msg;
              adopt_entries t v entries
            end
          end)
  | _ -> ()

let create ~net ~name ~names ~identity ~auth ~block_size ~block_timeout
    ~peers () =
  if names = [] then invalid_arg "Bft.create: no names";
  let n = List.length names in
  let assembler =
    Assembler.create ~net ~name ~identity ~metadata:"bft" ~auth ~block_size
      ~block_timeout ~peers
  in
  let t =
    {
      net;
      name;
      names;
      others = List.filter (fun x -> not (String.equal x name)) names;
      identity;
      clock = Msg.Net.clock net;
      cpu = Cpu.create (Msg.Net.clock net);
      assembler;
      cutter = Assembler.cutter assembler;
      block_timeout;
      f = (n - 1) / 3;
      states = Hashtbl.create 64;
      next_deliver = 1;
      activity = 0;
      top_seq = 0;
      view = 0;
      pending_view = 0;
      view_changes = 0;
      crashed = false;
      vc_votes = Hashtbl.create 4;
      last_new_view = None;
      vc_armed = false;
      vc_epoch = 0;
    }
  in
  Msg.Net.register net ~name (fun ~src msg -> handle t ~src msg);
  t

let assembler t = t.assembler

let is_crashed t = t.crashed

let view t = t.view

let view_changes t = t.view_changes

let primary t = primary_of t t.view

let crash t =
  t.crashed <- true;
  t.vc_epoch <- t.vc_epoch + 1;
  t.vc_armed <- false;
  Msg.Net.unregister t.net ~name:t.name

let restart t =
  t.crashed <- false;
  Msg.Net.register t.net ~name:t.name (fun ~src msg -> handle t ~src msg);
  (* Keep in-memory protocol state (mirrors {!Raft.restart}). If a view
     change displaced us while down, our stale proposals are ignored by
     replicas in the higher view and we adopt it from the legitimate
     primary's next PRE-PREPARE or a re-sent NEW-VIEW; meanwhile the
     watchdog keeps liveness for the work we still hold. *)
  if work_outstanding t then begin
    ensure_vc_timer t;
    if is_primary t then drain_backlog t else relay_backlog t
  end
