module Block = Brdb_ledger.Block
module Clock = Brdb_sim.Clock
module Cpu = Brdb_sim.Cpu
module Rng = Brdb_sim.Rng
module Vec = Brdb_util.Vec
module SSet = Set.Make (String)

type role = Follower | Candidate | Leader

type t = {
  net : Msg.Net.net;
  name : string;
  names : string list;
  others : string list;
  clock : Clock.t;
  cpu : Cpu.t;
  rng : Rng.t;
  (* persistent state *)
  mutable term : int;
  mutable voted_for : string option;
  log : (int * Msg.kafka_entry) Vec.t;  (* (entry term, entry); index i = log index i+1 *)
  (* volatile *)
  mutable role : role;
  mutable commit_index : int;
  mutable last_applied : int;
  mutable leader_hint : string option;
  mutable votes : SSet.t;
  next_index : (string, int) Hashtbl.t;
  match_index : (string, int) Hashtbl.t;
  mutable timer_epoch : int;
  mutable crashed : bool;
  assembler : Assembler.t;  (* application layer: cut, assemble, deliver *)
  mutable pending_forward : Msg.kafka_entry list;  (* buffered while leaderless *)
  mutable elections : int;  (* times this node won an election *)
}

(* Election timeouts are drawn uniformly from [election_lo, election_hi)
   seconds; the leader heartbeats every [heartbeat] seconds and every
   handled message costs [msg_cpu] seconds of modelled CPU. *)
let election_lo = 0.15

let election_hi = 0.3

let heartbeat = 0.05

let msg_cpu = 0.00002

let last_log_index t = Vec.length t.log

let last_log_term t =
  match Vec.last t.log with Some (term, _) -> term | None -> 0

let entry_term t idx = if idx = 0 then 0 else fst (Vec.get t.log (idx - 1))

let send t dst msg =
  ignore (Msg.Net.send t.net ~src:t.name ~dst ~size_bytes:(Msg.size msg) msg)

let majority t = (List.length t.names / 2) + 1

(* --- application layer ---------------------------------------------------- *)

let propose t entry =
  (* Route an entry into the replicated log: append locally when leader,
     otherwise forward; buffer when no leader is known. *)
  if t.role = Leader then ignore (Vec.push t.log (t.term, entry))
  else
    match t.leader_hint with
    | Some leader -> send t leader (Msg.Kafka_publish entry)
    | None -> t.pending_forward <- entry :: t.pending_forward

(* Committed entries drive the shared application layer; a batch's
   time-to-cut is proposed into the log like any other entry. *)
let apply_committed t =
  let ttc entry = if not t.crashed then propose t entry in
  while t.last_applied < t.commit_index do
    t.last_applied <- t.last_applied + 1;
    Assembler.apply t.assembler ~cut:(fun f -> f ()) ~ttc
      (snd (Vec.get t.log (t.last_applied - 1)))
  done

(* --- raft core -------------------------------------------------------------- *)

let rec reset_election_timer t =
  t.timer_epoch <- t.timer_epoch + 1;
  let epoch = t.timer_epoch in
  let delay = Rng.uniform t.rng ~lo:election_lo ~hi:election_hi in
  Clock.schedule t.clock ~delay (fun () ->
      if (not t.crashed) && t.timer_epoch = epoch && t.role <> Leader then
        start_election t)

and start_election t =
  t.term <- t.term + 1;
  t.role <- Candidate;
  t.voted_for <- Some t.name;
  t.votes <- SSet.singleton t.name;
  t.leader_hint <- None;
  List.iter
    (fun dst ->
      send t dst
        (Msg.Raft
           (Msg.Request_vote
              {
                term = t.term;
                candidate = t.name;
                last_log_index = last_log_index t;
                last_log_term = last_log_term t;
              })))
    t.others;
  reset_election_timer t;
  if SSet.cardinal t.votes >= majority t then become_leader t

and become_leader t =
  t.role <- Leader;
  t.elections <- t.elections + 1;
  t.leader_hint <- Some t.name;
  List.iter
    (fun o ->
      Hashtbl.replace t.next_index o (last_log_index t + 1);
      Hashtbl.replace t.match_index o 0)
    t.others;
  (* Flush submissions buffered while leaderless. *)
  let buffered = List.rev t.pending_forward in
  t.pending_forward <- [];
  List.iter (fun e -> ignore (Vec.push t.log (t.term, e))) buffered;
  heartbeat_loop t

and heartbeat_loop t =
  if (not t.crashed) && t.role = Leader then begin
    replicate t;
    Clock.schedule t.clock ~delay:heartbeat (fun () -> heartbeat_loop t)
  end

and replicate t =
  List.iter
    (fun dst ->
      let ni = try Hashtbl.find t.next_index dst with Not_found -> 1 in
      let entries =
        let rec collect i acc =
          if i > last_log_index t || i - ni >= 256 then List.rev acc
          else collect (i + 1) (Vec.get t.log (i - 1) :: acc)
        in
        collect ni []
      in
      send t dst
        (Msg.Raft
           (Msg.Append_entries
              {
                term = t.term;
                leader = t.name;
                prev_index = ni - 1;
                prev_term = entry_term t (ni - 1);
                entries;
                leader_commit = t.commit_index;
              })))
    t.others

let become_follower t term =
  t.term <- term;
  t.role <- Follower;
  t.voted_for <- None;
  t.votes <- SSet.empty;
  reset_election_timer t

let advance_commit t =
  (* Leader: commit the highest index replicated on a majority with an
     entry from the current term. *)
  let n = last_log_index t in
  let rec try_idx idx =
    if idx <= t.commit_index then ()
    else if entry_term t idx <> t.term then try_idx (idx - 1)
    else
      let count =
        1
        + List.length
            (List.filter
               (fun o -> (try Hashtbl.find t.match_index o with Not_found -> 0) >= idx)
               t.others)
      in
      if count >= majority t then t.commit_index <- idx else try_idx (idx - 1)
  in
  try_idx n;
  apply_committed t

let handle_raft t ~src rmsg =
  match rmsg with
  | Msg.Request_vote { term; candidate; last_log_index = cli; last_log_term = clt } ->
      if term > t.term then become_follower t term;
      let up_to_date =
        clt > last_log_term t || (clt = last_log_term t && cli >= last_log_index t)
      in
      let granted =
        term = t.term
        && up_to_date
        && (t.voted_for = None || t.voted_for = Some candidate)
      in
      if granted then begin
        t.voted_for <- Some candidate;
        reset_election_timer t
      end;
      send t src (Msg.Raft (Msg.Vote { term = t.term; granted }))
  | Msg.Vote { term; granted } ->
      if term > t.term then become_follower t term
      else if t.role = Candidate && term = t.term && granted then begin
        t.votes <- SSet.add src t.votes;
        if SSet.cardinal t.votes >= majority t then become_leader t
      end
  | Msg.Append_entries { term; leader; prev_index; prev_term; entries; leader_commit }
    ->
      if term > t.term then become_follower t term;
      if term < t.term then
        send t src
          (Msg.Raft (Msg.Append_reply { term = t.term; success = false; match_index = 0 }))
      else begin
        (* Valid leader for this term. *)
        if t.role <> Follower then t.role <- Follower;
        t.leader_hint <- Some leader;
        reset_election_timer t;
        (* Flush any buffered submissions now that a leader is known. *)
        let buffered = List.rev t.pending_forward in
        t.pending_forward <- [];
        List.iter (fun e -> send t leader (Msg.Kafka_publish e)) buffered;
        if prev_index > last_log_index t || entry_term t prev_index <> prev_term then
          send t src
            (Msg.Raft
               (Msg.Append_reply { term = t.term; success = false; match_index = 0 }))
        else begin
          (* Truncate conflicts, append new entries. *)
          List.iteri
            (fun i entry ->
              let idx = prev_index + 1 + i in
              if idx <= last_log_index t then begin
                if fst (Vec.get t.log (idx - 1)) <> fst entry then begin
                  Vec.truncate t.log (idx - 1);
                  ignore (Vec.push t.log entry)
                end
              end
              else ignore (Vec.push t.log entry))
            entries;
          let mi = prev_index + List.length entries in
          if leader_commit > t.commit_index then
            t.commit_index <- min leader_commit (last_log_index t);
          apply_committed t;
          send t src
            (Msg.Raft (Msg.Append_reply { term = t.term; success = true; match_index = mi }))
        end
      end
  | Msg.Append_reply { term; success; match_index } ->
      if term > t.term then become_follower t term
      else if t.role = Leader && term = t.term then
        if success then begin
          let cur = try Hashtbl.find t.match_index src with Not_found -> 0 in
          if match_index > cur then begin
            Hashtbl.replace t.match_index src match_index;
            Hashtbl.replace t.next_index src (match_index + 1)
          end;
          advance_commit t
        end
        else begin
          let ni = try Hashtbl.find t.next_index src with Not_found -> 1 in
          Hashtbl.replace t.next_index src (max 1 (ni - 1))
        end

let handle t ~src msg =
  if not t.crashed then
    Cpu.run t.cpu ~cost:msg_cpu (fun () ->
        if not t.crashed then
          match msg with
          | Msg.Client_tx tx -> propose t (Msg.K_tx tx)
          | Msg.Kafka_publish entry ->
              (* Entry forwarded by a non-leader orderer. *)
              propose t entry
          | Msg.Raft rmsg -> handle_raft t ~src rmsg
          | _ -> ())

let create ~net ~name ~names ~identity ~rng ~auth ~block_size ~block_timeout
    ~peers () =
  let t =
    {
      net;
      name;
      names;
      others = List.filter (fun x -> not (String.equal x name)) names;
      clock = Msg.Net.clock net;
      cpu = Cpu.create (Msg.Net.clock net);
      rng;
      term = 0;
      voted_for = None;
      log = Vec.create ();
      role = Follower;
      commit_index = 0;
      last_applied = 0;
      leader_hint = None;
      votes = SSet.empty;
      next_index = Hashtbl.create 8;
      match_index = Hashtbl.create 8;
      timer_epoch = 0;
      crashed = false;
      assembler =
        Assembler.create ~net ~name ~identity ~metadata:"raft" ~auth ~block_size
          ~block_timeout ~peers;
      pending_forward = [];
      elections = 0;
    }
  in
  Msg.Net.register net ~name (fun ~src msg -> handle t ~src msg);
  reset_election_timer t;
  t

let role t = t.role

let term t = t.term

let assembler t = t.assembler

let unforwarded t = List.length t.pending_forward

let elections t = t.elections

let crash t =
  t.crashed <- true;
  t.role <- Follower;
  t.leader_hint <- None;
  Msg.Net.unregister t.net ~name:t.name

let restart t =
  t.crashed <- false;
  t.votes <- SSet.empty;
  Msg.Net.register t.net ~name:t.name (fun ~src msg -> handle t ~src msg);
  reset_election_timer t

let is_crashed t = t.crashed

module Testing = struct
  let leader_hint t = t.leader_hint

  let commit_index t = t.commit_index

  let log_length t = Vec.length t.log
end
