(** Raft robustness: quorum loss, minority partitions, log convergence
    under crash schedules, and election-safety invariants. *)

open Brdb_consensus
module Block = Brdb_ledger.Block
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng
module Identity = Brdb_crypto.Identity

type fx = {
  clock : Clock.t;
  net : Msg.Net.net;
  names : string list;
  mutable nodes : Raft.t list;
  mutable blocks : Block.t list;  (** delivered to the sink, newest first *)
}

let client = Identity.create "org1/raft-client"

let make_fx ?(n = 5) ?(seed = 21) () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed in
  let net = Msg.Net.create ~clock ~rng:(Rng.split rng) ~default_link:Brdb_sim.Network.lan_link in
  let names = List.init n (fun i -> Printf.sprintf "raft-%d" (i + 1)) in
  let fx = { clock; net; names; nodes = []; blocks = [] } in
  Msg.Net.register net ~name:"sink" (fun ~src:_ msg ->
      match msg with
      | Msg.Block_deliver b -> fx.blocks <- b :: fx.blocks
      | _ -> ());
  let nodes =
    List.map
      (fun name ->
        Raft.create ~net ~name ~names ~identity:(Identity.create ("ord/" ^ name))
          ~rng:(Rng.split rng) ~auth:(fun _ -> true) ~block_size:4 ~block_timeout:0.3
          ~peers:[ "sink" ] ())
      names
  in
  fx.nodes <- nodes;
  fx

let run fx ~until = ignore (Clock.run ~until:(Clock.now fx.clock +. until) fx.clock)

let leaders fx =
  List.filter (fun n -> (not (Raft.is_crashed n)) && Raft.role n = Raft.Leader) fx.nodes

let submit fx i =
  let tx =
    Block.make_tx ~id:(Printf.sprintf "r-%d" i) ~identity:client ~contract:"noop"
      ~args:[ Brdb_storage.Value.Int i ]
  in
  (* submit round-robin over the alive nodes *)
  let alive_names =
    List.filteri (fun i _ -> not (Raft.is_crashed (List.nth fx.nodes i))) fx.names
  in
  let dst = List.nth alive_names (i mod List.length alive_names) in
  ignore
    (Msg.Net.send fx.net ~src:"client" ~dst ~size_bytes:(Msg.size (Msg.Client_tx tx))
       (Msg.Client_tx tx))

(* every alive node delivers to the sink; count unique ordered txs *)
let ordered_ids fx =
  List.concat_map (fun b -> List.map (fun t -> t.Block.tx_id) b.Block.txs) fx.blocks
  |> List.sort_uniq compare

let ordered_count fx = List.length (ordered_ids fx)

let test_no_quorum_no_progress () =
  let fx = make_fx ~n:5 () in
  run fx ~until:2.0;
  Alcotest.(check int) "one leader" 1 (List.length (leaders fx));
  (* crash 3 of 5 including the leader: quorum lost *)
  let leader = List.hd (leaders fx) in
  Raft.crash leader;
  let crashed = ref 1 in
  List.iter
    (fun n -> if !crashed < 3 && (not (Raft.is_crashed n)) && n != leader then begin
         Raft.crash n;
         incr crashed
       end)
    fx.nodes;
  run fx ~until:3.0;
  Alcotest.(check int) "no leader without quorum" 0 (List.length (leaders fx));
  let before = ordered_count fx in
  for i = 0 to 5 do
    submit fx i
  done;
  run fx ~until:3.0;
  Alcotest.(check int) "no commits without quorum" before (ordered_count fx);
  (* restore one node: quorum of 3 -> progress resumes *)
  (match List.find_opt Raft.is_crashed fx.nodes with
  | Some n -> Raft.restart n
  | None -> Alcotest.fail "nothing to restart");
  run fx ~until:5.0;
  Alcotest.(check int) "leader after quorum restored" 1 (List.length (leaders fx));
  for i = 10 to 15 do
    submit fx i
  done;
  run fx ~until:5.0;
  Alcotest.(check bool) "commits resume" true (ordered_count fx > before)

let test_logs_converge_after_crashes () =
  let fx = make_fx ~n:3 ~seed:5 () in
  run fx ~until:2.0;
  for i = 0 to 7 do
    submit fx i
  done;
  run fx ~until:2.0;
  (* crash a follower, keep the cluster going, then restart it *)
  let follower =
    match List.find_opt (fun n -> Raft.role n <> Raft.Leader) fx.nodes with
    | Some n -> n
    | None -> Alcotest.fail "no follower"
  in
  Raft.crash follower;
  for i = 10 to 17 do
    submit fx i
  done;
  run fx ~until:2.0;
  Raft.restart follower;
  run fx ~until:5.0;
  (* all alive logs converge to the same committed length *)
  let lengths = List.map Raft.Testing.log_length fx.nodes in
  (match lengths with
  | l :: rest -> List.iter (fun l' -> Alcotest.(check int) "log lengths equal" l l') rest
  | [] -> ());
  let commits = List.map Raft.Testing.commit_index fx.nodes in
  (match commits with
  | c :: rest ->
      List.iter
        (fun c' -> Alcotest.(check bool) "commit within 1 heartbeat" true (abs (c - c') <= 1))
        rest
  | [] -> ());
  (* all copies of a block height are identical across nodes *)
  let by_height = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let cur = try Hashtbl.find by_height b.Block.height with Not_found -> [] in
      Hashtbl.replace by_height b.Block.height (b.Block.hash :: cur))
    fx.blocks;
  Hashtbl.iter
    (fun h hashes ->
      Alcotest.(check int)
        (Printf.sprintf "height %d consistent" h)
        1
        (List.length (List.sort_uniq compare hashes)))
    by_height

let test_at_most_one_leader_per_term () =
  (* run several seeds; at every observation point, leaders of the same
     term must be unique *)
  List.iter
    (fun seed ->
      let fx = make_fx ~n:5 ~seed () in
      for _ = 1 to 10 do
        run fx ~until:0.5;
        let by_term = Hashtbl.create 4 in
        List.iter
          (fun n ->
            if (not (Raft.is_crashed n)) && Raft.role n = Raft.Leader then begin
              let term = Raft.term n in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: single leader for term %d" seed term)
                false (Hashtbl.mem by_term term);
              Hashtbl.replace by_term term ()
            end)
          fx.nodes
      done)
    [ 1; 2; 3; 4 ]

let test_term_monotonic () =
  let fx = make_fx ~n:3 ~seed:9 () in
  let observed = Hashtbl.create 8 in
  for step = 1 to 8 do
    run fx ~until:0.5;
    List.iteri
      (fun i n ->
        let prev = Option.value (Hashtbl.find_opt observed i) ~default:0 in
        let cur = Raft.term n in
        Alcotest.(check bool) (Printf.sprintf "step %d node %d monotone" step i) true
          (cur >= prev);
        Hashtbl.replace observed i cur)
      fx.nodes
  done

let suites =
  [
    ( "raft.robustness",
      [
        Alcotest.test_case "quorum loss stops progress" `Quick test_no_quorum_no_progress;
        Alcotest.test_case "logs converge after crash" `Quick test_logs_converge_after_crashes;
        Alcotest.test_case "one leader per term" `Quick test_at_most_one_leader_per_term;
        Alcotest.test_case "terms monotonic" `Quick test_term_monotonic;
      ] );
  ]
