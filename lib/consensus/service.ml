type kind = Solo | Kafka | Raft | Bft

type handle =
  | H_solo of Solo.t
  | H_kafka of Kafka.cluster * Kafka.t list
  | H_raft of Raft.t list
  | H_bft of Bft.t list

type t = { kind : kind; names : string list; handle : handle }

let create ~net ~kind ~orderer_names ~identity_of ~rng ~authenticator ~block_size
    ~block_timeout ~peers_of () =
  if orderer_names = [] then invalid_arg "Service.create: need at least one orderer";
  let handle =
    match kind with
    | Solo ->
        let name = List.hd orderer_names in
        H_solo
          (Solo.create ~net ~name ~identity:(identity_of name) ~auth:authenticator
             ~block_size ~block_timeout ~peers:(peers_of name) ())
    | Kafka ->
        let cluster_name = "kafka-cluster" in
        let cluster =
          Kafka.create_cluster ~net ~name:cluster_name ~orderers:orderer_names ()
        in
        let orderers =
          List.map
            (fun name ->
              Kafka.create_orderer ~net ~name ~identity:(identity_of name)
                ~cluster:cluster_name ~auth:authenticator ~block_size
                ~block_timeout ~peers:(peers_of name) ())
            orderer_names
        in
        H_kafka (cluster, orderers)
    | Raft ->
        H_raft
          (List.map
             (fun name ->
               Raft.create ~net ~name ~names:orderer_names
                 ~identity:(identity_of name) ~rng:(Brdb_sim.Rng.split rng)
                 ~auth:authenticator ~block_size ~block_timeout
                 ~peers:(peers_of name) ())
             orderer_names)
    | Bft ->
        H_bft
          (List.map
             (fun name ->
               Bft.create ~net ~name ~names:orderer_names
                 ~identity:(identity_of name) ~auth:authenticator ~block_size
                 ~block_timeout ~peers:(peers_of name) ())
             orderer_names)
  in
  { kind; names = orderer_names; handle }

let orderer_names t = t.names

let submit_target t i =
  match t.handle with
  | H_solo _ -> List.hd t.names
  | _ -> List.nth t.names (i mod List.length t.names)

(* Fold [f] over each node's application layer. *)
let fold t f init =
  let over node l = List.fold_left (fun acc x -> f acc (node x)) init l in
  match t.handle with
  | H_solo s -> f init (Solo.assembler s)
  | H_kafka (_, os) -> over Kafka.assembler os
  | H_raft rs -> over Raft.assembler rs
  | H_bft bs -> over Bft.assembler bs

let blocks_cut t =
  let named node l =
    List.map2 (fun name x -> (name, Assembler.blocks_cut (node x))) t.names l
  in
  match t.handle with
  | H_solo s -> [ (List.hd t.names, Assembler.blocks_cut (Solo.assembler s)) ]
  | H_kafka (_, os) -> named Kafka.assembler os
  | H_raft rs -> named Raft.assembler rs
  | H_bft bs -> named Bft.assembler bs

let cut_total t = fold t (fun acc a -> acc + Assembler.blocks_cut a) 0

let queued t =
  let held a = Cutter.pending (Assembler.cutter a) in
  let maxl f l = List.fold_left (fun acc x -> max acc (f x)) 0 l in
  match t.handle with
  | H_solo _ | H_kafka _ -> fold t (fun acc a -> max acc (held a)) 0
  | H_raft rs ->
      maxl
        (fun r ->
          if Raft.is_crashed r then 0 else held (Raft.assembler r) + Raft.unforwarded r)
        rs
  | H_bft bs -> maxl (fun b -> if Bft.is_crashed b then 0 else held (Bft.assembler b)) bs

(* Service-level auth counters: Kafka orderers each consume the full
   cluster stream, and every Raft node applies the full committed log, so
   all of them cut identical blocks and their per-cutter counters are
   copies — take the max, not the sum. Only the BFT primary cuts and the
   primary moves with view changes, so counts accumulate across whichever
   node was cutting — sum them. *)
let auth_stat t count =
  let combine = match t.kind with Bft -> ( + ) | Solo | Kafka | Raft -> max in
  fold t (fun acc a -> combine acc (count (Assembler.cutter a))) 0

let auth_verified t = auth_stat t Cutter.auth_verified

let auth_rejected t = auth_stat t Cutter.auth_rejected

let auth_replayed t = auth_stat t Cutter.replays

let raft_nodes t = match t.handle with H_raft rs -> rs | _ -> []

let bft_nodes t = match t.handle with H_bft bs -> bs | _ -> []

let node_of t name =
  let idx =
    let rec find i = function
      | [] -> None
      | n :: _ when String.equal n name -> Some i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 t.names
  in
  match idx with
  | None -> None
  | Some i -> (
      match t.handle with
      | H_raft rs -> Some (`Raft (List.nth rs i))
      | H_bft bs -> Some (`Bft (List.nth bs i))
      | H_solo _ | H_kafka _ -> None)

let crash_orderer t name =
  match node_of t name with
  | Some (`Raft r) -> Raft.crash r; true
  | Some (`Bft b) -> Bft.crash b; true
  | None -> false

let restart_orderer t name =
  match node_of t name with
  | Some (`Raft r) -> Raft.restart r; true
  | Some (`Bft b) -> Bft.restart b; true
  | None -> false

let leader t =
  match t.handle with
  | H_solo _ -> Some (List.hd t.names)
  | H_kafka _ -> None
  | H_raft rs -> (
      (* prefer an actual live leader; fall back to the freshest hint *)
      match List.find_opt (fun r -> Raft.role r = Raft.Leader && not (Raft.is_crashed r)) rs with
      | Some r ->
          List.find_opt (fun n -> match node_of t n with Some (`Raft r') -> r' == r | _ -> false) t.names
      | None -> None)
  | H_bft bs -> (
      match bs with
      | [] -> None
      | b :: rest ->
          (* the primary of the highest view any live replica is in *)
          let best =
            List.fold_left
              (fun acc b' -> if Bft.view b' > Bft.view acc then b' else acc)
              b rest
          in
          Some (Bft.primary best))

let elections t =
  List.fold_left (fun acc r -> acc + Raft.elections r) 0 (raft_nodes t)

let view_changes t =
  List.fold_left (fun acc b -> max acc (Bft.view_changes b)) 0 (bft_nodes t)

let term t =
  List.fold_left (fun acc r -> max acc (Raft.term r)) 0 (raft_nodes t)

let view t =
  List.fold_left (fun acc b -> max acc (Bft.view b)) 0 (bft_nodes t)
