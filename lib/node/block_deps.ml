type tx = {
  rw_out : int list;
  claims : (string * int) list;
  unique_keys : (string * int * string) list;
  barrier : bool;
}

type t = { edges : (int * int) list; sched_edges : (int * int) list; waves : int array }

let ordered a b = (min a b, max a b)

(* Chain consecutive positions of each group: commit order resolves each
   conflict, so only adjacent pairs need edges — O(total keys), not
   O(n^2). *)
let chains groups =
  let rec link acc = function
    | a :: (b :: _ as tl) -> link ((a, b) :: acc) tl
    | _ -> acc
  in
  Hashtbl.fold (fun _ ps acc -> link acc (List.sort_uniq compare ps)) groups []

(* Neighbours of a common rw neighbour: far --rw--> near --rw--> me. *)
let closure rw =
  let nbrs = Hashtbl.create 16 in
  let add a b =
    Hashtbl.replace nbrs a (b :: Option.value (Hashtbl.find_opt nbrs a) ~default:[])
  in
  List.iter
    (fun (a, b) ->
      add a b;
      add b a)
    rw;
  let rec pairs acc = function
    | a :: tl -> pairs (List.fold_left (fun acc b -> (a, b) :: acc) acc tl) tl
    | [] -> acc
  in
  Hashtbl.fold (fun _mid ns acc -> pairs acc (List.sort_uniq compare ns)) nbrs []

(* One pass over the positions, so each input record dies young. *)
let build txs =
  let rw = ref [] and accepted = ref [] and barriers = ref [] in
  let claims = Hashtbl.create 32 and uniques = Hashtbl.create 32 in
  let group groups pos k =
    Hashtbl.replace groups k (pos :: Option.value (Hashtbl.find_opt groups k) ~default:[])
  in
  List.iteri
    (fun pos -> function
      | None -> ()
      | Some tx ->
          accepted := pos :: !accepted;
          if tx.barrier then barriers := pos :: !barriers;
          List.iter (fun w -> if w <> pos then rw := ordered pos w :: !rw) tx.rw_out;
          List.iter (group claims pos) tx.claims;
          List.iter (group uniques pos) tx.unique_keys)
    txs;
  let barrier_edges =
    List.concat_map
      (fun b ->
        List.filter_map (fun pos -> if pos = b then None else Some (ordered b pos)) !accepted)
      !barriers
  in
  let rw = !rw in
  let edges =
    List.sort_uniq compare (rw @ chains claims @ chains uniques @ barrier_edges)
  in
  let sched_edges = List.sort_uniq compare (closure rw @ edges) in
  let n = List.length txs in
  let waves = Brdb_obs.Critical_path.schedule ~n ~edges:sched_edges in
  { edges; sched_edges; waves }
