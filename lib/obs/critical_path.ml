type input = {
  n : int;
  weights : float array;
  edges : (int * int) list;
}

type result = {
  serial_s : float;
  critical_s : float;
  headroom : float;
  waves : int;
  path : int list;
}

(* Validate the edges, then levelize: the incoming adjacency and each
   position's wave. Positions are a topological order (edges point
   low -> high, commit order within the block), so one forward pass
   does it: a position's wave is 1 + the max wave over ALL its in-block
   predecessors (not just the latest-finishing one: wave membership
   follows edges, not finish times), 0 with none. *)
let levelize ~n ~edges =
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n || a >= b then
        invalid_arg "Critical_path: edge not (low, high) in range")
    edges;
  let inc = Array.make (max n 1) [] in
  List.iter (fun (a, b) -> inc.(b) <- a :: inc.(b)) edges;
  let wave = Array.make (max n 0) 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun a -> if wave.(a) + 1 > wave.(i) then wave.(i) <- wave.(a) + 1)
      inc.(i)
  done;
  (inc, wave)

let schedule ~n ~edges = snd (levelize ~n ~edges)

let analyze { n; weights; edges } =
  if Array.length weights <> n then
    invalid_arg "Critical_path.analyze: weights length <> n";
  let inc, wave = levelize ~n ~edges in
  let serial_s = Array.fold_left ( +. ) 0. weights in
  let finish = Array.make (max n 1) 0. in
  let pred = Array.make (max n 1) (-1) in
  for i = 0 to n - 1 do
    let best, best_pred =
      List.fold_left
        (fun (best, bp) a -> if finish.(a) > best then (finish.(a), a) else (best, bp))
        (0., -1) inc.(i)
    in
    finish.(i) <- weights.(i) +. best;
    pred.(i) <- best_pred
  done;
  let critical_s = Array.fold_left Float.max 0. (Array.sub finish 0 (max n 0)) in
  let last = ref (-1) in
  for i = 0 to n - 1 do
    if !last < 0 || finish.(i) > finish.(!last) then last := i
  done;
  let path =
    let rec walk acc i = if i < 0 then acc else walk (i :: acc) pred.(i) in
    if n = 0 then [] else walk [] !last
  in
  (* depth = wave + 1 *)
  let waves = if n = 0 then 0 else 1 + Array.fold_left Stdlib.max 0 wave in
  let headroom = if critical_s <= 0. then 1. else serial_s /. critical_s in
  { serial_s; critical_s; headroom; waves; path }
