module VMap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

module ISet = Set.Make (Int)

type bound = Unbounded | Incl of Value.t | Excl of Value.t

type t = { col : int; mutable map : ISet.t VMap.t }

let create ~column = { col = column; map = VMap.empty }

let column t = t.col

let add t key vid =
  t.map <-
    VMap.update key
      (function None -> Some (ISet.singleton vid) | Some s -> Some (ISet.add vid s))
      t.map

let remove t key vid =
  t.map <-
    VMap.update key
      (function
        | None -> None
        | Some s ->
            let s = ISet.remove vid s in
            if ISet.is_empty s then None else Some s)
      t.map

let in_lo lo key =
  match lo with
  | Unbounded -> true
  | Incl v -> Value.compare_total key v >= 0
  | Excl v -> Value.compare_total key v > 0

let in_hi hi key =
  match hi with
  | Unbounded -> true
  | Incl v -> Value.compare_total key v <= 0
  | Excl v -> Value.compare_total key v < 0

let iter_range t ~lo ~hi f =
  (* Seek to the lower bound, then walk keys in order until past [hi]. *)
  let seq =
    match lo with
    | Unbounded -> VMap.to_seq t.map
    | Incl v | Excl v -> VMap.to_seq_from v t.map
  in
  let rec walk seq =
    match seq () with
    | Seq.Nil -> ()
    | Seq.Cons ((key, vids), rest) ->
        if not (in_hi hi key) then ()
        else begin
          if in_lo lo key then ISet.iter f vids;
          walk rest
        end
  in
  walk seq
