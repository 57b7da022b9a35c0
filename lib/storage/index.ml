module VMap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

module ISet = Set.Make (Int)

type bound = Unbounded | Incl of Value.t | Excl of Value.t

(* A key's retired vids, newest deleter block first (ties: higher vid
   first), so a reader at a recent height stops at the first block at or
   below it. *)
type retired = Nil | Ret of { block : int; vid : int; next : retired }

(* A key's versions, updated in place. The live vids are [first], the
   lowest (or [none]), plus [others]: a key with one live version and no
   history needs no set. *)
type entry = { mutable first : int; mutable others : ISet.t; mutable retired : retired }

let none = -1

type t = { col : int; mutable map : entry VMap.t }

let create ~column = { col = column; map = VMap.empty }

let column t = t.col

let add_live e vid =
  if e.first = none then e.first <- vid
  else if vid < e.first then begin
    e.others <- ISet.add e.first e.others;
    e.first <- vid
  end
  else e.others <- ISet.add vid e.others

(* [false] when [vid] is not live here. *)
let remove_live e vid =
  if e.first = vid then begin
    if ISet.is_empty e.others then e.first <- none
    else begin
      let next = ISet.min_elt e.others in
      e.first <- next;
      e.others <- ISet.remove next e.others
    end;
    true
  end
  else
    let others = ISet.remove vid e.others in
    others != e.others
    && begin
         e.others <- others;
         true
       end

let rec insert_retired ~block vid = function
  | Ret r when r.block > block || (r.block = block && r.vid > vid) ->
      Ret { block = r.block; vid = r.vid; next = insert_retired ~block vid r.next }
  | rest -> Ret { block; vid; next = rest }

let rec drop_retired vid = function
  | Nil -> Nil
  | Ret r when r.vid = vid -> r.next
  | Ret r as l ->
      let next = drop_retired vid r.next in
      if next == r.next then l else Ret { block = r.block; vid = r.vid; next }

let add t key vid =
  t.map <-
    VMap.update key
      (function
        | None -> Some { first = vid; others = ISet.empty; retired = Nil }
        | Some e as found ->
            add_live e vid;
            found)
      t.map

let retire t key vid ~block =
  match VMap.find key t.map with
  | exception Not_found -> ()
  | e ->
      if not (remove_live e vid) then e.retired <- drop_retired vid e.retired;
      e.retired <- insert_retired ~block vid e.retired

let unretire t key vid =
  match VMap.find key t.map with
  | exception Not_found -> ()
  | e ->
      let retired = drop_retired vid e.retired in
      if retired != e.retired then begin
        e.retired <- retired;
        add_live e vid
      end

let remove t key vid =
  match VMap.find key t.map with
  | exception Not_found -> ()
  | e -> (
      if not (remove_live e vid) then e.retired <- drop_retired vid e.retired;
      match e.retired with
      | Nil when e.first = none -> t.map <- VMap.remove key t.map
      | _ -> ())

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

let rec ascending = function a :: (b :: _ as tl) -> a < b && ascending tl | _ -> true

(* The retired vids deleted above [height], oldest block first. *)
let rec recent height acc = function
  | Ret r when r.block > height -> recent height (r.vid :: acc) r.next
  | _ -> acc

(* Yield a key's vids in ascending order: the live ones plus the retired
   ones whose deleter block is above [height]. The fields are read once,
   so a lifecycle call made by [f] does not disturb this key's walk. *)
let iter_entry height f { first; others; retired } =
  match recent height [] retired with
  | [] ->
      if first <> none then begin
        f first;
        ISet.iter f others
      end
  | extra ->
      let rest = ref (if ascending extra then extra else List.sort Int.compare extra) in
      let emit vid =
        while match !rest with x :: _ -> x < vid | [] -> false do
          f (List.hd !rest);
          rest := List.tl !rest
        done;
        f vid
      in
      if first <> none then begin
        emit first;
        ISet.iter emit others
      end;
      List.iter f !rest

(* Seek to the lower bound, then walk keys in order until past [hi]. *)
let walk_range height t ~lo ~hi f =
  let seq =
    match lo with
    | Unbounded -> VMap.to_seq t.map
    | Incl v | Excl v -> VMap.to_seq_from v t.map
  in
  let rec walk seq =
    match seq () with
    | Seq.Nil -> ()
    | Seq.Cons ((key, entry), rest) ->
        if not (in_hi hi key) then ()
        else begin
          if in_lo lo key then iter_entry height f entry;
          walk rest
        end
  in
  walk seq

(* [compare_total] is a total order, so at most one key of the map equals
   [key]: a point range (every equality probe and unique check) is one
   lookup, no enumeration. *)
let iter_key ~height t key f =
  match VMap.find key t.map with
  | exception Not_found -> ()
  | entry -> iter_entry height f entry

let iter_range ?(height = min_int) t ~lo ~hi f =
  match (lo, hi) with
  | Incl a, Incl b when Value.compare_total a b = 0 -> iter_key ~height t a f
  | _ -> walk_range height t ~lo ~hi f

let entries t =
  let rec pairs = function Nil -> [] | Ret r -> (r.block, r.vid) :: pairs r.next in
  VMap.fold
    (fun key e acc ->
      let live = if e.first = none then [] else e.first :: ISet.elements e.others in
      (key, live, pairs e.retired)
      :: acc)
    t.map []
  |> List.rev

module Testing = struct
  let walk_range ?(height = min_int) t ~lo ~hi f = walk_range height t ~lo ~hi f
end
