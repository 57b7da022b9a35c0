open Brdb_util

(* Each block is stored with the Merkle root of its payloads, computed
   (or handed in) when it was appended, so readers never rehash it. *)
type entry = { block : Block.t; tx_root : string }

type t = { blocks : entry Vec.t }

type error = [ `Out_of_sequence | `Broken_chain | `Bad_block ]

let create () = { blocks = Vec.create () }

let height t = Vec.length t.blocks

let last t = Option.map (fun e -> e.block) (Vec.last t.blocks)

let append ?tx_root t (b : Block.t) =
  if b.Block.height <> height t + 1 then Error `Out_of_sequence
  else if not (Block.chains_from b ~prev:(last t)) then Error `Broken_chain
  else
    let tx_root =
      match tx_root with Some r -> r | None -> Block.merkle_tx_root b.Block.txs
    in
    if not (Block.hash_matches ~tx_root b) then Error `Bad_block
    else begin
      ignore (Vec.push t.blocks { block = b; tx_root });
      Ok ()
    end

let find t h =
  if h >= 1 && h <= Vec.length t.blocks then Some (Vec.get t.blocks (h - 1)) else None

let get t h = Option.map (fun e -> e.block) (find t h)

let tx_root t h = Option.map (fun e -> e.tx_root) (find t h)

let iter t f = Vec.iter (fun e -> f e.block) t.blocks

let audit t registry =
  let bad = ref None in
  let prev = ref None in
  iter t
    (fun b ->
      if !bad = None then begin
        if not (Block.chains_from b ~prev:!prev && Block.verify registry b) then
          bad := Some b.Block.height;
        prev := Some b
      end);
  match !bad with None -> Ok () | Some h -> Error h

let restore t blocks =
  let scratch = create () in
  let rec load = function
    | [] -> Ok ()
    | b :: rest -> (
        match append scratch b with
        | Ok () -> load rest
        | Error _ ->
            Error (Printf.sprintf "block %d does not chain" b.Block.height))
  in
  match load blocks with
  | Error _ as e -> e
  | Ok () ->
      Vec.clear t.blocks;
      Vec.iter (fun e -> ignore (Vec.push t.blocks e)) scratch.blocks;
      Ok ()

let tamper_for_test t h b =
  if h >= 1 && h <= Vec.length t.blocks then
    Vec.set t.blocks (h - 1) { block = b; tx_root = Block.merkle_tx_root b.Block.txs }
