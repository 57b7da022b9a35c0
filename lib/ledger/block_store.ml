open Brdb_util

(* Each block is stored with the Merkle root {!Block.check_hash} computed,
   so readers never rehash it. The payloads are not kept. *)
type entry = { block : Block.t; tx_root : string }

type t = { blocks : entry Vec.t }

type error = [ `Out_of_sequence | `Broken_chain ]

let create () = { blocks = Vec.create () }

let height t = Vec.length t.blocks

let last t = Option.map (fun e -> e.block) (Vec.last t.blocks)

let append t ({ Block.block = b; tx_root; _ } : Block.checked) =
  if b.Block.height <> height t + 1 then Error `Out_of_sequence
  else if not (Block.chains_from b ~prev:(last t)) then Error `Broken_chain
  else begin
    ignore (Vec.push t.blocks { block = b; tx_root });
    Ok ()
  end

let find t h =
  if h >= 1 && h <= Vec.length t.blocks then Some (Vec.get t.blocks (h - 1)) else None

let get t h = Option.map (fun e -> e.block) (find t h)

let tx_root t h = Option.map (fun e -> e.tx_root) (find t h)

let iter t f = Vec.iter (fun e -> f e.block) t.blocks

let restore t blocks =
  let scratch = create () in
  let rec load = function
    | [] -> Ok ()
    | (c : Block.checked) :: rest -> (
        match append scratch c with
        | Ok () -> load rest
        | Error _ ->
            Error (Printf.sprintf "block %d does not chain" c.Block.block.Block.height))
  in
  match load blocks with
  | Error _ as e -> e
  | Ok () ->
      Vec.clear t.blocks;
      Vec.iter (fun e -> ignore (Vec.push t.blocks e)) scratch.blocks;
      Ok ()

module Testing = struct
  let tamper t h b =
    if h >= 1 && h <= Vec.length t.blocks then
      Vec.set t.blocks (h - 1)
        { block = b; tx_root = Brdb_crypto.Merkle.root (List.map Block.tx_payload b.Block.txs) }
end
