type status = Committed | Aborted of Brdb_txn.Txn.abort_reason

type t = {
  by_txid : (int, int * status) Hashtbl.t; (* txid -> height, status *)
  (* Snapshot-install guard (DESIGN.md §11): set before the install's
     first state mutation, cleared after its last. A crash in between
     leaves the marker, telling recovery the state is half-swapped. *)
  mutable installing : int option;
}

let create () = { by_txid = Hashtbl.create 256; installing = None }

let append t ~txid ~height status = Hashtbl.replace t.by_txid txid (height, status)

let find t ~txid = Option.map snd (Hashtbl.find_opt t.by_txid txid)

let erase_block t ~height =
  let doomed =
    Hashtbl.fold (fun txid (h, _) acc -> if h = height then txid :: acc else acc) t.by_txid []
  in
  List.iter (Hashtbl.remove t.by_txid) doomed

(* --- snapshot support (DESIGN.md §11) ------------------------------------- *)

let begin_install t ~height = t.installing <- Some height

let complete_install t = t.installing <- None

let installing t = t.installing

let export t ~above =
  Hashtbl.fold
    (fun txid (h, s) acc -> if h > above then (txid, h, s) :: acc else acc)
    t.by_txid []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let restore t entries =
  Hashtbl.reset t.by_txid;
  t.installing <- None;
  List.iter (fun (txid, height, status) -> append t ~txid ~height status) entries
