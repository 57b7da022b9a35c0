type body = Native of (Api.t -> unit) | Procedural of Procedural.t

type contract = { name : string; version : int; body : body }

type t = {
  contracts : (string, contract) Hashtbl.t;
  mutable next_version : int;
}

let create () = { contracts = Hashtbl.create 16; next_version = 1 }

let deploy t ~name body =
  let version = t.next_version in
  t.next_version <- version + 1;
  Hashtbl.replace t.contracts name { name; version; body };
  version

let drop t ~name =
  if Hashtbl.mem t.contracts name then begin
    Hashtbl.remove t.contracts name;
    Ok ()
  end
  else Error (Printf.sprintf "contract %s does not exist" name)

let find t name = Hashtbl.find_opt t.contracts name

(* --- snapshot support (DESIGN.md §11) ------------------------------------- *)

let next_version t = t.next_version

let set_next_version t v = t.next_version <- v

let export_procedural t =
  Hashtbl.fold
    (fun name c acc ->
      match c.body with
      | Procedural p -> (name, c.version, p.Procedural.source) :: acc
      | Native _ -> acc)
    t.contracts []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let install_exact t ~name ~version ~source =
  match Determinism.parse_program source with
  | Error (`Syntax e | `Nondeterministic e) -> Error e
  | Ok program ->
      Hashtbl.replace t.contracts name { name; version; body = Procedural program };
      Ok ()
