type t = { name : string; sk : Schnorr.secret_key; pk : Schnorr.public_key }

let create name =
  let sk, pk = Schnorr.keygen ~seed:name in
  { name; sk; pk }

let name t = t.name

let sign t msg = Schnorr.sign t.sk msg

module Registry = struct
  type id = t

  type t = (string, Schnorr.public_key) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let register_key t ~name pk =
    match Hashtbl.find_opt t name with
    | Some existing when not (Int64.equal existing pk) -> Error `Conflict
    | Some _ -> Ok ()
    | None ->
        Hashtbl.replace t name pk;
        Ok ()

  let register t (id : id) = register_key t ~name:id.name id.pk

  let set t ~name pk = Hashtbl.replace t name pk

  let remove t name = Hashtbl.remove t name

  let find t name = Hashtbl.find_opt t name

  let verify t ~name msg signature =
    match find t name with
    | None -> false
    | Some pk -> Schnorr.verify pk msg signature
end
