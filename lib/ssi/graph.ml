module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

(* Both directions are kept so in/out lookups are one [find]; the maps
   are ordered, so the test hook's edge list drains in key order with no
   sort. *)
type t = { mutable inc : ISet.t IMap.t; mutable out : ISet.t IMap.t }

let create () = { inc = IMap.empty; out = IMap.empty }

let neighbours m id = Option.value ~default:ISet.empty (IMap.find_opt id m)

let add_edge t ~reader ~writer =
  if reader <> writer then begin
    t.inc <- IMap.add writer (ISet.add reader (neighbours t.inc writer)) t.inc;
    t.out <- IMap.add reader (ISet.add writer (neighbours t.out reader)) t.out
  end

let in_conflicts t id = ISet.elements (neighbours t.inc id)

let out_conflicts t id = ISet.elements (neighbours t.out id)

let edge_count t = IMap.fold (fun _ ws acc -> acc + ISet.cardinal ws) t.out 0

module Testing = struct
  let edges t =
    List.concat_map
      (fun (reader, ws) -> List.map (fun writer -> (reader, writer)) (ISet.elements ws))
      (IMap.bindings t.out)
end
