type row = {
  p_path : string;
  p_depth : int;
  p_events : int;
  p_total_s : float;
  p_self_s : float;
}

let prefix s =
  match String.index_opt s '/' with None -> s | Some i -> String.sub s 0 i

let segment (e : Trace.event) =
  if e.span <> "" then prefix e.span
  else if e.name <> "" then e.name
  else e.cat

let fold ?node events =
  let events =
    match node with
    | None -> events
    | Some n -> List.filter (fun (e : Trace.event) -> e.node = n) events
  in
  (* Parent edges among the retained events only: a span whose parent
     lives on another node (e.g. a peer's block span under the orderer's
     order span) roots its own tree in a per-node fold. *)
  let parent_of = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.span <> "" && e.parent <> "" && not (Hashtbl.mem parent_of e.span)
      then Hashtbl.replace parent_of e.span e.parent)
    events;
  let rec ancestry depth id =
    (* root-first list of ancestor segments; depth cap guards cycles *)
    if id = "" || depth > 16 then []
    else
      let up =
        match Hashtbl.find_opt parent_of id with
        | Some p -> ancestry (depth + 1) p
        | None -> []
      in
      up @ [ prefix id ]
  in
  let path (e : Trace.event) =
    let own = segment e in
    let anc =
      if e.span <> "" then ancestry 0 e.span
      else if e.parent <> "" then ancestry 0 e.parent @ [ own ]
      else [ own ]
    in
    String.concat ";" (if anc = [] then [ own ] else anc)
  in
  let agg = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      let p = path e in
      let count, total =
        Option.value (Hashtbl.find_opt agg p) ~default:(0, 0.)
      in
      Hashtbl.replace agg p (count + 1, total +. e.dur))
    events;
  let paths =
    List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) agg [])
  in
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun p ->
      match String.rindex_opt p ';' with
      | None -> ()
      | Some i ->
          let up = String.sub p 0 i in
          let _, total = Hashtbl.find agg p in
          Hashtbl.replace child_sum up
            (total
            +. Option.value (Hashtbl.find_opt child_sum up) ~default:0.))
    paths;
  List.map
    (fun p ->
      let count, total = Hashtbl.find agg p in
      let children = Option.value (Hashtbl.find_opt child_sum p) ~default:0. in
      {
        p_path = p;
        p_depth = List.length (String.split_on_char ';' p) - 1;
        p_events = count;
        p_total_s = total;
        p_self_s = Float.max 0. (total -. children);
      })
    paths
