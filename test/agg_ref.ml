(* Reference aggregation for [Brdb_engine.Exec]: the materialize-then-group
   code the executor ran before it streamed. Every joined row is copied
   into a list; once the join is done the grouping error is raised, then
   the rows are bucketed by key string (the first key error raised in row
   order) and the groups sorted by key; each aggregate is a fold over its
   group's rows, computed when an expression of the group first needs it.
   The qcheck property in test_agg.ml runs the same statements through
   both and compares results, errors, read sets, predicates and stats. *)

open Brdb_storage
open Brdb_sql.Ast
module Eval = Brdb_engine.Eval
module Exec = Brdb_engine.Exec

let error fmt = Printf.ksprintf (fun msg -> raise (Eval.Error msg)) fmt

let compile_agg ctx layout kind arg : Eval.frame list -> Value.t =
  let non_null c rows =
    List.filter_map (fun f -> match c f with Value.Null -> None | v -> Some v) rows
  in
  match kind with
  | Count_star -> fun rows -> Value.Int (List.length rows)
  | Count ->
      let c = Eval.compile ctx layout (Option.get arg) in
      fun rows ->
        Value.Int (List.length (List.filter (fun f -> not (Value.is_null (c f))) rows))
  | Count_distinct ->
      let c = Eval.compile ctx layout (Option.get arg) in
      fun rows ->
        Value.Int (List.length (List.sort_uniq Value.compare_total (non_null c rows)))
  | Sum | Avg -> (
      let c = Eval.compile ctx layout (Option.get arg) in
      fun rows ->
        let values = non_null c rows in
        match values with
        | [] -> Value.Null
        | _ ->
            let all_int = List.for_all (function Value.Int _ -> true | _ -> false) values in
            if kind = Sum && all_int then
              Value.Int
                (List.fold_left
                   (fun acc v -> match v with Value.Int i -> acc + i | _ -> acc)
                   0 values)
            else
              let total =
                List.fold_left
                  (fun acc v ->
                    match v with
                    | Value.Int i -> acc +. float_of_int i
                    | Value.Float f -> acc +. f
                    | v -> error "cannot aggregate %s" (Value.to_string v))
                  0. values
              in
              if kind = Sum then Value.Float total
              else Value.Float (total /. float_of_int (List.length values)))
  | Min | Max -> (
      let c = Eval.compile ctx layout (Option.get arg) in
      fun rows ->
        match non_null c rows with
        | [] -> Value.Null
        | first :: rest ->
            let better a b =
              let cmp = Value.compare_total a b in
              if kind = Min then cmp < 0 else cmp > 0
            in
            List.fold_left (fun acc v -> if better v acc then v else acc) first rest)

type group = { rows : Eval.frame list; rep : Eval.frame; memo : Value.t option array }

(* The old per-(operator, table) counting: find, else prepend. *)
let stats_scan (mode : Exec.mode) ~op ~table ~rows ~visited =
  match mode.Exec.stats with
  | None -> ()
  | Some s -> (
      match
        List.find_opt
          (fun (o : Exec.op_stat) -> o.Exec.op_kind = op && o.Exec.op_table = table)
          s.Exec.scans
      with
      | Some o ->
          o.Exec.op_rows <- o.Exec.op_rows + rows;
          o.Exec.op_visited <- o.Exec.op_visited + visited
      | None ->
          s.Exec.scans <-
            { Exec.op_kind = op; op_table = table; op_rows = rows; op_visited = visited }
            :: s.Exec.scans)

let aggregation : Exec.Testing.aggregation =
 fun ctx mode layout sel ->
  let grouping_error = Exec.Testing.grouping_error layout sel in
  let project_group =
    lazy
      (let calls = ref [] and count = ref 0 in
       (* Each distinct aggregate call gets one memo slot per group,
          filled on first use. *)
       let agg kind arg =
         let i, compute =
           match List.assoc_opt (kind, arg) !calls with
           | Some slot -> slot
           | None ->
               let slot = (!count, compile_agg ctx layout kind arg) in
               calls := ((kind, arg), slot) :: !calls;
               incr count;
               slot
         in
         fun g ->
           match g.memo.(i) with
           | Some v -> v
           | None ->
               let v = compute g.rows in
               g.memo.(i) <- Some v;
               v
       in
       let g = Eval.Testing.compile_grouped_with ctx layout ~agg ~rep:(fun g -> g.rep) in
       let having =
         Option.map (fun h -> g (Exec.Testing.substitute_aliases sel.items h)) sel.having
       in
       let keys =
         List.map (fun k -> g (Exec.Testing.substitute_aliases sel.items k.o_expr)) sel.order_by
       in
       let items =
         List.map (function Star -> assert false | Sel_expr (e, _) -> g e) sel.items
       in
       fun ~rows ~rep ->
         let group = { rows; rep; memo = Array.make !count None } in
         let keep =
           match having with
           | None -> true
           | Some h -> ( match h group with Value.Bool true -> true | _ -> false)
         in
         if not keep then None
         else
           let keys = List.map (fun k -> k group) keys in
           Some (keys, List.map (fun c -> c group) items))
  in
  let group_keys = lazy (List.map (Eval.compile ctx layout) sel.group_by) in
  fun frame0 joined ->
    let frames = ref [] in
    joined (fun frame -> frames := Array.copy frame :: !frames);
    let frames = List.rev !frames in
    Option.iter (fun msg -> error "%s" msg) grouping_error;
    let groups =
      match sel.group_by with
      | [] -> [ frames ]
      | _ ->
          let keys = Lazy.force group_keys in
          let tbl = Hashtbl.create 64 in
          List.iter
            (fun frame ->
              let key = List.map (fun k -> k frame) keys in
              let ks = Exec.Testing.key_string key in
              match Hashtbl.find_opt tbl ks with
              | Some (_, r) -> r := frame :: !r
              | None -> Hashtbl.add tbl ks (key, ref [ frame ]))
            frames;
          let drained =
            Hashtbl.fold (fun ks v acc -> (ks, v) :: acc) tbl []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
            |> List.map (fun (ks, (key, r)) -> (ks, key, List.rev !r))
          in
          stats_scan mode ~op:"hash_agg" ~table:"-" ~rows:(List.length drained)
            ~visited:(List.length frames);
          List.sort
            (fun (s1, k1, _) (s2, k2, _) ->
              match List.compare Value.compare_total k1 k2 with 0 -> compare s1 s2 | c -> c)
            drained
          |> List.map (fun (_, _, group) -> group)
    in
    let empty_rep () =
      Array.mapi
        (fun i (s : Eval.slot) ->
          if i < layout.Eval.scope_start then frame0.(i) else s.Eval.null_row)
        layout.Eval.slots
    in
    List.filter_map
      (fun rows ->
        let rep = match rows with f :: _ -> f | [] -> empty_rep () in
        Lazy.force project_group ~rows ~rep)
      groups
