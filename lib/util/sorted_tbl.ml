let sorted_keys ?(compare = Stdlib.compare) tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort_uniq compare
