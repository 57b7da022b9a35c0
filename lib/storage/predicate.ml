type t =
  | Full_scan of { table : string }
  | Range of { table : string; column : int; lo : Index.bound; hi : Index.bound }

let table = function Full_scan { table } | Range { table; _ } -> table

let bound_ok_lo lo v =
  match lo with
  | Index.Unbounded -> true
  | Index.Incl b -> Value.compare_total v b >= 0
  | Index.Excl b -> Value.compare_total v b > 0

let bound_ok_hi hi v =
  match hi with
  | Index.Unbounded -> true
  | Index.Incl b -> Value.compare_total v b <= 0
  | Index.Excl b -> Value.compare_total v b < 0

let matches p ~table:tbl row =
  match p with
  | Full_scan { table } -> String.equal table tbl
  | Range { table; column; lo; hi } ->
      String.equal table tbl
      && column < Array.length row
      && bound_ok_lo lo row.(column)
      && bound_ok_hi hi row.(column)
