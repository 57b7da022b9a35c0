module Stat = struct
  type t = {
    mutable samples : float list;
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { samples = []; count = 0; sum = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.samples <- x :: t.samples;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count

  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  let min t = if t.count = 0 then 0. else t.min

  let max t = if t.count = 0 then 0. else t.max

  let samples t = List.rev t.samples

  (* Linear interpolation between closest ranks (the "C = 1" / numpy
     default). Truncating nearest-rank degenerates at small n — p95 of
     two samples would report the *minimum* — and small n is the common
     case for per-phase histograms in short runs. *)
  let percentile t p =
    match t.samples with
    | [] -> 0.
    | samples ->
        let arr = Array.of_list samples in
        Array.sort Float.compare arr;
        let n = Array.length arr in
        let p = Float.max 0. (Float.min 100. p) in
        let rank = Float.of_int (n - 1) *. p /. 100. in
        let lo = int_of_float (Float.floor rank) in
        let hi = Stdlib.min (n - 1) (lo + 1) in
        let frac = rank -. Float.of_int lo in
        arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
end

type metric = Counter of int ref | Gauge of float ref | Histogram of Stat.t

type t = { tbl : (string * string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or t ~node name mk =
  let key = (node, name) in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> m
  | None ->
      let m = mk () in
      Hashtbl.replace t.tbl key m;
      m

let mismatch name m want =
  invalid_arg
    (Printf.sprintf "Registry: metric %S is a %s, not a %s" name (kind_name m)
       want)

let incr ?(by = 1) t ~node name =
  match find_or t ~node name (fun () -> Counter (ref 0)) with
  | Counter r -> r := !r + by
  | m -> mismatch name m "counter"

let set t ~node name v =
  match find_or t ~node name (fun () -> Gauge (ref 0.)) with
  | Gauge r -> r := v
  | m -> mismatch name m "gauge"

let observe t ~node name v =
  match find_or t ~node name (fun () -> Histogram (Stat.create ())) with
  | Histogram s -> Stat.add s v
  | m -> mismatch name m "histogram"

let counter t ~node name =
  match Hashtbl.find_opt t.tbl (node, name) with
  | Some (Counter r) -> !r
  | _ -> 0

let gauge t ~node name =
  match Hashtbl.find_opt t.tbl (node, name) with
  | Some (Gauge r) -> !r
  | _ -> 0.

let histogram t ~node name =
  match Hashtbl.find_opt t.tbl (node, name) with
  | Some (Histogram s) -> Some s
  | _ -> None

type entry = {
  e_node : string;
  e_name : string;
  e_kind : string;
  e_count : int;
  e_value : float;
  e_min : float;
  e_max : float;
  e_p50 : float;
  e_p95 : float;
}

let entry_of node name = function
  | Counter r ->
      {
        e_node = node;
        e_name = name;
        e_kind = "counter";
        e_count = !r;
        e_value = float_of_int !r;
        e_min = 0.;
        e_max = 0.;
        e_p50 = 0.;
        e_p95 = 0.;
      }
  | Gauge g ->
      {
        e_node = node;
        e_name = name;
        e_kind = "gauge";
        e_count = 0;
        e_value = !g;
        e_min = 0.;
        e_max = 0.;
        e_p50 = 0.;
        e_p95 = 0.;
      }
  | Histogram s ->
      {
        e_node = node;
        e_name = name;
        e_kind = "histogram";
        e_count = Stat.count s;
        e_value = Stat.mean s;
        e_min = Stat.min s;
        e_max = Stat.max s;
        e_p50 = Stat.percentile s 50.;
        e_p95 = Stat.percentile s 95.;
      }

(* Hashtbl iteration order is nondeterministic; every view sorts before
   returning so registry output can be diffed across runs. *)
let snapshot t =
  Hashtbl.fold (fun (node, name) m acc -> entry_of node name m :: acc) t.tbl []
  |> List.sort (fun a b ->
         match compare a.e_name b.e_name with
         | 0 -> compare a.e_node b.e_node
         | c -> c)

let node_view t ~node = List.filter (fun e -> e.e_node = node) (snapshot t)

let nodes t =
  Hashtbl.fold (fun (node, _) _ acc -> node :: acc) t.tbl []
  |> List.sort_uniq compare

let cluster_view t =
  let items =
    Hashtbl.fold (fun (node, name) m acc -> ((name, node), m) :: acc) t.tbl []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  let rec group = function
    | [] -> []
    | (((name, _), _) :: _) as l ->
        let same, rest = List.partition (fun ((n, _), _) -> n = name) l in
        (name, List.map snd same) :: group rest
  in
  List.map
    (fun (name, ms) ->
      match ms with
      | Counter _ :: _ ->
          let total =
            List.fold_left
              (fun acc -> function Counter r -> acc + !r | _ -> acc)
              0 ms
          in
          entry_of "cluster" name (Counter (ref total))
      | Gauge _ :: _ ->
          let total =
            List.fold_left
              (fun acc -> function Gauge g -> acc +. !g | _ -> acc)
              0. ms
          in
          entry_of "cluster" name (Gauge (ref total))
      | Histogram _ :: _ ->
          let merged = Stat.create () in
          List.iter
            (function
              | Histogram s -> List.iter (Stat.add merged) (Stat.samples s)
              | _ -> ())
            ms;
          entry_of "cluster" name (Histogram merged)
      | [] -> assert false)
    (group items)

(* --- streaming smoothers (ISSUE 9) ---------------------------------------
   Shared by the Health detectors so windowed rules don't hand-roll
   pruning/seeding logic. Both are driven entirely by caller-supplied
   sample times (the simulated clock), so they stay deterministic. *)

module Window = struct
  (* newest sample first; pruned lazily on every access *)
  type t = { span : float; mutable samples : (float * float) list }

  let create ~span =
    if span <= 0. then invalid_arg "Registry.Window.create: span must be > 0";
    { span; samples = [] }

  let prune t ~now =
    t.samples <- List.filter (fun (ts, _) -> now -. ts <= t.span) t.samples

  let add t ~now v =
    t.samples <- (now, v) :: t.samples;
    prune t ~now

  let count t ~now =
    prune t ~now;
    List.length t.samples

  let sum t ~now =
    prune t ~now;
    List.fold_left (fun acc (_, v) -> acc +. v) 0. t.samples

  let mean t ~now =
    prune t ~now;
    match t.samples with
    | [] -> 0.
    | l ->
        List.fold_left (fun acc (_, v) -> acc +. v) 0. l
        /. float_of_int (List.length l)
end

module Ewma = struct
  type t = { alpha : float; mutable value : float; mutable count : int }

  let create ~alpha =
    if not (alpha > 0. && alpha <= 1.) then
      invalid_arg "Registry.Ewma.create: alpha must be in (0, 1]";
    { alpha; value = 0.; count = 0 }

  (* the first sample seeds the average exactly (no bias towards 0) *)
  let add t v =
    if t.count = 0 then t.value <- v
    else t.value <- t.value +. (t.alpha *. (v -. t.value));
    t.count <- t.count + 1

  let value t = t.value

  let count t = t.count
end

let pp_entry ppf e =
  match e.e_kind with
  | "counter" -> Format.fprintf ppf "%-34s %-12s %8d" e.e_name e.e_node e.e_count
  | "gauge" -> Format.fprintf ppf "%-34s %-12s %8.1f" e.e_name e.e_node e.e_value
  | _ ->
      Format.fprintf ppf "%-34s %-12s n=%-5d mean=%-8.3f p50=%-8.3f p95=%-8.3f max=%.3f"
        e.e_name e.e_node e.e_count e.e_value e.e_p50 e.e_p95 e.e_max

let pp_entries ppf es =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) es
