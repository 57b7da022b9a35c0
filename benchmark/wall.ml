(* Wall-clock timing, sample percentiles, and the in-memory span recorder
   of the traced run. *)

let now_ns () = Monotonic_clock.now ()

(* One timed call: its midpoint (monotonic ns) and its length (s). *)
type sample = { at : int64; dt : float }

let measure f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let d = Int64.sub t1 t0 in
  (r, { at = Int64.add t0 (Int64.div d 2L); dt = Int64.to_float d /. 1e9 })

(* Linear-interpolated percentile ([p] in 0..100) of an unsorted sample;
   nan when empty. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = percentile samples 50.

(* --- host speed ----------------------------------------------------------- *)

(* The benchmark runs on a shared virtual machine whose speed drifts by
   tens of percent within seconds, which neither wall nor CPU time inside
   the guest can tell apart from a slower program. A fixed reference
   kernel, run between the workload's steps (once per simulated tick,
   session round, set-up load and replayed block), measures the drift.
   Each timing is divided by the slowness (measured / nominal time) of
   the kernel run nearest to it, and a set-up or window by the mean
   slowness of the kernel runs inside it, so it reads as the time it
   takes at the kernel's nominal speed. The kernel uses only the standard
   library, so no change to the system under test can move it. It builds
   short-lived string maps (allocation, string hashing and comparison):
   of the kernels tried (this one, an ALU loop, dependent loads from a
   32 MiB table, a streaming scan), it tracked the workloads' own speed
   most closely. *)

module String_map = Map.Make (String)

let kernel () =
  for r = 1 to 4 do
    let m = ref String_map.empty in
    for i = 0 to 400 do
      m := String_map.add (string_of_int ((i * 7919) + r)) i !m
    done;
    ignore (Sys.opaque_identity !m)
  done

(* About the kernel's median time on the 2-core sandbox the README's
   numbers come from. Only the scale of the reported times depends on it. *)
let kernel_nominal_s = 0.0005

let kernel_runs : sample list ref = ref []

(* Run the kernel once and record its time. *)
let calibrate () =
  let (), s = measure kernel in
  kernel_runs := s :: !kernel_runs

type slowness = {
  near : int64 -> float;  (** slowness of the kernel run nearest in time *)
  within : int64 -> int64 -> float;
      (** mean slowness of the kernel runs in an interval ([near] its
          middle when none ran inside) *)
  overall : float;  (** median slowness of every kernel run *)
}

let midpoint t0 t1 = Int64.add t0 (Int64.div (Int64.sub t1 t0) 2L)

(* Built once the run is over, from every kernel run recorded. *)
let slowness () =
  let runs = Array.of_list (List.rev !kernel_runs) in
  let n = Array.length runs in
  if n = 0 then invalid_arg "Wall.slowness: the kernel never ran";
  let slow i = runs.(i).dt /. kernel_nominal_s in
  (* index of the first run at or after [t]; [n] when none *)
  let rec first_from t lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Int64.compare runs.(mid).at t < 0 then first_from t (mid + 1) hi else first_from t lo mid
  in
  let near t =
    let i = first_from t 0 n in
    if i = n then slow (n - 1)
    else if i = 0 || Int64.compare (Int64.sub runs.(i).at t) (Int64.sub t runs.(i - 1).at) <= 0
    then slow i
    else slow (i - 1)
  in
  let within t0 t1 =
    let rec go i total k =
      if i < n && Int64.compare runs.(i).at t1 <= 0 then go (i + 1) (total +. slow i) (k + 1)
      else if k = 0 then near (midpoint t0 t1)
      else total /. float_of_int k
    in
    go (first_from t0 0 n) 0. 0
  in
  { near; within; overall = median (List.init n slow) }

(* A short sample's time at the kernel's nominal speed. *)
let normalize sl s = s.dt /. sl.near s.at

(* A long sample (a set-up, the whole window) at nominal speed: less the
   kernel runs inside it, over the mean slowness they measured. *)
let normalize_span sl s =
  let half = Int64.of_float (s.dt *. 0.5e9) in
  let t0 = Int64.sub s.at half and t1 = Int64.add s.at half in
  let inside =
    List.fold_left
      (fun acc k ->
        if Int64.compare k.at t0 >= 0 && Int64.compare k.at t1 <= 0 then acc +. k.dt else acc)
      0. !kernel_runs
  in
  (s.dt -. inside) /. sl.within t0 t1

(* --- spans -------------------------------------------------------------------- *)

(* One timed call into a layer: [group] names the block or session it
   belongs to ("block/17", "session/3"), [parent] is the enclosing span's
   id (0 at top level). *)
type span = {
  id : int;
  name : string;
  group : string;
  parent : int;
  start_ns : int64;
  stop_ns : int64;
}

let enabled = ref false

let recorded : span list ref = ref []

let open_ids : int list ref = ref []

let next_id = ref 0

(* [span ~group name f] runs [f ()]; when tracing is on it records a span
   around the call, nested under the innermost open span. *)
let span ?(group = "") name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let start_ns = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop_ns = now_ns () in
        open_ids := List.tl !open_ids;
        recorded := { id; name; group; parent; start_ns; stop_ns } :: !recorded)
  end

(* [untraced f] runs [f ()] with span recording off. *)
let untraced f =
  let was = !enabled in
  enabled := false;
  Fun.protect f ~finally:(fun () -> enabled := was)

let dur_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Durations of every recorded span called [name], at nominal speed. *)
let durations sl name =
  List.filter_map
    (fun s ->
      if String.equal s.name name then
        Some (dur_s s /. sl.near (midpoint s.start_ns s.stop_ns))
      else None)
    !recorded

type layer_row = {
  l_name : string;
  l_count : int;
  l_total_s : float;
  l_self_s : float;  (** total minus the time covered by child spans *)
  l_p50_s : float;
}

let layer_table () =
  let child_s = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_s s.parent
          (dur_s s +. Option.value (Hashtbl.find_opt child_s s.parent) ~default:0.))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur_s s -. Option.value (Hashtbl.find_opt child_s s.id) ~default:0. in
      let durs, self_sum =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:([], 0.)
      in
      Hashtbl.replace by_name s.name (dur_s s :: durs, self_sum +. self))
    !recorded;
  Hashtbl.fold
    (fun name (durs, self) acc ->
      {
        l_name = name;
        l_count = List.length durs;
        l_total_s = List.fold_left ( +. ) 0. durs;
        l_self_s = self;
        l_p50_s = median durs;
      }
      :: acc)
    by_name []
  |> List.sort (fun a b -> String.compare a.l_name b.l_name)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace_event JSON ("X" complete events, microseconds from the
   first span), loadable in chrome://tracing or Perfetto. *)
let write_chrome_trace path =
  let spans = List.rev !recorded in
  let t0 =
    List.fold_left (fun acc s -> if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
      Int64.max_int spans
  in
  let us x = Int64.to_float (Int64.sub x t0) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"group\":%s}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) (us s.start_ns)
        (us s.stop_ns -. us s.start_ns)
        s.id s.parent (json_string s.group))
    spans;
  output_string oc "]}\n";
  close_out oc
