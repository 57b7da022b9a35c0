type t = { clock : Clock.t; busy : float array }

type wave_stats = { exec_elapsed : float; exec_busy : float; wave_count : int }

let create ?(cores = 1) clock =
  if cores < 1 then invalid_arg "Cpu.create: cores < 1";
  { clock; busy = Array.make cores 0. }

let cores t = Array.length t.busy

(* Earliest-free core, ties broken by lowest index (determinism). *)
let free_core busy =
  let best = ref 0 in
  for i = 1 to Array.length busy - 1 do
    if busy.(i) < busy.(!best) then best := i
  done;
  !best

let run t ~cost f =
  let now = Clock.now t.clock in
  let core = free_core t.busy in
  let start = Float.max now t.busy.(core) in
  let finish = start +. Float.max 0. cost in
  t.busy.(core) <- finish;
  Clock.schedule_at t.clock ~time:finish f

let run_waves t ~head ~tail ~waves ~costs f =
  let n = Array.length waves in
  if Array.length costs <> n then
    invalid_arg "Cpu.run_waves: waves/costs length mismatch";
  let ncores = Array.length t.busy in
  let now = Clock.now t.clock in
  (* A block is a pipeline barrier: it starts only once every core has
     drained, and it occupies every core until its commit tail finishes. *)
  let t0 = Array.fold_left Float.max now t.busy in
  let exec_start = t0 +. Float.max 0. head in
  let wave_count = Array.fold_left (fun acc w -> max acc (w + 1)) 0 waves in
  let cursor = ref exec_start in
  let core_end = Array.make ncores 0. in
  for w = 0 to wave_count - 1 do
    (* Merge barrier: wave [w] starts only after wave [w-1] fully ends. *)
    Array.fill core_end 0 ncores !cursor;
    for i = 0 to n - 1 do
      if waves.(i) = w then begin
        let c = free_core core_end in
        core_end.(c) <- core_end.(c) +. Float.max 0. costs.(i)
      end
    done;
    cursor := Array.fold_left Float.max !cursor core_end
  done;
  let finish = !cursor +. Float.max 0. tail in
  Array.fill t.busy 0 ncores finish;
  let stats =
    {
      exec_elapsed = !cursor -. exec_start;
      exec_busy = Array.fold_left (fun a c -> a +. Float.max 0. c) 0. costs;
      wave_count;
    }
  in
  Clock.schedule_at t.clock ~time:finish (fun () -> f stats)
