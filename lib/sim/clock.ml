module Key = struct
  type t = float * int

  let compare (t1, s1) (t2, s2) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end

module Q = Map.Make (Key)

type t = {
  mutable time : float;
  mutable seq : int;
  mutable queue : (unit -> unit) Q.t;
}

let create () = { time = 0.; seq = 0; queue = Q.empty }

let now t = t.time

let schedule_at t ~time f =
  let time = Float.max time t.time in
  t.seq <- t.seq + 1;
  t.queue <- Q.add (time, t.seq) f t.queue

let schedule t ~delay f = schedule_at t ~time:(t.time +. Float.max 0. delay) f

let run ?(until = Float.infinity) t =
  let processed = ref 0 in
  let rec loop () =
    match Q.min_binding_opt t.queue with
    | None -> ()
    | Some (((time, _) as key), f) ->
        if time > until then ()
        else begin
          t.queue <- Q.remove key t.queue;
          t.time <- time;
          f ();
          incr processed;
          loop ()
        end
  in
  loop ();
  if until < Float.infinity && t.time < until then t.time <- until;
  !processed
