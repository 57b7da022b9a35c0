let run ~clock ~rng ~rate ~duration ~submit =
  if rate <= 0. then invalid_arg "Workload.run: rate must be positive";
  let mean = 1. /. rate in
  let stop = Clock.now clock +. duration in
  let seq = ref 0 in
  let rec arm () =
    let delay = Rng.exponential rng ~mean in
    Clock.schedule clock ~delay (fun () ->
        if Clock.now clock <= stop then begin
          let n = !seq in
          incr seq;
          submit n;
          arm ()
        end)
  in
  arm ()
