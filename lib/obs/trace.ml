type value = I of int | F of float | S of string | B of bool

type kind =
  | Complete
  | Instant
  | Async_begin
  | Async_instant
  | Async_end
  | Counter

type event = {
  seq : int;
  ts : float;
  dur : float;
  node : string;
  track : string;
  cat : string;
  kind : kind;
  name : string;
  id : string;
  span : string;
  parent : string;
  follows : string;
  args : (string * value) list;
}

type t = {
  enabled : bool;
  now : unit -> float;
  mutable events_rev : event list;
  mutable seq : int;
}

(* The null sink is shared and immutable in practice: every emitter checks
   [enabled] before touching state, so disabled tracing allocates nothing
   beyond the (unevaluated-arg) function call. *)
let null = { enabled = false; now = (fun () -> 0.); events_rev = []; seq = 0 }

let create ?(now = fun () -> 0.) () =
  { enabled = true; now; events_rev = []; seq = 0 }

let enabled t = t.enabled

let push t ~ts ~dur ~node ~track ~cat ~kind ~name ~id ~span ~parent ~follows
    ~args =
  let ev =
    {
      seq = t.seq;
      ts;
      dur;
      node;
      track;
      cat;
      kind;
      name;
      id;
      span;
      parent;
      follows;
      args;
    }
  in
  t.seq <- t.seq + 1;
  t.events_rev <- ev :: t.events_rev

let complete t ~node ?(track = "main") ?(cat = "span") ~name ~ts ~dur
    ?(span = "") ?(parent = "") ?(follows = "") ?(args = []) () =
  if t.enabled then
    push t ~ts ~dur ~node ~track ~cat ~kind:Complete ~name ~id:"" ~span ~parent
      ~follows ~args

let instant t ~node ?(track = "main") ?(cat = "event") ~name ?ts ?(span = "")
    ?(parent = "") ?(follows = "") ?(args = []) () =
  if t.enabled then
    let ts = match ts with Some ts -> ts | None -> t.now () in
    push t ~ts ~dur:0. ~node ~track ~cat ~kind:Instant ~name ~id:"" ~span
      ~parent ~follows ~args

let async t kind ~node ?(track = "async") ?(cat = "txn") ~name ~id ?ts
    ?(span = "") ?(parent = "") ?(follows = "") ?(args = []) () =
  if t.enabled then
    let ts = match ts with Some ts -> ts | None -> t.now () in
    push t ~ts ~dur:0. ~node ~track ~cat ~kind ~name ~id ~span ~parent ~follows
      ~args

let async_begin t = async t Async_begin

let async_instant t = async t Async_instant

let async_end t = async t Async_end

let counter t ~node ?(track = "counters") ~name ~value ?ts () =
  if t.enabled then
    let ts = match ts with Some ts -> ts | None -> t.now () in
    push t ~ts ~dur:0. ~node ~track ~cat:"counter" ~kind:Counter ~name ~id:""
      ~span:"" ~parent:"" ~follows:"" ~args:[ (name, F value) ]

let events t = List.rev t.events_rev

module Testing = struct
  let counter = counter
end
