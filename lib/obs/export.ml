(* Both exporters format every number with a fixed printf spec, so two
   tracers holding equal event lists render byte-identical output — the
   property the chaos determinism tests pin down. *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_value buf = function
  | Trace.I i -> Buffer.add_string buf (string_of_int i)
  | Trace.F f -> Buffer.add_string buf (Printf.sprintf "%.6f" f)
  | Trace.S s -> escape buf s
  | Trace.B b -> Buffer.add_string buf (if b then "true" else "false")

let add_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      escape buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    args;
  Buffer.add_char buf '}'

let kind_tag = function
  | Trace.Complete -> "X"
  | Trace.Instant -> "i"
  | Trace.Async_begin -> "b"
  | Trace.Async_instant -> "n"
  | Trace.Async_end -> "e"
  | Trace.Counter -> "C"

(* ------------------------------------------------------------- JSONL *)

let jsonl_string events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Trace.event) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"seq\":%d,\"ts\":%.9f,\"dur\":%.9f,\"node\":" e.seq
           e.ts e.dur);
      escape buf e.node;
      Buffer.add_string buf ",\"track\":";
      escape buf e.track;
      Buffer.add_string buf ",\"cat\":";
      escape buf e.cat;
      Buffer.add_string buf ",\"ph\":";
      escape buf (kind_tag e.kind);
      Buffer.add_string buf ",\"name\":";
      escape buf e.name;
      if e.id <> "" then (
        Buffer.add_string buf ",\"id\":";
        escape buf e.id);
      if e.span <> "" then (
        Buffer.add_string buf ",\"span\":";
        escape buf e.span);
      if e.parent <> "" then (
        Buffer.add_string buf ",\"parent\":";
        escape buf e.parent);
      if e.follows <> "" then (
        Buffer.add_string buf ",\"follows\":";
        escape buf e.follows);
      if e.args <> [] then (
        Buffer.add_string buf ",\"args\":";
        add_args buf e.args);
      Buffer.add_string buf "}\n")
    events;
  Buffer.contents buf

(* ------------------------------------------------ causal projection *)

(* The per-node causal skeleton: the block/txn events of one node with
   everything node-local or timing-dependent stripped. Every replica
   processes the same block stream, so this projection is byte-identical
   across nodes (modulo the node name, which is normalized away):
   - ts/dur/seq dropped — blocks complete at node-local times;
   - abort "reason"/"class"/"detail" args dropped — reasons are
     node-local (CLAUDE.md), only the decision (= the event name) must
     match;
   - "missing" dropped — EO missing-transaction counts are node-local;
   - replayed events deduplicated — §3.6 recovery re-accounts a repaired
     block, re-emitting the same causal content. *)
let causal_keys = [ "tx"; "height"; "txs" ]

let causal_line buf (e : Trace.event) =
  Buffer.add_string buf "{\"node\":\"node\",\"track\":";
  escape buf e.track;
  Buffer.add_string buf ",\"cat\":";
  escape buf e.cat;
  Buffer.add_string buf ",\"ph\":";
  escape buf (kind_tag e.kind);
  Buffer.add_string buf ",\"name\":";
  escape buf e.name;
  if e.id <> "" then (
    Buffer.add_string buf ",\"id\":";
    escape buf e.id);
  if e.span <> "" then (
    Buffer.add_string buf ",\"span\":";
    escape buf e.span);
  if e.parent <> "" then (
    Buffer.add_string buf ",\"parent\":";
    escape buf e.parent);
  if e.follows <> "" then (
    Buffer.add_string buf ",\"follows\":";
    escape buf e.follows);
  (let args = List.filter (fun (k, _) -> List.mem k causal_keys) e.args in
   if args <> [] then (
     Buffer.add_string buf ",\"args\":";
     add_args buf args));
  Buffer.add_string buf "}\n"

let causal_jsonl ~node events =
  let buf = Buffer.create 4096 in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.event) ->
      if e.node = node && (e.track = "block" || e.track = "txn") then begin
        let line =
          let b = Buffer.create 128 in
          causal_line b e;
          Buffer.contents b
        in
        if not (Hashtbl.mem seen line) then begin
          Hashtbl.replace seen line ();
          Buffer.add_string buf line
        end
      end)
    events;
  Buffer.contents buf

(* ----------------------------------------------- Chrome trace_event *)

(* chrome://tracing / Perfetto expect integer pid/tid; map each node to a
   pid and each (node, track) to a tid, and name both with "M" metadata
   events. Assignment is by sorted name, independent of event order. *)
let chrome_string events =
  let nodes =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.node) events)
  in
  let pid node =
    let rec idx i = function
      | [] -> 0
      | n :: _ when n = node -> i
      | _ :: tl -> idx (i + 1) tl
    in
    1 + idx 0 nodes
  in
  let tracks =
    List.sort_uniq compare
      (List.map (fun (e : Trace.event) -> (e.node, e.track)) events)
  in
  let tid node track =
    let rec idx i = function
      | [] -> 0
      | (n, tr) :: _ when n = node && tr = track -> i
      | (n, _) :: tl when n = node -> idx (i + 1) tl
      | _ :: tl -> idx i tl
    in
    1 + idx 0 tracks
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let item () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n"
  in
  let metadata ~name ~p ~t ~label =
    item ();
    Buffer.add_string buf
      (Printf.sprintf
         "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"args\":{\"name\":"
         p t name);
    escape buf label;
    Buffer.add_string buf "}}"
  in
  List.iter
    (fun node -> metadata ~name:"process_name" ~p:(pid node) ~t:0 ~label:node)
    nodes;
  List.iter
    (fun (node, track) ->
      metadata ~name:"thread_name" ~p:(pid node) ~t:(tid node track)
        ~label:track)
    tracks;
  List.iter
    (fun (e : Trace.event) ->
      item ();
      Buffer.add_string buf "{\"name\":";
      escape buf e.name;
      Buffer.add_string buf ",\"cat\":";
      escape buf (if e.cat = "" then "default" else e.cat);
      Buffer.add_string buf
        (Printf.sprintf ",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f"
           (kind_tag e.kind) (pid e.node)
           (tid e.node e.track)
           (e.ts *. 1e6));
      (match e.kind with
      | Trace.Complete ->
          Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" (e.dur *. 1e6))
      | Trace.Instant -> Buffer.add_string buf ",\"s\":\"t\""
      | Trace.Async_begin | Trace.Async_instant | Trace.Async_end ->
          Buffer.add_string buf ",\"id\":";
          escape buf e.id
      | Trace.Counter -> ());
      (* Chrome's args panel is the only place the viewer shows free-form
         data, so causal edges ride along there. *)
      let ctx =
        List.filter_map
          (fun (k, s) -> if s = "" then None else Some (k, Trace.S s))
          [ ("span", e.span); ("parent", e.parent); ("follows", e.follows) ]
      in
      let args = e.args @ ctx in
      if args <> [] then (
        Buffer.add_string buf ",\"args\":";
        add_args buf args);
      Buffer.add_string buf "}")
    events;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

module Testing = struct
  let causal_jsonl = causal_jsonl
end
