(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§5) on the simulated testbed. Wall-clock time of the
    engine primitives is measured by the traced workloads in benchmark/
    (benchmark/README.md).

    Usage:
      dune exec bench/main.exe                 # all experiments
      dune exec bench/main.exe -- --quick      # shorter windows
      dune exec bench/main.exe -- --only fig5a # one experiment
      dune exec bench/main.exe -- --only table4 --trace t.json
                                               # ... with a Chrome trace
      dune exec bench/main.exe -- --json out.json
                                               # machine-readable summary
                                               # (per-run metrics + exec.*
                                               # per-operator row counts)
      dune exec bench/main.exe -- --list       # list experiment names
      dune exec bench/main.exe -- --help       # usage

    An unknown argument, or [--only]/[--json]/[--trace] without a value,
    prints the usage and exits 2. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_value = function
  | Runner.J_str s -> "\"" ^ json_escape s ^ "\""
  | Runner.J_int i -> string_of_int i
  | Runner.J_float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.6g" f

let write_json file =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"generated_by\": \"bench/main.exe\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"quick\": %b,\n  \"records\": [\n" !Experiments.quick);
  let records = List.rev !Runner.json_records in
  List.iteri
    (fun i (experiment, fields) ->
      Buffer.add_string buf "    { ";
      Buffer.add_string buf
        (Printf.sprintf "\"experiment\": \"%s\"" (json_escape experiment));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ", \"%s\": %s" (json_escape k) (json_value v)))
        fields;
      Buffer.add_string buf
        (if i = List.length records - 1 then " }\n" else " },\n"))
    records;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "\nwrote %d benchmark records to %s\n" (List.length records)
    file

let usage = "usage: main.exe [--quick] [--list] [--only NAME] [--json FILE] [--trace FILE]"

let () =
  let list = ref false and only = ref None in
  let set r = Arg.String (fun v -> r := Some v) in
  (* [Arg.parse] exits 2 with the usage on an unknown argument or a value
     flag without its value, before any experiment starts (a typo must not
     launch the full run), and answers [--help] with the usage and exit 0. *)
  Arg.parse
    (Arg.align
    [
      ("--quick", Arg.Set Experiments.quick, " shorter measurement windows");
      ("--list", Arg.Set list, " print the experiment names and exit");
      ("--only", set only, "NAME run one experiment (default: all, ~10 min)");
      ("--json", set Runner.json_file, "FILE write the machine-readable summary to FILE");
      ("--trace", set Runner.trace_file, "FILE write a Chrome trace of the run to FILE");
    ])
    (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
    usage;
  if !list then begin
    List.iter (fun (name, _) -> print_endline name) Experiments.all;
    exit 0
  end;
  let run_experiment (name, f) =
    Runner.current_experiment := name;
    f ()
  in
  (match !only with
  | Some name -> (
      match List.assoc_opt name Experiments.all with
      | Some f -> run_experiment (name, f)
      | None ->
          Printf.eprintf "unknown experiment %s; try --list\n" name;
          exit 1)
  | None ->
      print_endline
        "Blockchain relational database — evaluation reproduction (simulated \
         testbed; see EXPERIMENTS.md for paper-vs-measured)";
      List.iter run_experiment Experiments.all);
  (match !Runner.trace_file with
  | Some file ->
      let events = !Runner.collected in
      let oc = open_out file in
      output_string oc (Brdb_obs.Export.chrome_string events);
      close_out oc;
      Printf.printf
        "\nwrote %d trace events to %s (chrome://tracing / ui.perfetto.dev)\n"
        (List.length events) file
  | None -> ());
  (match !Runner.json_file with Some file -> write_json file | None -> ());
  print_endline "\ndone."
