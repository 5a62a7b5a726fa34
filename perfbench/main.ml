(* perfbench: the repository benchmark.

     perfbench.exe --workload table1|serve-hot|serve-zipf --seed N
                   --seconds S --trace 0|1 --jobs N --grip PATH
                   [--commit ID]

   Run from the repository root (perfbench/run.py builds and calls it).
   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones (a separate, traced run); the last line of standard
   output is the JSON result.  It exits 1 when any check fails. *)

(* The metrics BENCHMARK.json declares for this mode (end_to_end for
   --trace 0, per_layer for --trace 1), as (name, unit). *)
let declared ~trace =
  let module Json = Grip_obs.Json in
  let section = if trace then "per_layer" else "end_to_end" in
  let field key m =
    match Json.member key m with Some (Json.Str s) -> s | _ -> failwith ("BENCHMARK.json: bad " ^ section)
  in
  match Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  | Ok doc -> (
      match Json.member section doc with
      | Some (Json.List ms) -> List.map (fun m -> (field "name" m, field "unit" m)) ms
      | _ -> failwith ("BENCHMARK.json: no " ^ section))

(* Every reported metric must be declared with the same unit, and every
   declared end-to-end metric reported.  A per-layer metric of a layer
   the workload does not run (or a figure the daemon does not export)
   reads 0. *)
let reconcile report ~trace =
  let decl = declared ~trace in
  List.iter
    (fun (name, _, unit_) ->
      match List.assoc_opt name decl with
      | Some u when u = unit_ -> ()
      | Some u -> Report.problem report "%s reported in %s, declared in %s" name unit_ u
      | None -> Report.problem report "%s is not declared in BENCHMARK.json" name)
    report.Report.metrics;
  List.iter
    (fun (name, unit_) ->
      if not (List.exists (fun (n, _, _) -> n = name) report.Report.metrics) then
        if trace then Report.add report name ~unit_ 0.0
        else Report.problem report "%s was not measured" name)
    decl

let t_start = Unix.gettimeofday ()

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload table1|serve-hot|serve-zipf --seed N --seconds S \
     --trace 0|1 --jobs N --grip PATH [--commit ID]";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a terminated run still stops its daemon (at_exit) *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  let args = Hashtbl.create 8 in
  let rec parse = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        Hashtbl.replace args (String.sub flag 2 (String.length flag - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get name = match Hashtbl.find_opt args name with Some v -> v | None -> usage () in
  let int name = match int_of_string_opt (get name) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let jobs = int "jobs" and trace = int "trace" = 1 in
  let report = Report.create () in
  let daemon =
    match workload with
    | "table1" ->
        Table1.run ~report ~t_start ~jobs ~seconds:(float_of_int seconds) ~trace;
        None
    | "serve-hot" | "serve-zipf" ->
        let spec = if workload = "serve-hot" then Serve_bench.hot else Serve_bench.zipf in
        Serve_bench.run ~report ~spec ~t_start ~grip:(get "grip") ~jobs ~seed
          ~seconds:(float_of_int seconds) ~trace;
        Some (String.concat " " (Serve_bench.daemon_flags spec))
    | _ -> usage ()
  in
  reconcile report ~trace;
  let stamp =
    Grip_obs.Json.(
      Obj
        [
          ("workload", Str workload);
          ("seed", int seed);
          ("seconds", int seconds);
          ("trace", Bool trace);
          ("nproc", int (Domain.recommended_domain_count ()));
          ("jobs", int jobs);
          ("ocaml", Str Sys.ocaml_version);
          ("daemon_flags", match daemon with Some f -> Str f | None -> Null);
          ("commit", Str (Option.value (Hashtbl.find_opt args "commit") ~default:"unknown"));
        ])
  in
  Report.print ~stamp report;
  exit (if Report.correct report then 0 else 1)
