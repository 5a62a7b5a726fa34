(* The bottleneck profiler: verdict classification and recurrence
   reconstruction on hand-built dependence graphs, the occupancy
   timeline's steady-window accounting, and the rendered `grip explain`
   report on a few Livermore cells.  Every Livermore cell's bottleneck
   block is checked from the Table 1 artifact (test_table1.ml). *)

module Obs = Grip_obs
module Json = Grip_obs.Json
module Bottleneck = Grip_obs.Bottleneck
module Provenance = Grip_obs.Provenance
module Explain = Grip.Explain
module Pipeline = Grip.Pipeline
module Convergence = Grip.Convergence
module Schedule_table = Grip.Schedule_table
module Kernel = Grip.Kernel
module Machine = Vliw_machine.Machine
module Livermore = Workloads.Livermore

let kernel name = (Option.get (Livermore.find name)).Livermore.kernel

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* -- Bottleneck.analyze on hand-built inputs ------------------------------- *)

let edge src dst dist = { Bottleneck.src; dst; dist }

let input ?(positions = 0) ?(edges = []) ?(iter_ops = 0.) ?(width = 0)
    ?achieved ?(suspensions = 0) ?(barriers = 0) ?(fuel = false)
    ?(pressure = []) () =
  {
    Bottleneck.positions;
    edges;
    iter_ops;
    width;
    achieved_cpi = achieved;
    suspensions;
    barriers;
    fuel;
    pressure;
    blockers = [];
  }

(* A 3-op cycle carried over one iteration binds the rate at 3
   cycles/iter; achieving exactly that is dependence-bound. *)
let test_recurrence_bound () =
  let r =
    Bottleneck.analyze
      (input ~positions:3
         ~edges:[ edge 0 1 0; edge 1 2 0; edge 2 0 1 ]
         ~iter_ops:3.0 ~width:4 ~achieved:3.0 ())
  in
  Alcotest.(check (float 1e-9)) "rec_mii" 3.0 r.Bottleneck.rec_mii;
  Alcotest.(check (float 1e-9)) "res_mii" 0.75 r.Bottleneck.res_mii;
  (match r.Bottleneck.verdict with
  | Bottleneck.Dep_bound -> ()
  | v -> Alcotest.failf "expected dep_bound, got %s" (Bottleneck.verdict_name v));
  match r.Bottleneck.chain with
  | Some c ->
      Alcotest.(check (list int))
        "cycle closes on itself" [ 0; 1; 2; 0 ] c.Bottleneck.chain_positions;
      Alcotest.(check int) "ops" 3 c.Bottleneck.chain_ops;
      Alcotest.(check int) "distance" 1 c.Bottleneck.chain_distance
  | None -> Alcotest.fail "no chain"

(* With two recurrences the binding one (highest ops/distance) wins. *)
let test_tightest_recurrence_wins () =
  let r =
    Bottleneck.analyze
      (input ~positions:4
         ~edges:[ edge 0 1 0; edge 1 0 1; edge 2 3 0; edge 3 2 2 ]
         ~iter_ops:4.0 ~width:8 ~achieved:2.0 ())
  in
  Alcotest.(check (float 1e-9)) "rec_mii" 2.0 r.Bottleneck.rec_mii;
  match r.Bottleneck.chain with
  | Some c ->
      Alcotest.(check int) "the 1-iteration cycle" 1 c.Bottleneck.chain_distance;
      Alcotest.(check bool) "through position 0" true
        (List.mem 0 c.Bottleneck.chain_positions)
  | None -> Alcotest.fail "no chain"

(* An acyclic graph has no recurrence bound; the chain degrades to the
   longest dependence path and a tight machine makes the verdict
   resource-bound. *)
let test_resource_bound () =
  let r =
    Bottleneck.analyze
      (input ~positions:2 ~edges:[ edge 0 1 0 ] ~iter_ops:8.0 ~width:2
         ~achieved:4.0 ())
  in
  Alcotest.(check (float 1e-9)) "rec_mii" 0.0 r.Bottleneck.rec_mii;
  Alcotest.(check (float 1e-9)) "res_mii" 4.0 r.Bottleneck.res_mii;
  (match r.Bottleneck.verdict with
  | Bottleneck.Resource_bound -> ()
  | v ->
      Alcotest.failf "expected resource_bound, got %s"
        (Bottleneck.verdict_name v));
  match r.Bottleneck.chain with
  | Some c ->
      Alcotest.(check (list int)) "longest path" [ 0; 1 ]
        c.Bottleneck.chain_positions;
      Alcotest.(check int) "a path, not a cycle" 0 c.Bottleneck.chain_distance
  | None -> Alcotest.fail "no chain"

(* The 15% slack boundary: within it the binding bound takes the
   verdict, beyond it the scheduler does — carrying its own evidence. *)
let test_slack_boundary () =
  let at achieved =
    (Bottleneck.analyze
       (input ~positions:2 ~edges:[ edge 0 1 0 ] ~iter_ops:8.0 ~width:2
          ~achieved ~suspensions:7 ~barriers:3 ()))
      .Bottleneck.verdict
  in
  (match at 4.5 with
  | Bottleneck.Resource_bound -> ()
  | v -> Alcotest.failf "4.5: expected resource_bound, got %s" (Bottleneck.verdict_name v));
  match at 4.7 with
  | Bottleneck.Scheduler_bound { suspensions; barriers; fuel } ->
      Alcotest.(check int) "suspensions carried" 7 suspensions;
      Alcotest.(check int) "barriers carried" 3 barriers;
      Alcotest.(check bool) "no fuel" false fuel
  | v -> Alcotest.failf "4.7: expected scheduler_bound, got %s" (Bottleneck.verdict_name v)

(* Fuel exhaustion and non-convergence are always scheduler-bound:
   the measured rate is not a fixpoint. *)
let test_scheduler_bound_overrides () =
  let fuel =
    Bottleneck.analyze
      (input ~positions:2 ~edges:[ edge 0 1 0 ] ~iter_ops:8.0 ~width:2
         ~achieved:4.0 ~fuel:true ())
  in
  (match fuel.Bottleneck.verdict with
  | Bottleneck.Scheduler_bound { fuel = true; _ } -> ()
  | v -> Alcotest.failf "fuel: expected scheduler_bound, got %s" (Bottleneck.verdict_name v));
  let unconverged =
    Bottleneck.analyze
      (input ~positions:2 ~edges:[ edge 0 1 0 ] ~iter_ops:8.0 ~width:2 ())
  in
  match unconverged.Bottleneck.verdict with
  | Bottleneck.Scheduler_bound _ -> ()
  | v ->
      Alcotest.failf "unconverged: expected scheduler_bound, got %s"
        (Bottleneck.verdict_name v)

let test_pressure_stats () =
  let r =
    Bottleneck.analyze
      (input ~positions:1 ~iter_ops:1.0 ~width:4 ~achieved:1.0
         ~pressure:[ (2, 4); (4, 4); (3, 4) ] ())
  in
  Alcotest.(check (float 1e-9)) "avg" 3.0 r.Bottleneck.pressure_avg;
  Alcotest.(check int) "peak" 4 r.Bottleneck.pressure_peak

(* The JSON view the bench artifact embeds per cell. *)
let test_report_json () =
  let r =
    Bottleneck.analyze
      (input ~positions:3
         ~edges:[ edge 0 1 0; edge 1 2 0; edge 2 0 1 ]
         ~iter_ops:3.0 ~width:4 ~achieved:3.0 ())
  in
  let j = Bottleneck.to_json r in
  match Json.parse (Json.to_string ~pretty:true j) with
  | Error e -> Alcotest.failf "bottleneck json unparseable: %s" e
  | Ok j ->
      Alcotest.(check (option string))
        "verdict" (Some "dep_bound")
        (Option.bind (Json.member "verdict" j) Json.to_str);
      Alcotest.(check (option (float 1e-9)))
        "rec_mii" (Some 3.0)
        (Option.bind (Json.member "rec_mii" j) Json.to_float);
      Alcotest.(check bool)
        "chain present" true
        (Json.member "critical_chain" j <> None)

(* -- occupancy timeline ---------------------------------------------------- *)

let occupancy_of (o : Pipeline.outcome) =
  Schedule_table.occupancy
    ~jump_pos:(List.length o.Pipeline.kernel.Kernel.body)
    ?window:
      (Option.map
         (fun (p : Convergence.pattern) ->
           (p.Convergence.start, p.Convergence.period, p.Convergence.delta))
         o.Pipeline.pattern)
    ~machine:o.Pipeline.machine o.Pipeline.program

(* The paper's running example on 2 FUs: the software-pipelined steady
   state packs both slots every cycle (rows 2..3), Figure 5's shape. *)
let test_occupancy_golden () =
  let o =
    Pipeline.run Workloads.Paper_examples.abc ~machine:(Machine.homogeneous 2)
      ~method_:Pipeline.Grip ~horizon:4
  in
  let golden =
    String.concat "\n"
      [
        "row   occupancy    used   ops";
        "   1  [##]   2/2     a0";
        "   2| [##]   2/2     b0 j0";
        "   3| [##]   2/2     a1 c0";
        "   4  [##]   2/2     b1 j1";
        "   5  [##]   2/2     a2 c1";
        "   6  [##]   2/2     b2 j2";
        "   7  [##]   2/2     a3 c2";
        "   8  [##]   2/2     b3 j3";
        "   9  [#.]   1/2     c3";
        "rows 2..3 (|) repeat every 1 iteration(s): the converged loop body";
        "";
      ]
  in
  Alcotest.(check string) "abc/2FU occupancy" golden (occupancy_of o)

(* The window rows of the timeline are the steady state: their count is
   the pattern period, the [#] marks they carry are exactly the used
   slots the pressure backend reports for those rows, and dividing the
   window's slot total by delta reproduces the analyzer's per-iteration
   issue cost. *)
let test_occupancy_window_sums () =
  let o =
    Pipeline.run (kernel "LL1") ~machine:(Machine.homogeneous 4)
      ~method_:Pipeline.Grip
  in
  match o.Pipeline.pattern with
  | None -> Alcotest.fail "LL1/4FU did not converge"
  | Some pat ->
      let lines = String.split_on_char '\n' (occupancy_of o) in
      let window_rows =
        List.filter (fun l -> String.length l > 4 && l.[4] = '|') lines
      in
      Alcotest.(check int)
        "window rows = period" pat.Convergence.period
        (List.length window_rows);
      let hashes l = String.fold_left (fun a c -> if c = '#' then a + 1 else a) 0 l in
      let window_hashes = List.fold_left (fun a l -> a + hashes l) 0 window_rows in
      let pressures =
        Schedule_table.pressures ~machine:o.Pipeline.machine o.Pipeline.program
      in
      let window_used =
        List.fold_left (fun a (u, _) -> a + u) 0
          (List.filteri
             (fun i _ ->
               i >= pat.Convergence.start
               && i < pat.Convergence.start + pat.Convergence.period)
             pressures)
      in
      Alcotest.(check int) "bars = pressure backend" window_used window_hashes;
      let in_ = Explain.input_of o in
      Alcotest.(check (float 1e-9))
        "iter_ops = window slots / delta"
        (float_of_int window_used /. float_of_int pat.Convergence.delta)
        in_.Bottleneck.iter_ops;
      Alcotest.(check (option (float 1e-9)))
        "cpi = period / delta"
        (Some
           (float_of_int pat.Convergence.period
           /. float_of_int pat.Convergence.delta))
        o.Pipeline.static_cpi

(* -- grip explain, rendered ------------------------------------------------ *)

(* The rendered report, on a light and the heaviest kernel at the
   narrowest and widest machine. *)
let check_rendered name fu =
  let prov = Provenance.create () in
  let obs = Obs.make ~prov () in
  let o =
    Pipeline.run ~obs (kernel name) ~machine:(Machine.homogeneous fu)
      ~method_:Pipeline.Grip
  in
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  Explain.render ppf ~prov o (Explain.report ~prov o);
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let ctx = Printf.sprintf "%s/%dFU" name fu in
  Alcotest.(check bool)
    (ctx ^ " verdict rendered") true
    (List.exists (contains out)
       [ "DEP-BOUND"; "RESOURCE-BOUND"; "SCHEDULER-BOUND" ]);
  Alcotest.(check bool)
    (ctx ^ " chain rendered") true
    (contains out "critical chain:")

let rendered_cases =
  List.map
    (fun (name, fu) ->
      Alcotest.test_case
        (Printf.sprintf "%s %dFU" name fu)
        `Quick
        (fun () -> check_rendered name fu))
    [ ("LL1", 2); ("LL1", 8); ("LL7", 2); ("LL7", 8) ]

let () =
  Alcotest.run "explain"
    [
      ( "bottleneck",
        [
          Alcotest.test_case "recurrence bound" `Quick test_recurrence_bound;
          Alcotest.test_case "tightest recurrence wins" `Quick
            test_tightest_recurrence_wins;
          Alcotest.test_case "resource bound" `Quick test_resource_bound;
          Alcotest.test_case "slack boundary" `Quick test_slack_boundary;
          Alcotest.test_case "fuel / non-convergence" `Quick
            test_scheduler_bound_overrides;
          Alcotest.test_case "pressure stats" `Quick test_pressure_stats;
          Alcotest.test_case "report json" `Quick test_report_json;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "abc golden" `Quick test_occupancy_golden;
          Alcotest.test_case "window sums" `Quick test_occupancy_window_sums;
        ] );
      ("rendered", rendered_cases);
    ]
