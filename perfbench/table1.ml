(* The table1 workload: the paper's grid, 14 Livermore kernels x
   {2,4,8} FUs x {GRiP, POST} = 84 cells, each run -> measure -> check
   through the supervised pool at --jobs domains, in whole sweeps for
   the measured time.  Inputs are the paper's, so the seed is unused.
   Every cell must hash to its pinned line of
   test/schedule_digests.expected and pass the simulator oracle.

   The traced variant composes each cell from the same phase functions
   [Pipeline.run] calls, in the same order, with a span around each
   call; the pinned digests prove it is the same program. *)

module Machine = Vliw_machine.Machine
module Pipeline = Grip.Pipeline
module Scheduler = Grip.Scheduler
module Livermore = Workloads.Livermore
module Metrics = Grip_obs.Metrics
module Pool = Grip_parallel.Pool
module Supervisor = Grip_parallel.Supervisor
module Ctx = Vliw_percolation.Ctx
module Program = Vliw_ir.Program

let pinned_file = "test/schedule_digests.expected"

type cell = { entry : Livermore.entry; method_ : Pipeline.method_; fu : int }

(* The pool hands cells out in list order.  Kernels go heaviest first
   (LL7 alone is about a third of the grid's work), so a sweep ends on
   small cells and its wall time does not hinge on which domain picks
   up a late heavy cell. *)
let heaviest_first = [ "LL7"; "LL13"; "LL8"; "LL10"; "LL9"; "LL14"; "LL1" ]

let grid =
  let name (e : Livermore.entry) = e.Livermore.kernel.Grip.Kernel.name in
  let heavy, light =
    List.partition (fun e -> List.mem (name e) heaviest_first) Livermore.all
  in
  let heavy = List.map (fun n -> List.find (fun e -> name e = n) heavy) heaviest_first in
  List.concat_map
    (fun (entry : Livermore.entry) ->
      List.concat_map
        (fun fu ->
          List.map (fun method_ -> { entry; method_; fu }) [ Pipeline.Grip; Pipeline.Post ])
        [ 2; 4; 8 ])
    (heavy @ light)

let cell_name c =
  Printf.sprintf "%s %s fu%d" c.entry.Livermore.kernel.Grip.Kernel.name
    (match c.method_ with Pipeline.Post -> "post" | _ -> "grip")
    c.fu

(* "NAME METHOD fuN" -> digest, from the pinned file. *)
let load_pinned () =
  let tbl = Hashtbl.create 128 in
  In_channel.with_open_text pinned_file (fun ic ->
      Seq.iter
        (fun line ->
          match String.rindex_opt line ' ' with
          | Some i ->
              Hashtbl.replace tbl (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> ())
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  tbl

(* The pinned digest covers the rendered schedule and its convergence
   verdict (test/schedule_digests.ml). *)
let digest program pattern =
  Digest.to_hex
    (Digest.string
       (Format.asprintf "%a@.cpi=%s converged=%b@." Program.pp program
          (match pattern with
          | Some p -> Printf.sprintf "%.4f" (Grip.Convergence.cycles_per_iteration p)
          | None -> "-")
          (pattern <> None)))

(* Per-layer observations of one traced cell; times in seconds. *)
type layers = {
  unwind : float;
  redundancy : float;
  schedule : float;  (** whole span, legality checks included *)
  legality : float;  (** [legality.check] time inside [schedule] *)
  converge : float;
  sim : float;
  schedule_alloc : float;  (** bytes *)
  migrations : int;
  hops : int;
  suspensions : int;
  barriers : int;
  memo_hits : int;
  memo_misses : int;
  unwind_ops : int;
  removed : int;
}

type result = {
  cell : cell;
  t0 : float;  (** start of the cell's run + measure + check *)
  t1 : float;
  cpu : float;  (** CPU seconds of the domain that ran it, same span *)
  alloc : float;  (** bytes allocated by the cell, domain-local *)
  speedup : float;
  oracle_ok : bool;
  fuel_exhausted : bool;
  cell_digest : string;
  layers : layers option;
}

let run_cell c =
  let k = c.entry.Livermore.kernel and data = c.entry.Livermore.data in
  let machine = Machine.homogeneous c.fu in
  let c0 = Stats.cpu () in
  let a0 = Stats.allocated_bytes () in
  let t0 = Stats.now () in
  let o = Pipeline.run k ~machine ~method_:c.method_ in
  let m = Pipeline.measure ~data o in
  let oracle_ok = Result.is_ok (Pipeline.check ~data o) in
  let t1 = Stats.now () in
  let a1 = Stats.allocated_bytes () in
  let cpu = Stats.cpu () -. c0 in
  {
    cell = c;
    t0;
    t1;
    cpu;
    alloc = a1 -. a0;
    speedup = m.Grip.Speedup.speedup;
    oracle_ok;
    fuel_exhausted = o.Pipeline.fuel_exhausted;
    cell_digest = digest o.Pipeline.program o.Pipeline.pattern;
    layers = None;
  }

(* [Pipeline.run] followed by [Pipeline.measure] and [Pipeline.check],
   spelled out phase by phase so each call into a layer gets a span. *)
let traced_cell c =
  let k = c.entry.Livermore.kernel and data = c.entry.Livermore.data in
  let machine = Machine.homogeneous c.fu in
  let metrics = Metrics.create () in
  let obs = Grip_obs.make ~metrics () in
  let unwind = ref 0.0 and redundancy = ref 0.0 and schedule = ref 0.0 in
  let converge = ref 0.0 and sim = ref 0.0 and schedule_alloc = ref 0.0 in
  let span acc ?alloc f =
    let a0 = Stats.allocated_bytes () in
    let t0 = Stats.now () in
    let v = f () in
    acc := !acc +. (Stats.now () -. t0);
    Option.iter (fun r -> r := !r +. (Stats.allocated_bytes () -. a0)) alloc;
    v
  in
  let c0 = Stats.cpu () in
  let a0 = Stats.allocated_bytes () in
  let t0 = Stats.now () in
  let rank = span schedule ~alloc:schedule_alloc (fun () -> Pipeline.default_rank k) in
  let horizon = Pipeline.default_horizon machine in
  let u = span unwind (fun () -> Grip.Unwind.build k ~horizon) in
  let p = u.Grip.Unwind.program in
  let unwind_ops = Program.fold_nodes p (fun n acc -> acc + Vliw_ir.Node.op_count n) 0 in
  let exit_live = Grip.Kernel.exit_live k in
  let l, cp, dead =
    span redundancy (fun () -> Vliw_percolation.Redundant.cleanup p ~exit_live)
  in
  let st =
    span schedule ~alloc:schedule_alloc (fun () ->
        match c.method_ with
        | Pipeline.Post ->
            let unlimited = Ctx.make ~obs p ~machine:Machine.unlimited ~exit_live in
            let real = Ctx.make ~obs p ~machine ~exit_live in
            (Grip.Post.run unlimited real ~rank).Grip.Post.phase1
        | _ ->
            let ctx = Ctx.make ~obs p ~machine ~exit_live in
            let config =
              { (Scheduler.default_config ~rank) with Scheduler.gap_prevention = true }
            in
            Scheduler.run config ctx)
  in
  let pattern =
    span converge (fun () ->
        Grip.Convergence.detect
          ~body_positions:(List.length k.Grip.Kernel.body + 1)
          (Grip.Schedule_table.rows p))
  in
  let n2 = horizon - 2 in
  let n1 = if n2 > 13 then n2 - 12 else max 1 (n2 / 2) in
  let m =
    span sim (fun () ->
        Grip.Speedup.measure ~data ~steady:(pattern <> None) k ~scheduled:p ~n1 ~n2)
  in
  let oracle_ok =
    span sim (fun () -> Result.is_ok (Grip.Speedup.verify ~data k ~scheduled:p ~n:n2))
  in
  let t1 = Stats.now () in
  let a1 = Stats.allocated_bytes () in
  let cpu = Stats.cpu () -. c0 in
  let count = Metrics.counter metrics in
  {
    cell = c;
    t0;
    t1;
    cpu;
    alloc = a1 -. a0;
    speedup = m.Grip.Speedup.speedup;
    oracle_ok;
    fuel_exhausted = st.Scheduler.fuel_exhausted;
    cell_digest = digest p pattern;
    layers =
      Some
        {
          unwind = !unwind;
          redundancy = !redundancy;
          schedule = !schedule;
          legality = Metrics.time metrics "legality.check";
          converge = !converge;
          sim = !sim;
          schedule_alloc = !schedule_alloc;
          migrations = st.Scheduler.migrations;
          hops = st.Scheduler.hops;
          suspensions = st.Scheduler.suspensions;
          barriers = st.Scheduler.resource_barrier_events;
          memo_hits = count "legality.cache_hits";
          memo_misses = count "legality.cache_misses";
          unwind_ops;
          removed = l + cp + dead;
        };
  }

type sweep = { wall : float; results : result list; retries : int }

let sweep pool ~run =
  let started = Stats.now () in
  let results, stats =
    Supervisor.supervise_or_raise pool ~f:(fun ~budget:_ c -> run c) grid
  in
  { wall = Stats.now () -. started; results; retries = stats.Supervisor.retries }

(* Count every cell as one attempted operation; a cell fails on a
   digest mismatch, an oracle mismatch or fuel exhaustion. *)
let check report pinned sw =
  if List.length sw.results <> 84 then
    Report.problem report "sweep produced %d cells, expected 84" (List.length sw.results);
  List.iter
    (fun r ->
      let name = cell_name r.cell in
      let digest_ok = Hashtbl.find_opt pinned name = Some r.cell_digest in
      if not digest_ok then
        Report.problem report "%s: digest %s differs from the pinned one" name r.cell_digest;
      if not r.oracle_ok then Report.problem report "%s: simulator oracle mismatch" name;
      if r.fuel_exhausted then Report.problem report "%s: fuel exhausted" name;
      Report.attempt report ~ok:(digest_ok && r.oracle_ok && not r.fuel_exhausted))
    sw.results

let ms s = s *. 1e3

(* Set-up: read the pinned digests, start the pool and run one cheap
   cell on each domain (first-touch heap growth and lazy
   initialisation), repeated so that the median is reported. *)
let setup ~t_start ~jobs =
  let warm =
    List.find (fun c -> cell_name c = "LL3 grip fu2") grid
  in
  let once t0 =
    let pinned = load_pinned () in
    let pool = Pool.create ~jobs () in
    ignore (Pool.map_ordered pool ~f:run_cell (List.init jobs (fun _ -> warm)));
    (pinned, pool, Stats.now () -. t0)
  in
  let rec go n acc t0 =
    let pinned, pool, dt = once t0 in
    if n <= 1 then (pinned, pool, Stats.median (dt :: acc))
    else begin
      Pool.shutdown pool;
      go (n - 1) (dt :: acc) (Stats.now ())
    end
  in
  go 9 [] t_start

let end_to_end report ~pinned ~sweeps ~peak_rss_mb ~setup_s =
  List.iter (check report pinned) sweeps;
  let results = List.concat_map (fun sw -> sw.results) sweeps in
  let nsweeps = float_of_int (List.length sweeps) in
  let grip, post = List.partition (fun r -> r.cell.method_ <> Pipeline.Post) results in
  let add = Report.add report in
  add "setup_s" ~unit_:"s" setup_s;
  let sweep_s = Stats.median (List.map (fun sw -> sw.wall) sweeps) in
  add "sweep_s" ~unit_:"s" sweep_s;
  let compile = List.map (fun r -> ms r.cpu) results in
  add "compile_ms_p50" ~unit_:"ms" (Stats.percentile compile 0.5);
  add "compile_ms_p88" ~unit_:"ms" (Stats.percentile compile 0.88);
  add "alloc_mb" ~unit_:"MB" (Stats.sum (List.map (fun r -> r.alloc) results) /. nsweeps /. 1e6);
  add "speedup_geomean" ~unit_:"x" (Stats.geomean (List.map (fun r -> r.speedup) grip));
  add "post_speedup_geomean" ~unit_:"x" (Stats.geomean (List.map (fun r -> r.speedup) post));
  add "peak_rss_mb" ~unit_:"MB" peak_rss_mb;
  add "achieved_rps" ~unit_:"1/s" (float_of_int (List.length grid) /. sweep_s)

(* Per-layer totals over one traced sweep. *)
let per_layer report ~jobs ~untraced sw =
  let ls = List.filter_map (fun r -> r.layers) sw.results in
  let total f = Stats.sum (List.map f ls) in
  let itotal f = float_of_int (List.fold_left (fun acc l -> acc + f l) 0 ls) in
  let add = Report.add report in
  let cell_time = Stats.sum (List.map (fun r -> r.t1 -. r.t0) sw.results) in
  let legality = total (fun l -> l.legality) in
  let schedule_self = total (fun l -> l.schedule) -. legality in
  let covered =
    total (fun l -> l.unwind +. l.redundancy +. l.schedule +. l.converge +. l.sim)
  in
  add "schedule.ms" ~unit_:"ms" (ms schedule_self);
  add "schedule.alloc_mb" ~unit_:"MB" (total (fun l -> l.schedule_alloc) /. 1e6);
  let migrations = itotal (fun l -> l.migrations) and hops = itotal (fun l -> l.hops) in
  add "schedule.migrations" ~unit_:"count" migrations;
  add "schedule.hops" ~unit_:"count" hops;
  add "schedule.hop_yield" ~unit_:"ratio" (Stats.ratio hops migrations);
  add "schedule.suspensions" ~unit_:"count" (itotal (fun l -> l.suspensions));
  add "schedule.barriers" ~unit_:"count" (itotal (fun l -> l.barriers));
  add "legality.check_ms" ~unit_:"ms" (ms legality);
  let hits = itotal (fun l -> l.memo_hits) in
  add "legality.memo_hit_rate" ~unit_:"ratio"
    (Stats.ratio hits (hits +. itotal (fun l -> l.memo_misses)));
  add "unwind.ms" ~unit_:"ms" (ms (total (fun l -> l.unwind)));
  add "unwind.ops" ~unit_:"count" (itotal (fun l -> l.unwind_ops));
  add "redundancy.ms" ~unit_:"ms" (ms (total (fun l -> l.redundancy)));
  add "redundancy.removed" ~unit_:"count" (itotal (fun l -> l.removed));
  add "converge.ms" ~unit_:"ms" (ms (total (fun l -> l.converge)));
  add "sim.ms" ~unit_:"ms" (ms (total (fun l -> l.sim)));
  add "pool.busy_frac" ~unit_:"ratio" (cell_time /. (float_of_int jobs *. sw.wall));
  add "pool.retries" ~unit_:"count" (float_of_int sw.retries);
  add "trace.overhead_frac" ~unit_:"ratio" ((sw.wall /. untraced.wall) -. 1.0);
  add "trace.coverage_frac" ~unit_:"ratio" (covered /. cell_time);
  if covered < 0.9 *. cell_time then
    Report.problem report "layer spans cover %.1f%% of traced cell time, under 90%%"
      (100.0 *. covered /. cell_time)

let run ~report ~t_start ~jobs ~seconds ~trace =
  let pinned, pool, setup_s = setup ~t_start ~jobs in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      if trace then begin
        let untraced = sweep pool ~run:run_cell in
        let traced = sweep pool ~run:traced_cell in
        List.iter (check report pinned) [ untraced; traced ];
        per_layer report ~jobs ~untraced traced
      end
      else begin
        let t_end = Stats.now () +. seconds in
        let rec loop acc =
          let sw = sweep pool ~run:run_cell in
          Printf.eprintf "table1: sweep %d took %.3f s\n%!" (List.length acc + 1) sw.wall;
          if Stats.now () < t_end then loop (sw :: acc) else List.rev (sw :: acc)
        in
        let sweeps = loop [] in
        end_to_end report ~pinned ~sweeps ~peak_rss_mb:(Stats.peak_rss_mb 0) ~setup_s
      end)
