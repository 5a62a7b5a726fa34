(* Benchmark / experiment harness: regenerates every table and figure
   of the paper's evaluation.

     dune exec bench/main.exe           -- everything, in paper order
     dune exec bench/main.exe table1    -- just Table 1
     ... fig5 fig6 fig8 fig9 fig11 fig13 micro ablation

   [json] writes the Table 1 artifact (each cell with its pinned
   schedule digest), [json-validate FILE] checks one, and [digests]
   checks an artifact against test/schedule_digests.expected, rewrites
   that file (--write) or replays the sweep under faults (--chaos).

   Table 1 prints measured speedups next to the paper's, figures print
   the paper-style iteration/instruction tables, [micro] runs Bechamel
   over the schedulers (the section 3 efficiency claim), and
   [ablation] exercises the design knobs DESIGN.md calls out. *)

module Machine = Vliw_machine.Machine
module Pipeline = Grip.Pipeline
module Speedup = Grip.Speedup
module Convergence = Grip.Convergence
module Livermore = Workloads.Livermore
module Pool = Grip_parallel.Pool
module Supervisor = Grip_parallel.Supervisor

let printf = Format.printf

let section title =
  printf "@.==================================================================@.";
  printf "%s@." title;
  printf "==================================================================@."

(* ---------------------------------------------------------------- *)
(* Table 1                                                           *)
(* ---------------------------------------------------------------- *)

let fus = [ 2; 4; 8 ]

(* The Table 1 grid's techniques, tagged as the artifact and
   test/schedule_digests.expected name them.  The paper's table
   compares GRiP with POST; no-gap completes the pinned-digest grid. *)
let techniques =
  [ (Pipeline.Grip, "grip"); (Pipeline.Grip_no_gap, "no-gap"); (Pipeline.Post, "post") ]

type cell = { speedup : float; converged : bool; ok : bool }

let run_cell (e : Livermore.entry) method_ fu =
  let machine = Machine.homogeneous fu in
  let o = Pipeline.run e.Livermore.kernel ~machine ~method_ in
  let m = Pipeline.measure ~data:e.Livermore.data o in
  let ok =
    match Pipeline.check ~data:e.Livermore.data o with
    | Ok _ -> true
    | Error _ -> false
  in
  { speedup = m.Speedup.speedup; converged = o.Pipeline.pattern <> None; ok }

(* Every (loop, technique, width) cell builds its own [Program.t], so
   cells are embarrassingly parallel: fan them across the pool — under
   the supervisor, so a crashing or stalling cell is retried rather
   than tearing down the whole sweep — then render strictly in input
   order: stdout is byte-identical whatever [--jobs] is (worker
   progress goes to stderr and may interleave).  Returns the cells and
   the supervisor's resilience stats (all zeros on a healthy run). *)
let table1_cells ?config ~methods ~pool ~tag ~cell () =
  let tasks =
    List.concat_map
      (fun (e : Livermore.entry) ->
        List.concat_map (fun fu -> List.map (fun m -> (e, m, fu)) methods) fus)
      Livermore.all
  in
  let results, rstats =
    Supervisor.supervise_or_raise ?config pool
      ~f:(fun ~budget:_ ((e : Livermore.entry), m, fu) ->
        Printf.eprintf "[%s] %s %s %dFU...\n%!" tag
          e.Livermore.kernel.Grip.Kernel.name (Pipeline.method_name m) fu;
        cell e m fu)
      tasks
  in
  (Array.of_list results, rstats)

(* cells.(i) layout of [table1_cells]: loop-major, then FU width, then
   technique in [methods] order. *)
let cell_index ~methods ~entry ~fu_i ~m_i =
  (((entry * List.length fus) + fu_i) * List.length methods) + m_i

let table1 ~pool () =
  section "Table 1: observed speed-up (GRiP vs POST, 2/4/8 FUs)";
  printf "%-6s" "Loop";
  List.iter (fun fu -> printf "| %13s " (Printf.sprintf "%d FU's" fu)) fus;
  printf "|   paper GRiP/POST@.";
  printf "%-6s" "";
  List.iter (fun _ -> printf "| %6s %6s " "GRiP" "POST") fus;
  printf "|@.";
  let methods = [ Pipeline.Grip; Pipeline.Post ] in
  let cells, _rstats =
    table1_cells ~methods ~pool ~tag:"table1" ~cell:run_cell ()
  in
  let grip_cols = Array.make 3 [] and post_cols = Array.make 3 [] in
  let seq_w = ref [] in
  List.iteri
    (fun entry (e : Livermore.entry) ->
      let name = e.Livermore.kernel.Grip.Kernel.name in
      printf "%-6s" name;
      List.iteri
        (fun i _fu ->
          let g = cells.(cell_index ~methods ~entry ~fu_i:i ~m_i:0) in
          let p = cells.(cell_index ~methods ~entry ~fu_i:i ~m_i:1) in
          grip_cols.(i) <- g.speedup :: grip_cols.(i);
          post_cols.(i) <- p.speedup :: post_cols.(i);
          let mark c = if not c.ok then "!" else if not c.converged then "~" else " " in
          printf "| %5.1f%s %5.1f%s " g.speedup (mark g) p.speedup (mark p))
        fus;
      let g2, g4, g8 = e.Livermore.paper_grip
      and p2, p4, p8 = e.Livermore.paper_post in
      printf "|  %.1f/%.1f %.1f/%.1f %.1f/%.1f@." g2 p2 g4 p4 g8 p8;
      seq_w := Grip.Kernel.ops_per_iteration e.Livermore.kernel :: !seq_w)
    Livermore.all;
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let whm weights l =
    let sw = List.fold_left ( +. ) 0.0 weights in
    let s = List.fold_left2 (fun acc w x -> acc +. (w /. x)) 0.0 weights l in
    sw /. s
  in
  let weights = List.map float_of_int (List.rev !seq_w) in
  printf "%-6s" "Mean";
  List.iteri
    (fun i _ ->
      printf "| %5.1f  %5.1f  "
        (mean (List.rev grip_cols.(i)))
        (mean (List.rev post_cols.(i))))
    fus;
  printf "|  2.0/2.0 3.9/3.4 6.6/5.5@.";
  printf "%-6s" "WHM";
  List.iteri
    (fun i _ ->
      printf "| %5.1f  %5.1f  "
        (whm weights (List.rev grip_cols.(i)))
        (whm weights (List.rev post_cols.(i))))
    fus;
  printf "|  2.0/1.9 3.9/3.3 5.6/4.8@.";
  printf "@.(~ marks a non-convergent schedule, measured by total execution;@.";
  printf " ! would mark an oracle failure — none expected.)@."

(* ---------------------------------------------------------------- *)
(* Figures 5 and 6: the A,B,C loop                                   *)
(* ---------------------------------------------------------------- *)

let fig5_6 () =
  section "Figure 5: overlapping loop iterations (a,b,c with recurrent a)";
  let e = Workloads.Paper_examples.abc in
  let o =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip ~horizon:4
  in
  printf "%s@." (Grip.Schedule_table.render ~jump_pos:3 o.Pipeline.program);
  printf "(paper: a_i, b_(i-1), c_(i-2) share a row — the same diagonal)@.";

  section "Figure 6: simple pipelining vs Perfect Pipelining";
  (* simple pipelining: compact 4 unwound iterations and keep the back
     edge: the whole block repeats, so pipeline fill/drain is paid on
     every pass *)
  let body_rows prog =
    List.length
      (List.filter
         (fun (r : Grip.Schedule_table.row) -> r.Grip.Schedule_table.cells <> [])
         (Grip.Schedule_table.rows prog))
  in
  let body_ops = 3.0 in
  let o4 =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip ~horizon:4
  in
  let simple_rows = body_rows o4.Pipeline.program in
  let simple = body_ops /. (float_of_int simple_rows /. 4.0) in
  let o_perfect =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip ~horizon:12
  in
  let perfect =
    match o_perfect.Pipeline.static_cpi with
    | Some cpi -> body_ops /. cpi
    | None -> nan
  in
  printf
    "simple pipelining (4 unwound iterations, %d rows): speedup = %.1f (paper: 2)@."
    simple_rows simple;
  printf "Perfect Pipelining (converged): speedup = %.1f (paper: 3)@." perfect;
  match o_perfect.Pipeline.pattern with
  | Some p ->
      printf "converged pattern: rows %d..%d repeat, %d iteration(s) per period@."
        (p.Convergence.start + 1)
        (p.Convergence.start + p.Convergence.period)
        p.Convergence.delta
  | None -> printf "no convergence (unexpected)@."

(* ---------------------------------------------------------------- *)
(* Figures 8 and 11: scheduling traces with their sets               *)
(* ---------------------------------------------------------------- *)

let letter_of (op : Vliw_ir.Operation.t) =
  let pos = op.Vliw_ir.Operation.src_pos in
  if pos < 0 then "pre"
  else
    let base =
      if pos < 7 then String.make 1 (Char.chr (Char.code 'a' + pos))
      else if pos = 7 then "j"
      else "?"
    in
    Printf.sprintf "%s%d" base op.Vliw_ir.Operation.iter

let pp_ops ops =
  "{"
  ^ String.concat ","
      (List.map letter_of (Grip.Rank.sort Grip.Rank.source_order ops))
  ^ "}"

let fig8 () =
  section "Figure 8: scheduling with the Unifiable-ops technique (trace)";
  let e = Workloads.Paper_examples.abcdefg in
  let u = Grip.Unwind.build e ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let ctx =
    Vliw_percolation.Ctx.make p ~machine:Machine.unlimited
      ~exit_live:(Grip.Kernel.exit_live e)
  in
  let ddg = Pipeline.ddg_of e in
  let config =
    Grip.Unifiable.default_config ~rank:Grip.Rank.source_order ~ddg ~horizon:3
  in
  let steps = ref 0 in
  let on_sched ~op ~node =
    incr steps;
    if !steps <= 10 then
      printf "move %2d: %-3s -> n%-3d  Unifiable(n%d) = %s@." !steps
        (letter_of op) node node
        (pp_ops (Grip.Unifiable.set ctx ~ddg ~horizon:3 node))
  in
  let stats = Grip.Unifiable.run ~on_sched config ctx in
  printf "(%d moves total)@." stats.Grip.Unifiable.reached;
  printf "stats: %a@." Grip.Unifiable.pp_stats stats;
  printf "final schedule:@.%s@." (Grip.Schedule_table.render ~jump_pos:7 p)

let fig11 () =
  section "Figure 11: GRiP scheduling (trace with Moveable-ops sets)";
  let e = Workloads.Paper_examples.abcdefg in
  let u = Grip.Unwind.build e ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let ctx =
    Vliw_percolation.Ctx.make p ~machine:Machine.unlimited
      ~exit_live:(Grip.Kernel.exit_live e)
  in
  let config =
    {
      (Grip.Scheduler.default_config ~rank:Grip.Rank.source_order) with
      Grip.Scheduler.gap_prevention = true;
    }
  in
  let steps = ref 0 in
  let on_move ~op ~outcome =
    incr steps;
    if !steps <= 10 then begin
      let dom = Vliw_percolation.Ctx.dominators ctx in
      let target =
        match Vliw_ir.Program.home p outcome.Vliw_percolation.Migrate.final_id with
        | Some h -> h
        | None -> -1
      in
      printf "move %2d: %-3s (%d hop%s) now in n%-3d  Moveable(n%d) = %s@." !steps
        (letter_of op) outcome.Vliw_percolation.Migrate.moved
        (if outcome.Vliw_percolation.Migrate.moved = 1 then "" else "s")
        target target
        (if target >= 0 then pp_ops (Grip.Scheduler.moveable_ops p dom target)
         else "-")
    end
  in
  let stats = Grip.Scheduler.run ~on_move config ctx in
  printf "(%d migrations total)@." stats.Grip.Scheduler.migrations;
  printf "stats: %a@." Grip.Scheduler.pp_stats stats;
  printf "final schedule:@.%s@." (Grip.Schedule_table.render ~jump_pos:7 p)

(* ---------------------------------------------------------------- *)
(* Figures 9 and 13: gaps vs gapless convergence                     *)
(* ---------------------------------------------------------------- *)

let fig9_13 () =
  let e = Workloads.Paper_examples.abcdefg in
  section "Figure 9: pipelined schedule WITHOUT gap prevention";
  let o9 =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip_no_gap
      ~horizon:10
  in
  printf "%s@." (Grip.Schedule_table.render ~jump_pos:7 o9.Pipeline.program);
  (match o9.Pipeline.pattern with
  | None ->
      printf
        "no repeating window: same-iteration operations spread further@.\
         apart every iteration, so Perfect Pipelining does not converge@.\
         (the paper's growing gaps).@."
  | Some p ->
      printf "unexpectedly converged: period %d delta %d@." p.Convergence.period
        p.Convergence.delta);

  section "Figure 13: final gapless schedule (GRiP with Gapless-moves)";
  let o13 =
    Pipeline.run e ~machine:Machine.unlimited ~method_:Pipeline.Grip ~horizon:10
  in
  printf "%s@." (Grip.Schedule_table.render ~jump_pos:7 o13.Pipeline.program);
  (match o13.Pipeline.pattern with
  | Some p ->
      printf
        "converged: rows %d..%d become the new loop body (%d rows /@.\
         %d iteration(s), %.2f cycles per iteration) — the paper's@.\
         'making nodes 4 and 5 the new loop body'.@."
        (p.Convergence.start + 1)
        (p.Convergence.start + p.Convergence.period)
        p.Convergence.period p.Convergence.delta
        (Convergence.cycles_per_iteration p)
  | None -> printf "no convergence (unexpected)@.");
  let m13 = Pipeline.measure o13 in
  printf "gapless steady state: %.2f cycles per iteration (oracle %s)@."
    m13.Speedup.sched_per_iter
    (match Pipeline.check o13 with Ok _ -> "OK" | Error _ -> "FAILED")

(* ---------------------------------------------------------------- *)
(* Micro: scheduler cost (Bechamel)                                  *)
(* ---------------------------------------------------------------- *)

let scheduler_cost_once method_ =
  let e = Workloads.Paper_examples.abcdefg in
  let o = Pipeline.run e ~machine:(Machine.homogeneous 4) ~method_ ~horizon:8 in
  ignore o.Pipeline.program

let micro () =
  section "Micro: scheduling cost, GRiP vs Unifiable-ops vs POST (Bechamel)";
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"scheduler"
      [
        Test.make ~name:"grip"
          (Staged.stage (fun () -> scheduler_cost_once Pipeline.Grip));
        Test.make ~name:"unifiable"
          (Staged.stage (fun () -> scheduler_cost_once Pipeline.Unifiable));
        Test.make ~name:"post"
          (Staged.stage (fun () -> scheduler_cost_once Pipeline.Post));
      ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let v = Hashtbl.find results name in
      let est =
        match Analyze.OLS.estimates v with Some (x :: _) -> x | _ -> nan
      in
      printf "%-28s %12.3f ms/run@." name (est /. 1e6))
    (List.sort String.compare names);
  (* direct wall-clock on a Livermore kernel for scale *)
  let e = Option.get (Livermore.find "LL1") in
  List.iter
    (fun (m, name) ->
      let o =
        Pipeline.run e.Livermore.kernel ~machine:(Machine.homogeneous 4)
          ~method_:m ~horizon:12
      in
      printf "LL1/4FU/horizon-12 %-12s %.3f s@." name o.Pipeline.wall_seconds)
    [
      (Pipeline.Grip, "GRiP");
      (Pipeline.Unifiable, "Unifiable");
      (Pipeline.Post, "POST");
    ]

(* ---------------------------------------------------------------- *)
(* Locality comparison: list / modulo / GRiP (section 1)             *)
(* ---------------------------------------------------------------- *)

let locality () =
  section
    "Locality of view: list scheduling (1 iter) vs modulo scheduling vs GRiP";
  printf "%-6s %8s %18s %10s   (speedups at 4 FUs)@." "Loop" "list" "modulo (II)" "GRiP";
  List.iter
    (fun (e : Livermore.entry) ->
      let kern = e.Livermore.kernel in
      let machine = Machine.homogeneous 4 in
      let ls = Grip.List_scheduler.schedule kern ~machine in
      let mo = Grip.Modulo.schedule kern ~machine in
      let o = Pipeline.run kern ~machine ~method_:Pipeline.Grip in
      let m = Pipeline.measure ~data:e.Livermore.data o in
      printf "%-6s %8.2f %11.2f (II=%d) %10.2f@." kern.Grip.Kernel.name
        (Grip.List_scheduler.speedup kern ls)
        (Grip.Modulo.speedup kern mo)
        mo.Grip.Modulo.ii m.Speedup.speedup)
    Livermore.all;
  printf
    "@.List scheduling never overlaps iterations; modulo scheduling@.\
     overlaps but keeps a one-iteration view (no renaming, no motion@.\
     across the exit test, conservative memory); GRiP fills globally.@."

(* ---------------------------------------------------------------- *)
(* Ablations                                                         *)
(* ---------------------------------------------------------------- *)

let ablation ~pool () =
  section "Ablation: gap prevention, copy cost, typed units, redundancy";
  let e = Option.get (Livermore.find "LL1") in
  let kern = e.Livermore.kernel in
  let data = e.Livermore.data in
  let m8 = Machine.homogeneous 8 in
  (* every knob configuration is an independent scheduling run: fan
     them across the pool and print in input order *)
  let configs : (string * (unit -> Pipeline.outcome)) list =
    [
      ( "LL1/8FU gap prevention ON",
        fun () -> Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip );
      ( "LL1/8FU gap prevention OFF",
        fun () -> Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip_no_gap );
      ( "LL1/8FU free copies",
        fun () ->
          Pipeline.run kern
            ~machine:(Machine.homogeneous ~copies_free:true 8)
            ~method_:Pipeline.Grip );
      ( "LL1/8FU typed 5 ALU + 2 MEM + 1 BR",
        fun () ->
          Pipeline.run kern
            ~machine:(Machine.typed ~alu:5 ~mem:2 ~branch:1 ())
            ~method_:Pipeline.Grip );
      ( "LL1/8FU no redundancy removal",
        fun () ->
          Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip
            ~redundancy:false );
      ( "LL1/8FU source-order rank",
        fun () ->
          Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip
            ~rank:Grip.Rank.source_order );
      ( "LL1/8FU resource-aware speculation 0.75",
        fun () ->
          Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip
            ~speculation:(Grip.Scheduler.Resource_aware 0.75) );
      ( "LL1/8FU resource-aware speculation 0.25",
        fun () ->
          Pipeline.run kern ~machine:m8 ~method_:Pipeline.Grip
            ~speculation:(Grip.Scheduler.Resource_aware 0.25) );
    ]
  in
  let shown =
    Pool.map_ordered pool
      ~f:(fun (name, run) ->
        let o = run () in
        (name, Pipeline.measure ~data o, o.Pipeline.static_cpi,
         o.Pipeline.pattern <> None))
      configs
  in
  List.iter
    (fun (name, m, cpi, converged) ->
      printf "%-38s speedup=%5.2f cpi=%-6s converged=%B@." name
        m.Speedup.speedup
        (match cpi with Some c -> Printf.sprintf "%.2f" c | None -> "-")
        converged)
    shown;
  (* resource barriers measured across the Livermore set *)
  printf "@.resource-barrier events during GRiP scheduling (section 3.2):@.";
  let barrier_stats =
    Pool.map_ordered pool
      ~f:(fun (e : Livermore.entry) ->
        let kern = e.Livermore.kernel in
        let u = Grip.Unwind.build kern ~horizon:12 in
        let p = u.Grip.Unwind.program in
        ignore
          (Vliw_percolation.Redundant.cleanup p
             ~exit_live:(Grip.Kernel.exit_live kern));
        let ctx =
          Vliw_percolation.Ctx.make p ~machine:(Machine.homogeneous 4)
            ~exit_live:(Grip.Kernel.exit_live kern)
        in
        let st =
          Grip.Scheduler.run
            {
              (Grip.Scheduler.default_config ~rank:(Pipeline.default_rank kern)) with
              Grip.Scheduler.gap_prevention = true;
            }
            ctx
        in
        (kern.Grip.Kernel.name, st))
      Livermore.all
  in
  List.iter
    (fun (name, (st : Grip.Scheduler.stats)) ->
      printf "  %-5s barriers=%d suspensions=%d hops=%d@." name
        st.Grip.Scheduler.resource_barrier_events st.Grip.Scheduler.suspensions
        st.Grip.Scheduler.hops)
    barrier_stats

(* ---------------------------------------------------------------- *)
(* Machine-readable Table 1 artifact                                 *)
(* ---------------------------------------------------------------- *)

module Json = Grip_obs.Json
module Obs = Grip_obs

let table1_schema = "grip.bench.table1/9"

(* The pinned schedule digest of test/schedule_digests.expected: the
   full rendered program (every node, op, guard, register and
   conditional tree) plus the static CPI and the convergence verdict,
   so any behavioural drift in the scheduling core changes it. *)
let schedule_digest (o : Pipeline.outcome) =
  let rendered =
    Format.asprintf "%a@.cpi=%s converged=%b@." Vliw_ir.Program.pp
      o.Pipeline.program
      (match o.Pipeline.static_cpi with
      | Some c -> Printf.sprintf "%.4f" c
      | None -> "-")
      (o.Pipeline.pattern <> None)
  in
  Digest.to_hex (Digest.string rendered)

(* One (loop, technique, width) measurement with its pinned digest,
   scheduler stats, per-phase wall-clock breakdown and bottleneck
   verdict — the machine-readable face of a Table 1 cell.  Each cell
   runs with its own provenance recorder so the bottleneck block's
   totals are the journal-derived ones (equal to the Metrics counters
   by the replay invariant). *)
let json_cell (e : Livermore.entry) method_ fu horizon =
  let machine = Machine.homogeneous fu in
  let prov = Obs.Provenance.create () in
  (* metrics on: the legality block below reads the move-legality and
     graph-maintenance counters the percolation core records *)
  let metrics = Obs.Metrics.create () in
  let obs = Obs.make ~prov ~metrics () in
  (* whole-cell GC deltas: a cell runs entirely on one domain, so the
     domain-local [Gc] counters delimit exactly this cell's work *)
  let a0 = Gc.allocated_bytes () in
  let q0 = Gc.quick_stat () in
  let o = Pipeline.run ~obs e.Livermore.kernel ~machine ~method_ ?horizon in
  let m = Pipeline.measure ~data:e.Livermore.data o in
  let ok =
    match Pipeline.check ~data:e.Livermore.data o with
    | Ok _ -> true
    | Error _ -> false
  in
  let a1 = Gc.allocated_bytes () in
  let q1 = Gc.quick_stat () in
  let bytes_per_word = float_of_int (Sys.word_size / 8) in
  let gc =
    Json.Obj
      [
        ("alloc_bytes", Json.Num (a1 -. a0));
        ( "minor_collections",
          Json.int (q1.Gc.minor_collections - q0.Gc.minor_collections) );
        ( "major_collections",
          Json.int (q1.Gc.major_collections - q0.Gc.major_collections) );
        ( "promoted_bytes",
          Json.Num ((q1.Gc.promoted_words -. q0.Gc.promoted_words)
                    *. bytes_per_word) );
      ]
  in
  let legality =
    let c name = Obs.Metrics.counter metrics name in
    let hits = c "legality.cache_hits" and misses = c "legality.cache_misses" in
    let rate =
      if hits + misses = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + misses)
    in
    Json.Obj
      [
        ("check_seconds", Json.Num (Obs.Metrics.time metrics "legality.check"));
        ("cache_hits", Json.int hits);
        ("cache_misses", Json.int misses);
        ("cache_hit_rate", Json.Num rate);
        ("index_hits", Json.int (c "ir.index_reuses"));
        ("index_misses", Json.int (c "ir.index_builds"));
        ("gc_deferred", Json.int (c "ir.gc_deferred"));
        ("gc_runs", Json.int (c "ir.gc_runs"));
        ("gc_reclaimed", Json.int (c "ir.gc_reclaimed"));
      ]
  in
  Json.Obj
    [
      ("digest", Json.Str (schedule_digest o));
      ("speedup", Json.Num m.Speedup.speedup);
      ("cycles_per_iter", Json.Num m.Speedup.sched_per_iter);
      ("seq_cycles_per_iter", Json.Num m.Speedup.seq_per_iter);
      ("steady_state", Json.Bool m.Speedup.steady);
      ("converged", Json.Bool (o.Pipeline.pattern <> None));
      ("oracle_ok", Json.Bool ok);
      ("stats", Pipeline.stats_json o.Pipeline.stats);
      ("phase_seconds", Pipeline.phase_seconds_json o.Pipeline.phase_seconds);
      ("legality", legality);
      ("gc", gc);
      ( "bottleneck",
        Obs.Bottleneck.to_json (Grip.Explain.report ~prov o) );
    ]

(* The whole Table 1 artifact, from one sweep of the grid ([config]
   injects supervisor faults); also returns the resilience stats. *)
let table1_doc ?config ~pool ~jobs ~horizon () =
  let t_start = Unix.gettimeofday () in
  (* each cell carries its own wall seconds so the harness block can
     report work time (cell_seconds) next to elapsed time
     (wall_seconds): their ratio is the measured parallel speedup *)
  let methods = List.map fst techniques in
  let cells, rstats =
    table1_cells ?config ~methods ~pool ~tag:"json"
      ~cell:(fun e m fu ->
        let t0 = Unix.gettimeofday () in
        let j = json_cell e m fu horizon in
        (j, Unix.gettimeofday () -. t0))
      ()
  in
  let loops =
    List.mapi
      (fun entry (e : Livermore.entry) ->
        let name = e.Livermore.kernel.Grip.Kernel.name in
        let per_fu =
          List.mapi
            (fun fu_i fu ->
              ( Printf.sprintf "fu%d" fu,
                Json.Obj
                  (List.mapi
                     (fun m_i (_, tag) ->
                       (tag, fst cells.(cell_index ~methods ~entry ~fu_i ~m_i)))
                     techniques) ))
            fus
        in
        let g2, g4, g8 = e.Livermore.paper_grip
        and p2, p4, p8 = e.Livermore.paper_post in
        Json.Obj
          ([
             ("name", Json.Str name);
             ( "ops_per_iteration",
               Json.int (Grip.Kernel.ops_per_iteration e.Livermore.kernel) );
             ( "paper",
               Json.Obj
                 [
                   ("grip", Json.List [ Json.Num g2; Json.Num g4; Json.Num g8 ]);
                   ("post", Json.List [ Json.Num p2; Json.Num p4; Json.Num p8 ]);
                 ] );
           ]
          @ per_fu))
      Livermore.all
  in
  let wall_seconds = Unix.gettimeofday () -. t_start in
  let cell_seconds =
    Array.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 cells
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str table1_schema);
        ("fus", Json.List (List.map Json.int fus));
        ( "horizon",
          match horizon with Some h -> Json.int h | None -> Json.Null );
        ( "harness",
          Json.Obj
            [
              ("jobs", Json.int jobs);
              ("wall_seconds", Json.Num wall_seconds);
              ("cell_seconds", Json.Num cell_seconds);
              ( "resilience",
                Json.Obj
                  [
                    ("retries", Json.int rstats.Supervisor.retries);
                    ("sheds", Json.int rstats.Supervisor.sheds);
                    ("quarantined", Json.int rstats.Supervisor.quarantined);
                    ( "worker_restarts",
                      Json.int rstats.Supervisor.worker_restarts );
                    ( "gap_violations",
                      Json.int rstats.Supervisor.gap_violations );
                    ( "max_worker_gap_ms",
                      Json.Num (rstats.Supervisor.max_gap *. 1e3) );
                  ] );
            ] );
        ("loops", Json.List loops);
      ]
  in
  (doc, rstats)

let or_exit = function
  | Ok x -> x
  | Error e ->
      prerr_endline e;
      exit 1

let read_file file =
  try Ok (In_channel.with_open_bin file In_channel.input_all)
  with Sys_error e -> Error e

(* An artifact's parsed document, or why it has none (naming [file]). *)
let read_artifact file =
  Result.bind (read_file file) (fun s ->
      Result.map_error (Printf.sprintf "%s: invalid JSON: %s" file) (Json.parse s))

(* Structural check of a Table 1 artifact: schema tag, harness block,
   one entry per Livermore loop, and for every FU configuration a cell
   per technique carrying its pinned digest, speedup, stats and
   legality/gc/bottleneck blocks.  GRiP cells must also carry sane
   bounds and a critical chain.  Exits non-zero on the first defect. *)
let json_validate file =
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "%s: %s@." file msg;
        exit 1)
      fmt
  in
  let doc = or_exit (read_artifact file) in
  let block where name parent =
    match Json.member name parent with
    | Some (Json.Obj _ as b) -> b
    | _ -> fail "%s: missing %s block" where name
  in
  let require_nums where b fields =
    List.iter
      (fun field ->
        if Option.bind (Json.member field b) Json.to_float = None then
          fail "%s: missing numeric %s" where field)
      fields
  in
  (match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some s when s = table1_schema -> ()
  | Some s -> fail "unexpected schema %S (want %S)" s table1_schema
  | None -> fail "missing schema tag");
  let h = block "artifact" "harness" doc in
  require_nums "harness" h [ "jobs"; "wall_seconds"; "cell_seconds" ];
  require_nums "harness.resilience"
    (block "harness" "resilience" h)
    [
      "retries"; "sheds"; "quarantined"; "worker_restarts"; "gap_violations";
      "max_worker_gap_ms";
    ];
  let loops =
    match Option.bind (Json.member "loops" doc) Json.to_list with
    | Some l -> l
    | None -> fail "missing loops array"
  in
  let expected = List.length Livermore.all in
  if List.length loops <> expected then
    fail "expected %d loops, found %d" expected (List.length loops);
  let check_cell where tech c =
    (match Option.bind (Json.member "digest" c) Json.to_str with
    | Some d
      when String.length d = 32
           && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) d
      -> ()
    | _ -> fail "%s: missing 32-hex digest" where);
    require_nums where c [ "speedup" ];
    ignore (block where "stats" c);
    ignore (block where "phase_seconds" c);
    require_nums (where ^ " legality")
      (block where "legality" c)
      [
        "check_seconds"; "cache_hits"; "cache_misses"; "cache_hit_rate";
        "index_hits"; "index_misses"; "gc_deferred"; "gc_runs"; "gc_reclaimed";
      ];
    require_nums (where ^ " gc")
      (block where "gc" c)
      [ "alloc_bytes"; "minor_collections"; "major_collections"; "promoted_bytes" ];
    let b = block where "bottleneck" c in
    (match Option.bind (Json.member "verdict" b) Json.to_str with
    | Some ("dep_bound" | "resource_bound" | "scheduler_bound") -> ()
    | Some v -> fail "%s: unknown verdict %S" where v
    | None -> fail "%s: bottleneck without verdict" where);
    require_nums (where ^ " bottleneck") b
      [ "rec_mii"; "res_mii"; "suspensions"; "barriers" ];
    if tech = "grip" then
      Option.iter (fail "%s: %s" where) (Obs.Bottleneck.bounds_defect b)
  in
  List.iter
    (fun loop ->
      let name =
        match Option.bind (Json.member "name" loop) Json.to_str with
        | Some n -> n
        | None -> fail "loop entry without a name"
      in
      List.iter
        (fun fu ->
          let fu_cells = block name (Printf.sprintf "fu%d" fu) loop in
          List.iter
            (fun (_, tech) ->
              let where = Printf.sprintf "%s/fu%d/%s" name fu tech in
              match Json.member tech fu_cells with
              | Some c -> check_cell where tech c
              | None -> fail "%s: missing cell" where)
            techniques)
        fus)
    loops;
  Format.printf "%s: OK (%d loops x %d FU configs x %d techniques)@." file
    expected (List.length fus) (List.length techniques)

(* ---------------------------------------------------------------- *)
(* Pinned schedule digests                                           *)
(* ---------------------------------------------------------------- *)

(* The (cell, digest) pairs an artifact records, in artifact order;
   a cell is named as in the pinned file: "LL1 grip fu2". *)
let artifact_digests doc =
  let ( let* ) = Option.bind in
  List.concat_map
    (fun loop ->
      let name =
        Option.value ~default:"?" (Option.bind (Json.member "name" loop) Json.to_str)
      in
      List.concat_map
        (fun fu ->
          List.filter_map
            (fun (_, tag) ->
              let* cells = Json.member (Printf.sprintf "fu%d" fu) loop in
              let* c = Json.member tag cells in
              let* d = Option.bind (Json.member "digest" c) Json.to_str in
              Some (Printf.sprintf "%s %s fu%d" name tag fu, d))
            techniques)
        fus)
    (Option.value ~default:[] (Option.bind (Json.member "loops" doc) Json.to_list))

(* Compare (cell, digest) pairs with a pinned file: every pinned line
   needs a cell with its digest, and every cell needs a pinned line.
   Each defect names its cell; any defect exits 1. *)
let check_digests ~tag ~pinned_file actual =
  let pinned =
    or_exit (read_file pinned_file)
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           Option.map
             (fun i ->
               ( String.sub line 0 i,
                 String.sub line (i + 1) (String.length line - i - 1) ))
             (String.rindex_opt line ' '))
  in
  let defects =
    List.filter_map
      (fun (key, want) ->
        match List.assoc_opt key actual with
        | None -> Some (key ^ ": no cell")
        | Some got when got <> want ->
            Some (Printf.sprintf "%s: digest %s, pinned %s" key got want)
        | Some _ -> None)
      pinned
    @ List.filter_map
        (fun (key, _) ->
          if List.mem_assoc key pinned then None
          else Some (Printf.sprintf "%s: no line in %s" key pinned_file))
        actual
  in
  if defects <> [] then begin
    List.iter (Printf.eprintf "schedule digest mismatch: %s\n") defects;
    exit 1
  end;
  Printf.printf "%s: %d cells byte-identical\n%!" tag (List.length actual)

(* The chaos acceptance check: the sweep runs once per fault kind
   through the supervised pool with deterministic crash and stall
   faults injected (a quarantined cell raises), and each pass must
   reproduce the pinned fault-free digests byte-identically. *)
let chaos_digests ~pool ~jobs pinned_file =
  let module Fault = Grip_robust.Fault in
  List.iter
    (fun fault ->
      let tag = Printf.sprintf "chaos sweep (%s)" (Fault.pool_fault_name fault) in
      let config =
        {
          Supervisor.default_config with
          Supervisor.fault = Some (Fault.pool_plan ~every:4 fault);
          Supervisor.backoff = 0.0;
        }
      in
      let doc, st = table1_doc ~config ~pool ~jobs ~horizon:None () in
      Printf.eprintf "%s: %d retries, %d restarts\n%!" tag
        st.Supervisor.retries st.Supervisor.worker_restarts;
      check_digests ~tag ~pinned_file (artifact_digests doc))
    [ Fault.Crash; Fault.Stall 0.02 ]

(* ---------------------------------------------------------------- *)

let all ~pool () =
  table1 ~pool ();
  fig5_6 ();
  fig8 ();
  fig9_13 ();
  fig11 ();
  micro ();
  locality ();
  ablation ~pool ()

(* [json] option parsing: --out FILE (default BENCH_table1.json) and
   --horizon N (cap the unwinding so smoke runs stay cheap). *)
let rec parse_json_opts ~out ~horizon = function
  | [] -> (out, horizon)
  | "--out" :: f :: rest -> parse_json_opts ~out:f ~horizon rest
  | "--horizon" :: h :: rest ->
      let h =
        match int_of_string_opt h with
        | Some h when h > 0 -> h
        | _ ->
            Format.eprintf "json: --horizon expects a positive integer@.";
            exit 2
      in
      parse_json_opts ~out ~horizon:(Some h) rest
  | other :: _ ->
      Format.eprintf "json: unknown option %S@." other;
      exit 2

(* [--jobs N] is global: strip it from argv wherever it appears.
   Default: one domain per recommended core. *)
let rec extract_jobs acc jobs = function
  | [] -> (List.rev acc, jobs)
  | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> extract_jobs acc (Some j) rest
      | _ ->
          Format.eprintf "--jobs expects a positive integer@.";
          exit 2)
  | [ "--jobs" ] ->
      Format.eprintf "--jobs expects a positive integer@.";
      exit 2
  | arg :: rest -> extract_jobs (arg :: acc) jobs rest

let () =
  let args, jobs_opt = extract_jobs [] None (List.tl (Array.to_list Sys.argv)) in
  let jobs =
    match jobs_opt with
    | Some j -> j
    | None -> Domain.recommended_domain_count ()
  in
  match args with
  | "json" :: rest ->
      let out, horizon =
        parse_json_opts ~out:"BENCH_table1.json" ~horizon:None rest
      in
      Pool.with_pool ~jobs (fun pool ->
          let doc, _ = table1_doc ~pool ~jobs ~horizon () in
          Out_channel.with_open_text out (fun oc ->
              output_string oc (Json.to_string ~pretty:true doc ^ "\n"));
          Format.eprintf "[json] wrote %s@." out)
  | "json-validate" :: file :: _ -> json_validate file
  | "json-validate" :: [] ->
      Format.eprintf "json-validate: expected a file argument@.";
      exit 2
  | [ "digests"; "--write"; file ] ->
      Pool.with_pool ~jobs (fun pool ->
          let doc, _ = table1_doc ~pool ~jobs ~horizon:None () in
          Out_channel.with_open_text file (fun oc ->
              List.iter
                (fun (cell, d) -> Printf.fprintf oc "%s %s\n" cell d)
                (artifact_digests doc)))
  | [ "digests"; "--chaos"; pinned_file ] ->
      Pool.with_pool ~jobs (fun pool -> chaos_digests ~pool ~jobs pinned_file)
  | [ "digests"; artifact; pinned_file ] ->
      check_digests ~tag:"schedule digests" ~pinned_file
        (artifact_digests (or_exit (read_artifact artifact)))
  | "digests" :: _ ->
      Format.eprintf
        "usage: digests (ARTIFACT PINNED | --write PINNED | --chaos PINNED)@.";
      exit 2
  | argv ->
      let sections = match argv with [] -> [ "all" ] | rest -> rest in
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun job ->
              match job with
              | "all" -> all ~pool ()
              | "table1" -> table1 ~pool ()
              | "fig5" | "fig6" -> fig5_6 ()
              | "fig8" -> fig8 ()
              | "fig9" | "fig13" -> fig9_13 ()
              | "fig11" -> fig11 ()
              | "micro" -> micro ()
              | "locality" -> locality ()
              | "ablation" -> ablation ~pool ()
              | other -> Format.eprintf "unknown job %S@." other)
            sections)
