(** End-to-end driver: kernel -> unwind -> (redundancy removal) ->
    schedule -> converge -> measure.

    This is the top of the GRiP stack, tying together every piece the
    paper describes: Perfect Pipelining by fixed unwinding, the GRiP or
    baseline scheduler, convergence detection, and simulation-based
    speedup measurement against the rolled sequential loop. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Redundant = Vliw_percolation.Redundant
module Ddg = Vliw_analysis.Ddg
module Grip_error = Grip_robust.Grip_error
module Guard = Grip_robust.Guard
module Budget = Grip_robust.Budget
module Obs = Grip_obs
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics

type method_ =
  | Grip  (** resource-constrained GRiP with gap prevention *)
  | Grip_no_gap  (** ablation: GRiP without the Gapless-move test *)
  | Post  (** unconstrained pipelining + post-pass constraints *)
  | Unifiable  (** the expensive Unifiable-ops baseline *)

let method_name = function
  | Grip -> "GRiP"
  | Grip_no_gap -> "GRiP(no-gap)"
  | Post -> "POST"
  | Unifiable -> "Unifiable"

(** The scheduler-specific statistics of a run, surfaced uniformly so
    drivers (the CLI, the bench JSON artifact) can report whichever
    technique ran — including the Unifiable baseline, whose stats used
    to be discarded. *)
type sched_stats =
  | Grip_stats of Scheduler.stats
  | Post_stats of Post.stats
  | Unifiable_stats of Unifiable.stats

type outcome = {
  program : Program.t;  (** the scheduled unwound program *)
  kernel : Kernel.t;
  machine : Machine.t;
  horizon : int;
  method_ : method_;
  pattern : Convergence.pattern option;
  gaps : int;
  static_cpi : float option;  (** cycles/iteration from the pattern *)
  redundant_removed : int * int * int;  (** loads, copies, dead ops *)
  wall_seconds : float;  (** scheduling time (the efficiency claim) *)
  phase_seconds : (string * float) list;
      (** per-phase wall time: unwind, redundancy, schedule, converge *)
  stats : sched_stats;  (** the scheduler's own counters *)
  fuel_exhausted : bool;
      (** the migration budget truncated scheduling (see
          {!Scheduler.stats.fuel_exhausted}) *)
}

(** [default_horizon machine] — the unwinding depth used when the
    caller does not pin one: wide machines see enough iterations to
    converge.  Exposed so drivers (the serving daemon's analysis store)
    can predict which horizon a request will schedule at. *)
let default_horizon machine = max 18 ((2 * Machine.width machine) + 6)

(** [ddg_of k] — dependence graph of the body plus its loop-control
    conditional, with exact induction-based memory distances. *)
let ddg_of (k : Kernel.t) =
  let kinds = k.Kernel.body @ [ List.nth (Kernel.control k) 1 ] in
  let ops = List.mapi (fun i kind -> Operation.make ~id:i ~src_pos:i kind) kinds in
  Ddg.build ~ivar:(k.Kernel.ivar, k.Kernel.step) ops

(** [default_rank k] — the section 3.4 heuristic instantiated for
    [k]. *)
let default_rank (k : Kernel.t) = Rank.section_3_4 ~ddg:(ddg_of k)

(** [sched_totals stats] — (suspensions, resource barriers) of the
    winning scheduler (the Unifiable baseline tracks neither).  POST
    reports its unconstrained phase 1, where all percolation
    happens. *)
let sched_totals = function
  | Grip_stats (s : Scheduler.stats) ->
      (s.Scheduler.suspensions, s.Scheduler.resource_barrier_events)
  | Post_stats (s : Post.stats) ->
      ( s.Post.phase1.Scheduler.suspensions,
        s.Post.phase1.Scheduler.resource_barrier_events )
  | Unifiable_stats _ -> (0, 0)

(* [fuel] is the run's migration budget.  Unifiable's loop stops at it
   without marking the truncation; reaching the budget is the only
   observable signal. *)
let fuel_exhausted_of ~fuel = function
  | Grip_stats (s : Scheduler.stats) -> s.Scheduler.fuel_exhausted
  | Post_stats (s : Post.stats) -> s.Post.phase1.Scheduler.fuel_exhausted
  | Unifiable_stats (s : Unifiable.stats) -> s.Unifiable.migrations >= fuel

let occupancy_bounds = [| 0; 1; 2; 3; 4; 6; 8; 12; 16 |]

(* Per-instruction slot occupancy of the final schedule, along the
   internal path (the utilization figure the paper argues GRiP wins). *)
let observe_occupancy (obs : Obs.t) machine p rows =
  if Metrics.enabled obs.Obs.metrics then
    List.iter
      (fun (r : Schedule_table.row) ->
        match Program.node_opt p r.Schedule_table.node with
        | None -> ()
        | Some _ ->
            Metrics.observe obs.Obs.metrics ~bounds:occupancy_bounds
              "schedule.slot_occupancy"
              (Machine.slot_demand_packed machine
                 (Program.counts_packed p r.Schedule_table.node)))
      rows

(* The schedule phase of {!run} and of the ladder's pipelining rungs:
   build [method_]'s scheduler over the unwound program [p] and run it
   inside the Schedule span, with [fuel] migrations at most.  Returns
   the scheduler's stats and the phase's wall seconds. *)
let schedule_phase ~obs ~rank ~horizon ~speculation ~fuel ~budget
    (k : Kernel.t) p ~machine ~method_ =
  let exit_live = Kernel.exit_live k in
  Obs.timed obs Trace.Schedule (fun () ->
      match method_ with
      | Grip | Grip_no_gap ->
          let ctx = Ctx.make ~obs p ~machine ~exit_live in
          let config =
            {
              (Scheduler.default_config ~rank) with
              Scheduler.gap_prevention = (method_ = Grip);
              Scheduler.speculation = speculation;
              Scheduler.max_migrations = fuel;
              Scheduler.budget = budget;
            }
          in
          Grip_stats (Scheduler.run config ctx)
      | Post ->
          let ctx_unlimited =
            Ctx.make ~obs p ~machine:Machine.unlimited ~exit_live
          in
          let ctx_real = Ctx.make ~obs p ~machine ~exit_live in
          Post_stats (Post.run ~budget ctx_unlimited ctx_real ~rank)
      | Unifiable ->
          let ctx = Ctx.make ~obs p ~machine ~exit_live in
          let config =
            {
              (Unifiable.default_config ~rank ~ddg:(ddg_of k) ~horizon) with
              Unifiable.max_migrations = fuel;
              Unifiable.budget = budget;
            }
          in
          Unifiable_stats (Unifiable.run config ctx))

(** [run ?obs ?rank ?horizon ?redundancy ?speculation k ~machine
    ~method_] schedules kernel [k].  The default horizon scales with
    the machine width so wide machines see enough iterations to
    converge; [speculation] tunes the section 1 policy (GRiP methods
    only); [obs] receives phase spans, migration events and scheduler
    metrics (default: the null sink). *)
let run ?(obs = Obs.null) ?rank ?horizon ?(redundancy = true)
    ?(speculation = Scheduler.Always) ?max_migrations
    ?(budget = Budget.unlimited) (k : Kernel.t) ~machine ~method_ =
  let rank = match rank with Some r -> r | None -> default_rank k in
  let horizon =
    match horizon with Some h -> h | None -> default_horizon machine
  in
  let u, t_unwind = Obs.timed obs Trace.Unwind (fun () -> Unwind.build k ~horizon) in
  let p = u.Unwind.program in
  let exit_live = Kernel.exit_live k in
  let redundant_removed, t_redundancy =
    Obs.timed obs Trace.Redundancy (fun () ->
        if redundancy then Redundant.cleanup p ~exit_live else (0, 0, 0))
  in
  let fuel =
    Option.value max_migrations
      ~default:(Scheduler.default_config ~rank).Scheduler.max_migrations
  in
  let stats, wall_seconds =
    schedule_phase ~obs ~rank ~horizon ~speculation ~fuel ~budget k p ~machine
      ~method_
  in
  let fuel_exhausted = fuel_exhausted_of ~fuel stats in
  let (rows, pattern), t_converge =
    Obs.timed obs Trace.Converge (fun () ->
        let rows = Schedule_table.rows p in
        ( rows,
          Convergence.detect
            ~body_positions:(List.length k.Kernel.body + 1)
            rows ))
  in
  observe_occupancy obs machine p rows;
  {
    program = p;
    kernel = k;
    machine;
    horizon;
    method_;
    pattern;
    gaps = Convergence.gaps rows;
    static_cpi = Option.map Convergence.cycles_per_iteration pattern;
    redundant_removed;
    wall_seconds;
    phase_seconds =
      [
        ("unwind", t_unwind);
        ("redundancy", t_redundancy);
        ("schedule", wall_seconds);
        ("converge", t_converge);
      ];
    stats;
    fuel_exhausted;
  }

(** [measure outcome] — dynamic speedup from two trip counts deep in
    the steady state.  [n2 - n1] is a multiple of 12, so exits land at
    the same phase of any repeating pattern with delta in {1,2,3,4,6}
    and the pipeline-drain epilogues cancel in the difference
    quotient. *)
let measure ?(obs = Obs.null) ?data (o : outcome) =
  let n2 = o.horizon - 2 in
  let n1 = if n2 > 13 then n2 - 12 else max 1 (n2 / 2) in
  (* steady-state differencing is only sound when the schedule
     converged (exits then drain through phase-equal epilogues); a
     non-convergent schedule is charged its full execution *)
  let steady = o.pattern <> None in
  fst
    (Obs.timed obs Trace.Measure (fun () ->
         Speedup.measure ?data ~steady o.kernel ~scheduled:o.program ~n1 ~n2))

(** [check outcome] — oracle equivalence of the scheduled program
    against the rolled loop. *)
let check ?data (o : outcome) =
  Speedup.verify ?data o.kernel ~scheduled:o.program ~n:(o.horizon - 2)

(* -- guarded pipeline with graceful degradation -------------------------- *)

(** One rung of the degradation ladder, best first: full GRiP, GRiP
    without the Gapless-move test, unconstrained pipelining with
    post-pass constraints, a list-scheduled rolled loop, and finally
    the sequential rolled loop — the trusted reference itself, which
    cannot fail. *)
type rung = R_grip | R_grip_no_gap | R_post | R_list | R_sequential

let rung_name = function
  | R_grip -> "GRiP"
  | R_grip_no_gap -> "GRiP(no-gap)"
  | R_post -> "POST"
  | R_list -> "list-rolled"
  | R_sequential -> "sequential"

let ladder = [ R_grip; R_grip_no_gap; R_post; R_list; R_sequential ]

(** Ladder entry point corresponding to a pipeline method (the
    Unifiable baseline is not a rung; it maps to the top). *)
let rung_of_method = function
  | Grip -> R_grip
  | Grip_no_gap -> R_grip_no_gap
  | Post -> R_post
  | Unifiable -> R_grip

type robust = {
  program : Program.t;  (** the schedule of the winning rung *)
  kernel : Kernel.t;
  machine : Machine.t;
  horizon : int;
  strictness : Guard.strictness;
  rung : rung;  (** the rung that produced [program] *)
  descents : (rung * Grip_error.t) list;
      (** abandoned rungs with the error that abandoned each, top of
          the ladder first *)
  scheduled : outcome option;
      (** the full pipeline outcome when a pipelining rung won *)
  pattern : Convergence.pattern option;
  wall_seconds : float;
}

let ( let* ) = Result.bind

(* -- cross-request warm-path seeding -------------------------------------- *)

(** What a completed run learned about a kernel that a later run over
    the {e same lowered kernel} can reuse: the ranked heuristic (which
    embeds the DDG heights) and the post-redundancy unwound graph, as a
    program instance plus its pristine snapshot.

    A warm run restores the snapshot into [w_program] instead of
    unwinding and cleaning from scratch — {!Program.restore} also
    restores the node/register/op id supplies, so the scheduler replays
    byte-identically — and skips the unwind/redundancy guards those
    phases already passed when the snapshot was taken.  The final
    oracle check is {e never} skipped. *)
type warm = {
  w_rank : Rank.t;
  w_horizon : int;  (** horizon the snapshot was unwound at; a request
                        at any other horizon must go cold *)
  w_program : Program.t;  (** instance to restore into (exclusively
                              owned while the run is in flight) *)
  w_snapshot : Program.snapshot;
}

(** Mutable capture slots a driver hands to a cold {!run_robust} to
    harvest a {!warm} seed; filled only when a pipelining rung wins (a
    failed rung leaves them untouched). *)
type captured = {
  mutable c_rank : Rank.t option;
  mutable c_horizon : int;
  mutable c_program : Program.t option;
  mutable c_snapshot : Program.snapshot option;
}

let fresh_capture () =
  { c_rank = None; c_horizon = 0; c_program = None; c_snapshot = None }

(* Unconditional semantic check against the rolled reference: a rung
   may only win if the oracle agrees, whatever the strictness. *)
let oracle_final ~kernel ~mstr ~data ~n k p =
  match Speedup.verify ~data k ~scheduled:p ~n with
  | Ok _ -> Ok ()
  | Error ms ->
      let first =
        match ms with
        | m :: _ -> Format.asprintf "%a" Vliw_sim.Oracle.pp_mismatch m
        | [] -> "unknown"
      in
      Error
        (Grip_error.make ~kernel ~machine:mstr Grip_error.Validation
           (Grip_error.Oracle_mismatch { count = List.length ms; first }))

(* One pipelining rung (GRiP / GRiP-no-gap / POST), guarded after every
   stage.  Intermediate structural / resource / oracle spot-checks obey
   [strictness]; fuel, deadline, convergence and the final oracle check
   abandon the rung unconditionally.  [budget] is the per-rung
   cancellation token: the scheduler loop heads poll it, so a blown
   deadline (or an external cancel) surfaces here as [Error] — a
   ladder descent — instead of wedging the domain. *)
let attempt_pipelining ?warm ?capture ~obs ~rank ~horizon ~redundancy
    ~speculation ~strictness ~max_migrations ~deadline ~budget ~data
    (k : Kernel.t) ~machine ~method_ =
  let kernel = k.Kernel.name in
  let mstr = Format.asprintf "%a" Machine.pp machine in
  let exit_live = Kernel.exit_live k in
  (* a seed unwound at a different horizon describes a different
     scheduling problem: go cold *)
  let warm =
    match warm with Some w when w.w_horizon = horizon -> Some w | _ -> None
  in
  let* p, t_unwind, redundant_removed, t_redundancy =
    match warm with
    | Some w ->
        (* restore the pristine post-redundancy graph (id supplies
           included, so the replay is byte-identical) instead of
           unwinding and cleaning from scratch; the snapshot was taken
           from a run that already passed the unwind/redundancy guards
           on exactly this graph, so only their phases are skipped —
           validation and the final oracle still run below *)
        let* p, t_restore =
          Grip_error.guard (fun () ->
              Obs.timed obs Trace.Unwind (fun () ->
                  Program.restore w.w_program w.w_snapshot;
                  w.w_program))
        in
        Metrics.incr obs.Obs.metrics "pipeline.warm_restores";
        Ok (p, t_restore, (0, 0, 0), 0.0)
    | None ->
        let* u, t_unwind =
          Grip_error.guard (fun () ->
              Obs.timed obs Trace.Unwind (fun () -> Unwind.build k ~horizon))
        in
        let p = u.Unwind.program in
        let rolled = (Kernel.rolled k).Builder.program in
        let spot_n = min 4 (horizon - 2) in
        let* () =
          Guard.all_named ~obs strictness
            [
              ( "unwind.structural",
                fun () ->
                  Guard.structural ~kernel ~machine:mstr Grip_error.Unwind p );
            ]
        in
        let redundant_removed, t_redundancy =
          Obs.timed obs Trace.Redundancy (fun () ->
              if redundancy then Redundant.cleanup p ~exit_live else (0, 0, 0))
        in
        let* () =
          Guard.all_named ~obs strictness
            [
              ( "redundancy.structural",
                fun () ->
                  Guard.structural ~kernel ~machine:mstr Grip_error.Redundancy
                    p );
              ( "redundancy.oracle",
                fun () ->
                  Guard.oracle ~kernel ~machine:mstr Grip_error.Redundancy
                    ~reference:rolled ~candidate:p
                    ~init:(Kernel.initial_state ~n:spot_n k ~data)
                    ~observable:k.Kernel.observable );
            ]
        in
        Ok (p, t_unwind, redundant_removed, t_redundancy)
  in
  (* pristine pre-schedule snapshot for the analysis store; taken only
     on cold runs (a warm caller already owns this graph) *)
  let pristine =
    match (capture, warm) with
    | Some _, None -> Some (Program.snapshot p)
    | _ -> None
  in
  let fuel =
    Option.value max_migrations
      ~default:(Scheduler.default_config ~rank).Scheduler.max_migrations
  in
  let* stats, wall_seconds =
    Budget.guard budget (fun () ->
        schedule_phase ~obs ~rank ~horizon ~speculation ~fuel ~budget k p
          ~machine ~method_)
  in
  let exhausted = fuel_exhausted_of ~fuel stats in
  let migrations =
    match stats with
    | Grip_stats st -> st.Scheduler.migrations
    | Post_stats st -> st.Post.phase1.Scheduler.migrations
    | Unifiable_stats st -> st.Unifiable.migrations
  in
  let* () =
    if exhausted then
      Error
        (Grip_error.make ~kernel ~machine:mstr Grip_error.Scheduling
           (Grip_error.Fuel_exhausted { migrations; budget = fuel }))
    else Ok ()
  in
  let* () =
    match deadline with
    | Some b when wall_seconds > b ->
        Error
          (Grip_error.make ~kernel ~machine:mstr Grip_error.Scheduling
             (Grip_error.Deadline_exceeded { elapsed = wall_seconds; budget = b }))
    | Some _ | None -> Ok ()
  in
  let* () =
    Guard.all_named ~obs strictness
      [
        ( "validation.structural",
          fun () ->
            Guard.structural ~kernel ~machine:mstr Grip_error.Validation p );
        ( "validation.resources",
          fun () -> Guard.resources ~kernel Grip_error.Validation ~machine p );
      ]
  in
  let (rows, pattern), t_converge =
    Obs.timed obs Trace.Converge (fun () ->
        let rows = Schedule_table.rows p in
        ( rows,
          Convergence.detect
            ~body_positions:(List.length k.Kernel.body + 1)
            rows ))
  in
  let* () =
    match pattern with
    | Some _ -> Ok ()
    | None ->
        Error
          (Grip_error.make ~kernel ~machine:mstr Grip_error.Convergence
             (Grip_error.Non_convergent { horizon }))
  in
  let* () = oracle_final ~kernel ~mstr ~data ~n:(horizon - 2) k p in
  (* the rung won — publish the seedable artifacts (partial fills are
     never published: a failed rung leaves the capture untouched) *)
  (match (capture, pristine) with
  | Some c, Some s ->
      c.c_rank <- Some rank;
      c.c_horizon <- horizon;
      c.c_program <- Some p;
      c.c_snapshot <- Some s
  | _ -> ());
  observe_occupancy obs machine p rows;
  Ok
    {
      program = p;
      kernel = k;
      machine;
      horizon;
      method_;
      pattern;
      gaps = Convergence.gaps rows;
      static_cpi = Option.map Convergence.cycles_per_iteration pattern;
      redundant_removed;
      wall_seconds;
      phase_seconds =
        [
          ("unwind", t_unwind);
          ("redundancy", t_redundancy);
          ("schedule", wall_seconds);
          ("converge", t_converge);
        ];
      stats;
      fuel_exhausted = false;
    }

(* The list-scheduled rolled loop: no unwinding, no percolation; still
   guarded and still oracle-checked. *)
let attempt_list ~obs ~strictness ~horizon ~data (k : Kernel.t) ~machine =
  let kernel = k.Kernel.name in
  let mstr = Format.asprintf "%a" Machine.pp machine in
  let* p =
    match List_scheduler.rolled_program k ~machine with
    | p -> Ok p
    | exception Grip_error.Error e -> Error e
    | exception e ->
        Error
          (Grip_error.make ~kernel ~machine:mstr Grip_error.Scheduling
             (Grip_error.Message (Printexc.to_string e)))
  in
  let* () =
    Guard.all_named ~obs strictness
      [
        ( "validation.structural",
          fun () ->
            Guard.structural ~kernel ~machine:mstr Grip_error.Validation p );
        ( "validation.resources",
          fun () -> Guard.resources ~kernel Grip_error.Validation ~machine p );
      ]
  in
  let* () = oracle_final ~kernel ~mstr ~data ~n:(horizon - 2) k p in
  Ok p

(** [run_robust k ~machine] — the guarded pipeline.  Starts at [start]
    (default: the top rung, full GRiP) and falls one rung down the
    ladder whenever the current rung is abandoned: by an intermediate
    guard under [Strict] strictness, or — regardless of strictness — by
    fuel/deadline exhaustion, failure to converge, or a final oracle
    mismatch.  With [fallback] (default), the result is always [Ok]:
    the bottom rung is the sequential reference itself.  With
    [~fallback:false] the first abandonment is returned as [Error].

    [deadline] bounds each {e pipelining} rung: a per-rung child token
    ({!Budget.sub}) is polled live at the scheduler loop heads, so a
    blown deadline abandons the rung mid-schedule instead of after the
    fact.  [budget] is the caller's (supervisor's) task-level token:
    its cancellation flag is inherited by every rung's child, and it is
    checked again before the list and sequential rungs, so a cancelled
    task stops descending the ladder rather than finishing cheaply. *)
let run_robust ?(obs = Obs.null) ?rank ?horizon ?(redundancy = true)
    ?(speculation = Scheduler.Always) ?(strictness = Guard.Strict)
    ?(fallback = true) ?max_migrations ?deadline
    ?(budget = Budget.unlimited) ?(data = Kernel.default_data)
    ?(start = R_grip) ?warm ?capture (k : Kernel.t) ~machine =
  let rank =
    match rank with
    | Some r -> r
    | None -> (
        (* the seed's rank closure embeds the DDG heights of the same
           lowered kernel — reusing it skips the analysis pass *)
        match warm with Some w -> w.w_rank | None -> default_rank k)
  in
  let horizon =
    match horizon with Some h -> h | None -> default_horizon machine
  in
  let t0 = Unix.gettimeofday () in
  let rec from = function
    | r :: rest when r <> start -> from rest
    | rungs -> rungs
  in
  let rungs = match from ladder with [] -> ladder | l -> l in
  let finish rung descents (program, scheduled, pattern) =
    {
      program;
      kernel = k;
      machine;
      horizon;
      strictness;
      rung;
      descents = List.rev descents;
      scheduled;
      pattern;
      wall_seconds = Unix.gettimeofday () -. t0;
    }
  in
  let attempt rung =
    match rung with
    | R_grip | R_grip_no_gap | R_post ->
        let method_ =
          match rung with
          | R_grip -> Grip
          | R_grip_no_gap -> Grip_no_gap
          | _ -> Post
        in
        let rung_budget = Budget.sub budget ?deadline () in
        Result.map
          (fun (o : outcome) -> (o.program, Some o, o.pattern))
          (attempt_pipelining ?warm ?capture ~obs ~rank ~horizon ~redundancy
             ~speculation ~strictness ~max_migrations ~deadline
             ~budget:rung_budget ~data k ~machine ~method_)
    | R_list -> (
        match
          Budget.guard budget (fun () ->
              attempt_list ~obs ~strictness ~horizon ~data k ~machine)
        with
        | Ok r -> Result.map (fun p -> (p, None, None)) r
        | Error e -> Error e)
    | R_sequential -> (
        match
          Budget.guard budget (fun () -> (Kernel.rolled k).Builder.program)
        with
        | Ok p -> Ok (p, None, None)
        | Error e -> Error e)
  in
  let rec go descents = function
    | [] -> assert false (* the sequential rung never fails *)
    | rung :: rest -> (
        let result, _ =
          Obs.timed obs (Trace.Stage ("rung:" ^ rung_name rung)) (fun () ->
              attempt rung)
        in
        match result with
        | Ok win -> Ok (finish rung descents win)
        | Error e ->
            Metrics.incr obs.Obs.metrics "ladder.descents";
            Trace.emit obs.Obs.trace
              (Trace.Descent
                 { rung = rung_name rung; reason = Grip_error.to_string e });
            if fallback && rest <> [] then go ((rung, e) :: descents) rest
            else Error e)
  in
  go [] rungs

(** [measure_robust r] — dynamic speedup of the winning rung over the
    sequential reference.  Pipelined winners use the steady-state
    difference quotient of {!measure}; rolled-loop rungs are charged
    their full execution. *)
let measure_robust ?data (r : robust) =
  match r.scheduled with
  | Some o -> measure ?data o
  | None ->
      let n2 = r.horizon - 2 in
      let n1 = if n2 > 13 then n2 - 12 else max 1 (n2 / 2) in
      Speedup.measure ?data ~steady:false r.kernel ~scheduled:r.program ~n1 ~n2

let pp_descents ppf ds =
  List.iter
    (fun (rung, e) ->
      Format.fprintf ppf "%s abandoned: %a@." (rung_name rung) Grip_error.pp e)
    ds

(* -- machine-readable renderings ------------------------------------------ *)

module Json = Grip_obs.Json

(** [stats_json stats] — the scheduler counters as JSON (the [bench
    json] artifact and [grip schedule --metrics] both use this). *)
let stats_json = function
  | Grip_stats (s : Scheduler.stats) ->
      Json.Obj
        [
          ("technique", Json.Str "grip");
          ("nodes_scheduled", Json.int s.Scheduler.nodes_scheduled);
          ("migrations", Json.int s.Scheduler.migrations);
          ("hops", Json.int s.Scheduler.hops);
          ("reached", Json.int s.Scheduler.reached);
          ("suspensions", Json.int s.Scheduler.suspensions);
          ("resource_barriers", Json.int s.Scheduler.resource_barrier_events);
          ("fuel_exhausted", Json.Bool s.Scheduler.fuel_exhausted);
        ]
  | Post_stats (s : Post.stats) ->
      Json.Obj
        [
          ("technique", Json.Str "post");
          ("breaks", Json.int s.Post.breaks);
          ("demoted_ops", Json.int s.Post.demoted_ops);
          ("cj_splits", Json.int s.Post.cj_splits);
          ("repair_hops", Json.int s.Post.repair_hops);
          ("phase1_migrations", Json.int s.Post.phase1.Scheduler.migrations);
          ("phase1_hops", Json.int s.Post.phase1.Scheduler.hops);
          ("phase1_suspensions", Json.int s.Post.phase1.Scheduler.suspensions);
          ( "fuel_exhausted",
            Json.Bool s.Post.phase1.Scheduler.fuel_exhausted );
        ]
  | Unifiable_stats (s : Unifiable.stats) ->
      Json.Obj
        [
          ("technique", Json.Str "unifiable");
          ("nodes_scheduled", Json.int s.Unifiable.nodes_scheduled);
          ("migrations", Json.int s.Unifiable.migrations);
          ("rollbacks", Json.int s.Unifiable.rollbacks);
          ("reached", Json.int s.Unifiable.reached);
          ("set_computations", Json.int s.Unifiable.set_computations);
          ("dom_recomputations", Json.int s.Unifiable.dom_recomputations);
          ("dom_reuses", Json.int s.Unifiable.dom_reuses);
        ]

let phase_seconds_json ps =
  Json.Obj (List.map (fun (name, s) -> (name, Json.Num s)) ps)
