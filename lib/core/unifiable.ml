(** The Unifiable-ops baseline (paper section 3.1, Figures 7 and 8).

    The Unifiable-ops set of a node [n] is "the set of all operations
    on the subgraph dominated by [n] that are not on the same data
    dependency chain as any operation currently in [n]" — computed here
    from the body's dependence graph expanded over unwound iteration
    instances.

    The scheduler moves only operations that will {e succeed} in
    reaching the node being scheduled; an attempted migration that
    falls short is rolled back (program snapshot/restore), so no
    compaction ever happens below the current node and no resource
    barrier can form.  Both properties are the expensive ones the paper
    replaces: the benchmark harness measures this scheduler's cost
    against GRiP's. *)

open Vliw_ir
module Ctx = Vliw_percolation.Ctx
module Migrate = Vliw_percolation.Migrate
module Ddg = Vliw_analysis.Ddg
module Trace = Grip_obs.Trace

type stats = {
  mutable nodes_scheduled : int;
  mutable migrations : int;
  mutable rollbacks : int;
  mutable reached : int;
  mutable set_computations : int;
  mutable dom_recomputations : int;
      (** dominator trees actually computed — one per program-version
          change, not one per set computation, thanks to the
          per-context cache ({!Ctx.dominators}) *)
  mutable dom_reuses : int;
      (** set computations served by the cached dominator tree *)
}

let fresh_stats () =
  {
    nodes_scheduled = 0;
    migrations = 0;
    rollbacks = 0;
    reached = 0;
    set_computations = 0;
    dom_recomputations = 0;
    dom_reuses = 0;
  }

(* Instance of an operation for chain tests: (body position, iteration);
   straight-line code maps to iteration 0. *)
let instance (op : Operation.t) =
  (op.Operation.lineage, max op.Operation.iter 0)

(** [set ctx ~ddg ~horizon n] — the Unifiable-ops set of node [n].
    The dominator tree comes from the context's per-program-version
    cache, so consecutive set computations over an unchanged program
    (every failed or rolled-back migration attempt) share one
    computation instead of recomputing [Dom.compute] each time. *)
let set (ctx : Ctx.t) ~ddg ~horizon n =
  let p = ctx.Ctx.program in
  let dom = Ctx.dominators ctx in
  let region = Vliw_analysis.Dom.dominated dom p n in
  let in_n = Node.all_ops (Program.node p n) in
  let chained (op : Operation.t) =
    List.exists
      (fun (o : Operation.t) ->
        Ddg.chain_related ddg ~horizon (instance o) (instance op))
      in_n
  in
  List.concat_map
    (fun id ->
      if id = n || Program.is_exit p id then []
      else
        List.filter
          (fun op -> not (chained op))
          (Node.all_ops (Program.node p id)))
    region

type config = {
  rank : Rank.t;
  ddg : Ddg.t;
  horizon : int;
  max_migrations : int;
  budget : Grip_robust.Budget.t;
      (** cancellation token polled at the scheduling loop head (see
          {!Scheduler.config}) *)
}

let default_config ~rank ~ddg ~horizon =
  {
    rank;
    ddg;
    horizon;
    max_migrations = 1_000_000;
    budget = Grip_robust.Budget.unlimited;
  }

(** [schedule_node config ctx stats n] — Figure 7's [schedule(n)]:
    while resources remain and the set is non-empty, choose the best
    operation and migrate it; roll back if it fails to reach [n]. *)
let schedule_node ?on_sched ~last_dom_version (config : config) (ctx : Ctx.t)
    stats n =
  let p = ctx.Ctx.program in
  let tried : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let continue_ = ref true in
  while !continue_ && stats.migrations < config.max_migrations do
    Grip_robust.Budget.check config.budget;
    stats.set_computations <- stats.set_computations + 1;
    (* the set computation below consults the per-context dominator
       cache; a version change is the only thing that costs a real
       [Dom.compute] *)
    let v = Program.version p in
    if !last_dom_version = Some v then
      stats.dom_reuses <- stats.dom_reuses + 1
    else begin
      stats.dom_recomputations <- stats.dom_recomputations + 1;
      last_dom_version := Some v
    end;
    let unifiable =
      set ctx ~ddg:config.ddg ~horizon:config.horizon n
      |> List.filter (fun (op : Operation.t) ->
             not (Hashtbl.mem tried op.Operation.id))
    in
    match Rank.sort config.rank unifiable with
    | [] -> continue_ := false
    | best :: _ ->
        Hashtbl.replace tried best.Operation.id ();
        stats.migrations <- stats.migrations + 1;
        let snap = Program.snapshot p in
        let r = Migrate.migrate ctx ~target:n ~op_id:best.Operation.id () in
        if r.Migrate.reached_target then begin
          stats.reached <- stats.reached + 1;
          match on_sched with Some f -> f ~op:best ~node:n | None -> ()
        end
        else begin
          (* Trace why the attempt fell short.  Hops of a rolled-back
             walk stay in the trace on purpose: for this baseline the
             wasted motion IS the story (the cost GRiP's in-place
             compaction avoids).  A full node is one more structural
             failure here: with rollback, no resource barrier forms. *)
          let tr = ctx.Ctx.obs.Grip_obs.trace in
          if Trace.enabled tr then begin
            let reject ~node reason =
              Trace.emit tr
                (Trace.Migrate_reject { op = r.Migrate.final_id; node; reason })
            in
            reject
              ~node:
                (Option.value ~default:(-1)
                   (Program.home p r.Migrate.final_id))
              (match r.Migrate.last_failure with
              | Some f -> Migrate.reason f
              | None -> Trace.Structural "short of target");
            if r.Migrate.moved > 0 then
              reject ~node:n (Trace.Structural "rolled back (short of target)")
          end;
          if r.Migrate.moved > 0 then begin
            (* fell short: undo, preserving "no compaction below n" *)
            Program.restore p snap;
            stats.rollbacks <- stats.rollbacks + 1
          end
        end
  done

(** [run ?on_sched config ctx] — top-down traversal, as in the GRiP
    driver ({!Scheduler.top_down}); [on_sched] fires after each
    operation reaches the node being scheduled (used to render the
    Figure 8 trace). *)
let run ?on_sched (config : config) (ctx : Ctx.t) =
  let stats = fresh_stats () in
  let last_dom_version = ref None in
  Scheduler.top_down ctx.Ctx.program (fun n ->
      schedule_node ?on_sched ~last_dom_version config ctx stats n;
      stats.nodes_scheduled <- stats.nodes_scheduled + 1);
  stats

let pp_stats ppf s =
  Format.fprintf ppf
    "nodes=%d migrations=%d rollbacks=%d reached=%d set-computations=%d \
     dom-recomputations=%d dom-reuses=%d"
    s.nodes_scheduled s.migrations s.rollbacks s.reached s.set_computations
    s.dom_recomputations s.dom_reuses
