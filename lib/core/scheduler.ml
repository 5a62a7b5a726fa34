(** The GRiP scheduler (paper Figures 10 and 12).

    Top-down traversal of the program: each node [n] is scheduled by
    attempting to migrate to it, in ranked order, every operation of
    the Moveable-ops set of [n] — all operations on the subgraph
    dominated by [n] — until no further operation can be moved.
    Compaction happens on the whole dominated subgraph as a side effect
    of migration (operations that do not reach [n] stay wherever they
    got to), which is exactly what distinguishes GRiP from the
    Unifiable-ops technique and what lets it avoid maximal travel
    distances.

    With [gap_prevention] on, the Gapless-move test and the three
    scheduling rules of section 3.3 are enforced:

    + an operation may hop only when {!Gapless.ok} holds, else it is
      suspended;
    + after a successful move, all operations are unsuspended and
      migration restarts in ranked order (inside a migration this is
      the "at most one step while suspensions exist" early return);
    + only operations below the lowest suspended operation may move. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Migrate = Vliw_percolation.Migrate
module Move_op = Vliw_percolation.Move_op
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics

(* Machine FU class -> the observability layer's mirror of it (kept
   separate so grip_obs does not depend on the machine model). *)
let fu_class op =
  match Machine.class_of op with
  | Machine.Alu -> Trace.Alu
  | Machine.Mem -> Trace.Mem
  | Machine.Branch -> Trace.Branch

type stats = {
  mutable nodes_scheduled : int;
  mutable migrations : int;  (** migrate calls *)
  mutable hops : int;  (** successful one-node moves *)
  mutable reached : int;  (** migrations that reached their target *)
  mutable suspensions : int;  (** gap-prevention suspensions *)
  mutable resource_barrier_events : int;
      (** hops blocked by a full node that was not the target — the
          resource barriers of section 3.2 (measured for the ablation
          bench) *)
  mutable fuel_exhausted : bool;
      (** the [max_migrations] budget ran out and migration was
          truncated: the schedule is legal but possibly under-compacted,
          and drivers must not present it as a converged pipeline *)
}

let fresh_stats () =
  {
    nodes_scheduled = 0;
    migrations = 0;
    hops = 0;
    reached = 0;
    suspensions = 0;
    resource_barrier_events = 0;
    fuel_exhausted = false;
  }

(** Speculative-scheduling policy (section 1): a hop is speculative
    when the operation lands on a conditional path of the target
    instruction (it computes on cycles where its iteration may not
    run).  The paper's GRiP "always allows speculative scheduling";
    [Resource_aware threshold] is the sophistication the paper
    sketches — "when a large number of resources are currently
    available, it would be worthwhile to allow the speculative
    scheduling of operations; on the other hand, with only a few
    resources, it might be better to prohibit it": speculation is
    allowed only while the landing instruction's occupancy is below
    [threshold] of the issue width. *)
type speculation =
  | Always
  | Resource_aware of float

type config = {
  rank : Rank.t;
  gap_prevention : bool;
  speculation : speculation;
  max_migrations : int;  (** fuel against pathological graphs *)
  budget : Grip_robust.Budget.t;
      (** cancellation token polled once per scheduling-loop iteration:
          deadline / fuel / external cancel raise a structured
          [Grip_error] instead of letting a pathological cell hang its
          domain (default {!Grip_robust.Budget.unlimited}) *)
}

let default_config ~rank =
  {
    rank;
    gap_prevention = false;
    speculation = Always;
    max_migrations = 1_000_000;
    budget = Grip_robust.Budget.unlimited;
  }

(* Does moving [op] from [from_] into [to_] make it speculative, and
   does the policy allow that? *)
let speculation_allows (config : config) (ctx : Ctx.t) ~from_ ~to_
    ~(op : Operation.t) =
  match config.speculation with
  | Always -> true
  | Resource_aware threshold -> (
      let p = ctx.Ctx.program in
      let to_node = Program.node p to_ in
      match Ctree.path_to to_node.Node.ctree from_ with
      | Some [] | None -> true (* lands unguarded: not speculative *)
      | Some (_ :: _) ->
          Operation.is_cjump op
          ||
          let m = ctx.Ctx.machine in
          Machine.is_unlimited m
          || float_of_int
               (Machine.slot_demand_packed m (Program.counts_packed p to_))
             < threshold *. float_of_int (Machine.width m))

(* Dominators cached by program version on the context (scheduling leaf
   nodes makes no moves, so consecutive schedule_node calls share the
   computation); per-context so nested or interleaved runs over
   different programs cannot evict each other. *)
let dominators (ctx : Ctx.t) = Ctx.dominators ctx

(* The Moveable-ops set of [n]: every operation on the subgraph
   dominated by [n], excluding those already in [n].  (Initialisation
   per section 3.2; operations become unmoveable by being scheduled
   into [n] or by failing their migration attempt, both of which the
   driver tracks dynamically.) *)
let moveable_ops (p : Program.t) dom n =
  let region = Vliw_analysis.Dom.dominated dom p n in
  List.concat_map
    (fun id ->
      if id = n || Program.is_exit p id then []
      else Node.all_ops (Program.node p id))
    region

(* Flat worklist variant of {!moveable_ops}: the op ids in the same
   order (per region node: plain ops in instruction order, then tree
   jumps pre-order), drawn from the program's flat sequences — no
   per-node list append, no record traversal.  The scheduler re-fetches
   metadata by id, so ids are all it needs. *)
let moveable_op_ids (p : Program.t) dom n acc =
  Vliw_ir.Iarr.clear acc;
  let push oid = Vliw_ir.Iarr.push acc oid in
  (* inline [Dom.dominated]'s filter: no materialized region list *)
  List.iter
    (fun id ->
      if
        (not (id = n || Program.is_exit p id))
        && Vliw_analysis.Dom.dominates dom n id
      then Program.iter_op_ids p id push)
    (Program.rpo p);
  acc

(* Per-run scratch, reused across [schedule_node] calls: op-id
   membership masks (one byte per id — a [bool Itbl.t] costs a word per
   id and was re-allocated per node) and the rule-3 RPO index table,
   reset in place instead of re-created.  Growth doubles, so a run
   settles on one buffer of each kind. *)
type scratch = {
  mutable susp_mask : Bytes.t;
  mutable att_mask : Bytes.t;
  rpo_tbl : int Vliw_ir.Itbl.t;
  mutable rpo_version : int;  (** program version [rpo_tbl] speaks for *)
  moveable : Vliw_ir.Iarr.t;  (** worklist buffer for {!moveable_op_ids} *)
}

let fresh_scratch () =
  {
    susp_mask = Bytes.make 256 '\000';
    att_mask = Bytes.make 256 '\000';
    rpo_tbl = Vliw_ir.Itbl.create ~capacity:256 max_int;
    rpo_version = -1;
    moveable = Vliw_ir.Iarr.create ~capacity:256 ();
  }

let mask_get b id = id < Bytes.length b && Bytes.unsafe_get b id <> '\000'

(* Returns the (possibly re-allocated) buffer with bit [id] set. *)
let mask_set b id =
  let b =
    if id < Bytes.length b then b
    else begin
      let n = Bytes.make (max (id + 1) (2 * Bytes.length b)) '\000' in
      Bytes.blit b 0 n 0 (Bytes.length b);
      n
    end
  in
  Bytes.unsafe_set b id '\001';
  b

(** [schedule_node ?on_move config ctx scratch stats n] fills node
    [n]. *)
let schedule_node ?on_move (config : config) (ctx : Ctx.t) (scratch : scratch)
    stats n =
  let p = ctx.Ctx.program in
  let tr = ctx.Ctx.obs.Grip_obs.trace and mx = ctx.Ctx.obs.Grip_obs.metrics in
  let tracing = Trace.enabled tr in
  let reject ~op ~node reason =
    Trace.emit tr (Trace.Migrate_reject { op; node; reason })
  in
  (* why the most recent allow_hop veto happened; read by on_suspend,
     which Migrate calls synchronously right after the veto *)
  let suspend_reason = ref "gap prevention" in
  let dom = dominators ctx in
  let initial = moveable_op_ids p dom n scratch.moveable in
  (* Ranked queue of op ids; metadata re-fetched from the program.
     Op ids are dense, so membership is a byte mask (consulted for
     every candidate on every pass — the hot path of the min-scan)
     plus, for the suspended set, an explicit id list for the two
     fold/clear sites.  The masks live on the per-run scratch and are
     wiped (not re-allocated) at node entry. *)
  Bytes.fill scratch.susp_mask 0 (Bytes.length scratch.susp_mask) '\000';
  Bytes.fill scratch.att_mask 0 (Bytes.length scratch.att_mask) '\000';
  let suspended_ids = ref [] in
  let suspended_count = ref 0 in
  let suspend op_id =
    if not (mask_get scratch.susp_mask op_id) then begin
      scratch.susp_mask <- mask_set scratch.susp_mask op_id;
      suspended_ids := op_id :: !suspended_ids;
      incr suspended_count
    end
  in
  let unsuspend_all () =
    List.iter
      (fun op_id ->
        Bytes.unsafe_set scratch.susp_mask op_id '\000';
        if op_id < Bytes.length scratch.att_mask then
          Bytes.unsafe_set scratch.att_mask op_id '\000')
      !suspended_ids;
    suspended_ids := [];
    suspended_count := 0
  in
  (* Rule-3 reverse-postorder index, cached by program version on the
     per-run scratch: while suspensions exist, only a successful hop
     (which bumps the version) changes node order, so iterations over
     failed attempts — and whole quiescent nodes — reuse the table
     instead of rebuilding it from a full RPO walk. *)
  let rpo_index () =
    let v = Program.version p in
    if scratch.rpo_version = v then begin
      Metrics.incr mx "scheduler.rpo_rebuilds_saved";
      scratch.rpo_tbl
    end
    else begin
      Vliw_ir.Itbl.reset scratch.rpo_tbl;
      List.iteri
        (fun i id -> Vliw_ir.Itbl.set scratch.rpo_tbl id i)
        (Program.rpo p);
      scratch.rpo_version <- v;
      Metrics.incr mx "scheduler.rpo_rebuilds";
      scratch.rpo_tbl
    end
  in
  (* The migration hooks are loop-invariant (they close over the
     per-node state above, not over the candidate), so one record and
     three closures serve every attempt instead of being rebuilt per
     loop iteration. *)
  let hooks =
    {
      Migrate.allow_hop =
        (fun ~from_ ~to_ ~op ->
          if not (speculation_allows config ctx ~from_ ~to_ ~op) then begin
            suspend_reason := "speculation policy veto";
            false
          end
          else if config.gap_prevention && not (Gapless.ok ctx ~from_ ~to_ ~op)
          then begin
            suspend_reason :=
              (if tracing then Gapless.explain ~from_ ~op
               else "gap prevention");
            false
          end
          else true);
      Migrate.on_suspend =
        (fun op ->
          stats.suspensions <- stats.suspensions + 1;
          if tracing then
            reject ~op:op.Operation.id
              ~node:(Program.home_int p op.Operation.id)
              (Trace.Suspended !suspend_reason);
          suspend op.Operation.id);
      Migrate.early_stop = (fun ~moved -> moved > 0 && !suspended_count > 0);
    }
  in
  let continue_ = ref true in
  while !continue_ do
    (* budget poll: a blown deadline / fuel cap / external cancel
       raises here, at the loop head, so a stuck cell surfaces a
       structured error instead of wedging the domain *)
    Grip_robust.Budget.check config.budget;
    (* rule 3 bookkeeping is only needed while suspensions exist *)
    let node_order_tbl =
      if !suspended_count = 0 then None else Some (rpo_index ())
    in
    let node_order id =
      match node_order_tbl with None -> 0 | Some t -> Vliw_ir.Itbl.get t id
    in
    let lowest_suspended =
      List.fold_left
        (fun acc op_id ->
          let home = Program.home_int p op_id in
          if home >= 0 then max acc (node_order home) else acc)
        (-1) !suspended_ids
    in
    (* Best candidate: alive, not yet in n, not suspended, not already
       attempted since the last progress, rule 3 respected.  A single
       min-scan replacing the earlier build-then-[Rank.sort]: keeping
       the incumbent on ties reproduces the head of a stable sort for
       any comparator, so custom ranks behave identically.  The
       worklist is an int array; placement comes from the O(1) flat
       stores and the record is only fetched to feed the rank
       comparator — the scan allocates nothing per candidate. *)
    let cmp = config.rank.Rank.compare in
    let best = ref None in
    for i = 0 to Vliw_ir.Iarr.length initial - 1 do
      let oid = Vliw_ir.Iarr.unsafe_get initial i in
      if
        (not (mask_get scratch.att_mask oid))
        && not (mask_get scratch.susp_mask oid)
      then begin
        let home = Program.home_int p oid in
        if
          home >= 0 && home <> n
          && not (lowest_suspended >= 0 && node_order home <= lowest_suspended)
        then
          match Program.stored_op p oid with
          | None -> ()
          | Some op' -> (
              match !best with
              | None -> best := Some op'
              | Some b -> if cmp op' b < 0 then best := Some op')
      end
    done;
    match !best with
    | None -> continue_ := false
    | Some best ->
        if stats.migrations >= config.max_migrations then begin
          stats.fuel_exhausted <- true;
          if tracing then
            reject ~op:best.Operation.id
              ~node:(Program.home_int p best.Operation.id)
              Trace.Fuel;
          continue_ := false
        end
        else begin
          scratch.att_mask <- mask_set scratch.att_mask best.Operation.id;
          stats.migrations <- stats.migrations + 1;
          if tracing then
            Trace.emit tr
              (Trace.Migrate_attempt { op = best.Operation.id; target = n });
          let r =
            Migrate.migrate ctx ~hooks ~target:n ~op_id:best.Operation.id ()
          in
          stats.hops <- stats.hops + r.Migrate.moved;
          Metrics.observe mx "scheduler.travel_distance" r.Migrate.moved;
          if r.Migrate.reached_target then stats.reached <- stats.reached + 1;
          let stopped reason =
            reject ~op:r.Migrate.final_id
              ~node:(Program.home_int p r.Migrate.final_id)
              reason
          in
          (match r.Migrate.last_failure with
          | Some (Migrate.Op Move_op.No_room) ->
              (* blocked by a full node short of the target: a resource
                 barrier (section 3.2) *)
              stats.resource_barrier_events <-
                stats.resource_barrier_events + 1;
              if tracing then stopped (Trace.Resource_barrier (fu_class best))
          | Some Migrate.Suspended | None ->
              (* suspensions were emitted by on_suspend already *)
              ()
          | Some f ->
              (* the why-not table only charges a dependence or a
                 structural failure when it actually kept the op short
                 of its target *)
              if tracing && not r.Migrate.reached_target then
                stopped (Migrate.reason f));
          (match on_move with
          | Some f when r.Migrate.moved > 0 -> f ~op:best ~outcome:r
          | Some _ | None -> ());
          if r.Migrate.moved > 0 && !suspended_count > 0 then
            (* rule 2: progress unsuspends everything; unsuspended ops
               re-enter the ranked queue *)
            unsuspend_all ()
        end
  done

(** [top_down p schedule] calls [schedule n] on every non-exit node
    of [p] in reverse postorder, each node once.  Nodes created while
    scheduling (splits, conditional-arm copies) are scheduled when the
    traversal reaches them. *)
let top_down (p : Program.t) schedule =
  let scheduled : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* Worklist cursor over the reverse-postorder listing: consecutive
     calls resume from the remainder instead of rescanning (and
     re-deriving) the full RPO for every scheduled node — the
     scheduled set only grows, so the consumed prefix stays
     skippable.  Only a program-version change (splits, arm copies
     made during scheduling) forces a fresh RPO walk, which also
     re-offers any node created above the cursor. *)
  let cursor = ref (Program.version p, Program.rpo p) in
  let rec next () =
    let v = Program.version p in
    let v', rest = !cursor in
    let rest = if v' = v then rest else Program.rpo p in
    match rest with
    | [] ->
        cursor := (v, []);
        None
    | id :: tl ->
        cursor := (v, tl);
        if (not (Program.is_exit p id)) && not (Hashtbl.mem scheduled id) then
          Some id
        else next ()
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some n ->
        Hashtbl.replace scheduled n ();
        schedule n;
        loop ()
  in
  loop ()

(* The stats are the run's only counters: published into the metrics
   registry once, when the run ends.  A counter that stayed at zero is
   not created, so a metrics dump lists only what happened; the hop
   counter exists once any migration ran, even one that made no hop. *)
let publish mx s =
  let put name v = if v > 0 then Metrics.add mx name v in
  put "scheduler.migrations" s.migrations;
  if s.migrations > 0 then Metrics.add mx "scheduler.hops" s.hops;
  put "scheduler.reached" s.reached;
  put "scheduler.suspensions" s.suspensions;
  put "scheduler.barriers" s.resource_barrier_events

(** [run ?on_move config ctx] schedules the whole program top-down
    ({!top_down}).  Its counters reach the metrics registry also when
    the budget stops the run early. *)
let run ?on_move (config : config) (ctx : Ctx.t) =
  let stats = fresh_stats () in
  let scratch = fresh_scratch () in
  Fun.protect
    ~finally:(fun () -> publish ctx.Ctx.obs.Grip_obs.metrics stats)
    (fun () ->
      top_down ctx.Ctx.program (fun n ->
          schedule_node ?on_move config ctx scratch stats n;
          stats.nodes_scheduled <- stats.nodes_scheduled + 1);
      stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "nodes=%d migrations=%d hops=%d reached=%d suspensions=%d barriers=%d%s"
    s.nodes_scheduled s.migrations s.hops s.reached s.suspensions
    s.resource_barrier_events
    (if s.fuel_exhausted then " (fuel exhausted)" else "")
