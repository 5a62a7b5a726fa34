(** The [migrate] driver (paper Figures 4 and 12).

    [migrate ctx ~target ~op_id] moves one operation as high as
    possible toward [target]: it recursively descends the subgraph
    below [target] (post-order, so deeper instances percolate first)
    and hoists the operation one node per unwinding step with
    {!Move_op.move} / {!Move_cj.move}.

    The gap-prevention behaviour of Figure 12 is injected through
    [hooks]:
    - [allow_hop] is the Gapless-move test (always true by default);
    - [on_suspend] records an operation stopped by the gap test;
    - [early_stop] implements "if something moved and ops are
      suspended then return". *)

open Vliw_ir

type hooks = {
  allow_hop : from_:int -> to_:int -> op:Operation.t -> bool;
  on_suspend : Operation.t -> unit;
  early_stop : moved:int -> bool;
}

(** Hooks that never suspend: plain Percolation Scheduling
    (Figure 4). *)
let no_hooks =
  {
    allow_hop = (fun ~from_:_ ~to_:_ ~op:_ -> true);
    on_suspend = (fun _ -> ());
    early_stop = (fun ~moved:_ -> false);
  }

(** Why the last attempted hop failed — a proper variant rather than a
    rendered message, so drivers (resource-barrier accounting in the
    scheduler, the robustness guards) can match on the cause without
    depending on diagnostic text. *)
type failure =
  | Vanished  (** the operation disappeared mid-walk (clone renamed it) *)
  | Suspended  (** vetoed by the gap-prevention hook *)
  | Op of Move_op.failure
  | Cj of Move_cj.failure

let pp_failure ppf = function
  | Vanished -> Format.pp_print_string ppf "operation vanished"
  | Suspended -> Format.pp_print_string ppf "gap prevention"
  | Op f -> Move_op.pp_failure ppf f
  | Cj f -> Move_cj.pp_failure ppf f

type outcome = {
  moved : int;  (** number of successful one-node hops *)
  reached_target : bool;
  final_id : int;  (** operation id after the walk (clones may rename it) *)
  last_failure : failure option;
}

(** [reason f] — the rejection reason a walk that failed with [f]
    reports: a dependence names the blocking operation, anything else
    is structural.  Drivers that treat [Op No_room] or [Suspended]
    specially match those first. *)
let reason = function
  | Op (Move_op.True_dependence o | Move_op.Mem_dependence o)
  | Cj (Move_cj.True_dependence o) ->
      Grip_obs.Trace.Dep o.Operation.id
  | f -> Grip_obs.Trace.Structural (Format.asprintf "%a" pp_failure f)

(* Attempt one hop of [op] from [s] into [n]; returns the (possibly
   new) op id on success.  Successful hops are the migration-level
   trace: one [Migrate_hop] event each (attempts and rejections are
   emitted by the driving scheduler, which owns that bookkeeping). *)
let hop (ctx : Ctx.t) hooks ~from_:s ~to_:n ~op_id =
  let p = ctx.Ctx.program in
  let landed ~rule op' =
    let tr = ctx.Ctx.obs.Grip_obs.trace in
    if Grip_obs.Trace.enabled tr then
      Grip_obs.Trace.emit tr
        (Grip_obs.Trace.Migrate_hop
           { op = op'; prev_op = op_id; from_ = s; to_ = n; rule });
    Ok op'
  in
  match (if Program.home_int p op_id = s then Program.stored_op p op_id else None)
  with
  | None -> Error Vanished
  | Some op ->
      if not (hooks.allow_hop ~from_:s ~to_:n ~op) then begin
        hooks.on_suspend op;
        Error Suspended
      end
      else if Operation.is_cjump op then
        match Move_cj.move ctx ~from_:s ~to_:n ~cj_id:op_id with
        | Ok r -> landed ~rule:Grip_obs.Trace.Move_cj r.Move_cj.cj.Operation.id
        | Error f -> Error (Cj f)
      else
        match Move_op.move ctx ~from_:s ~to_:n ~op_id with
        | Ok r -> landed ~rule:Grip_obs.Trace.Move_op r.Move_op.op.Operation.id
        | Error f -> Error (Op f)

(* Walk state threaded through the top-level recursion below: one
   record per walk where a nest of local closures used to be minted
   (the walker runs once per migration attempt — the dominant call
   count of a scheduling run). *)
type walk = {
  w_ctx : Ctx.t;
  w_hooks : hooks;
  mutable w_moved : int;
  mutable w_current : int;
  mutable w_failure : failure option;
}

let walk_dead p nid =
  match Program.node_opt p nid with
  | None -> true
  | Some _ -> not (Program.is_live p nid)

(* The successor loops recurse over the list spine directly — no
   [List.iter] closure per visited node. *)
let rec walk_go w nid =
  let p = w.w_ctx.Ctx.program in
  if w.w_hooks.early_stop ~moved:w.w_moved || Ctx.walk_seen w.w_ctx nid then ()
  else begin
    Ctx.walk_mark w.w_ctx nid;
    if not (walk_dead p nid) then begin
      (* Recurse first: deeper occurrences percolate up before we
         try to pull the op across this level (Figure 4). *)
      walk_descend w (Program.succs p nid);
      if w.w_hooks.early_stop ~moved:w.w_moved then ()
      else if walk_dead p nid then ()
      else walk_pull w nid (Program.succs p nid)
    end
  end

and walk_descend w = function
  | [] -> ()
  | s :: tl ->
      if not (Program.is_exit w.w_ctx.Ctx.program s) then walk_go w s;
      walk_descend w tl

and walk_pull w nid = function
  | [] -> ()
  | s :: tl ->
      let p = w.w_ctx.Ctx.program in
      (if (not (Program.is_exit p s)) && Program.home_int p w.w_current = s
       then
         match hop w.w_ctx w.w_hooks ~from_:s ~to_:nid ~op_id:w.w_current with
         | Ok id' ->
             w.w_moved <- w.w_moved + 1;
             w.w_current <- id'
         | Error msg -> w.w_failure <- Some msg);
      walk_pull w nid tl

(** [migrate ctx ?hooks ~target ~op_id ()] — see module comment.
    Returns how far the operation got. *)
let migrate (ctx : Ctx.t) ?(hooks = no_hooks) ~target ~op_id () =
  let p = ctx.Ctx.program in
  (* Visited set: the context's epoch-stamped scratch table — one
     stamp bump instead of a fresh hash table per walk. *)
  Ctx.walk_begin ctx;
  let w =
    { w_ctx = ctx; w_hooks = hooks; w_moved = 0; w_current = op_id;
      w_failure = None }
  in
  (* Garbage collection is deferred for the whole walk: commits mark
     nodes dead without sweeping, so [node_opt] alone no longer proves
     liveness — the [is_live] checks in the walker reproduce exactly
     the view an eager collector would give.  The sweep is flushed
     before the outcome is computed (a dead operation must report no
     home). *)
  Ctx.defer_gc ctx (fun () -> walk_go w target);
  {
    moved = w.w_moved;
    reached_target = Program.home_int p w.w_current = target;
    final_id = w.w_current;
    last_failure = w.w_failure;
  }
