(** The [move-op] core transformation (paper Figure 2), under the IBM
    VLIW store discipline.

    [move ctx ~from_ ~to_ ~op_id] moves the plain operation [op_id] up
    one instruction, from node [from_] to its predecessor [to_].  The
    operation lands {e on the path} of [to_]'s conditional tree that
    leads to [from_] (its guard becomes that path), so it computes a
    cycle earlier but still commits exactly when control was headed to
    [from_] — which is why no write-live check against [to_]'s other
    paths is needed and why stores may move above conditionals.

    The move fails (leaving the program untouched) on:
    - [Guarded]: the operation still sits under a conditional of
      [from_]'s own tree; it can only move after that conditional does
      (node splitting then unguards it);
    - a true data dependence on a non-copy operation of [to_] whose
      guard is compatible with the landing path — reads of copies are
      {e forwarded through} the copy, as in the paper's renaming
      discussion;
    - a memory dependence on a path-compatible load/store in [to_];
    - a move-past-read or same-destination conflict when renaming is
      disabled;
    - a resource (issue-width) violation at [to_].

    When [from_] has predecessors other than [to_] — or [to_] reaches
    [from_] through several tree paths — the node is split: the moved
    path keeps the original (now missing [op_id]) and every other way
    into [from_] is redirected to a fresh clone that still contains
    the operation.  When [from_] ends up empty it is deleted, as in
    Figure 2.

    Legality reads {!Program}'s flat stores: the moved op comes from
    [Program.stored_op] gated by its home, resource room from
    [Program.counts_packed], and the dependence checks scan [to_]'s
    and [from_]'s op lists directly, skipping the copy-forwarding
    rebuild when no source register is defined in [to_].  The [*_scan]
    entry points keep the original implementation alive as the
    equivalence oracle the test suite checks this path against.
    Negative verdicts are memoized per program version in the context
    ({!Ctx.legality_find}): the check has no effect on failure, so
    replaying a cached failure is sound, while successful moves re-run
    the check because committing consumes fresh names. *)

open Vliw_ir
module Alias = Vliw_analysis.Alias
module Machine = Vliw_machine.Machine
module Metrics = Grip_obs.Metrics

type failure = Legality.failure =
  | Not_adjacent  (** [to_] is not a predecessor of [from_] *)
  | Op_not_found
  | Guarded  (** still under a conditional of [from_]'s tree *)
  | True_dependence of Operation.t
  | Mem_dependence of Operation.t
  | Write_live of Reg.t
  | No_room

type report = {
  op : Operation.t;  (** the operation as it now appears in [to_] *)
  renamed : (Reg.t * Reg.t) option;  (** (old destination, fresh) *)
  split : int option;  (** clone node id for the other ways into [from_] *)
  deleted_from : bool;  (** [from_] became empty and was removed *)
}

let pp_failure = Legality.pp_failure

exception Fail of failure

(* Forward [op]'s source operands through copies present in [to_] on a
   compatible path: a read of [d] where [to_] holds [d <- src] becomes
   a read of [src].  Raises [Fail (True_dependence def)] when a source
   is defined by a path-compatible non-copy op of [to_], or when
   forwarding cannot compose.  [def_in_to r] must be the first op of
   [to_] (in instruction order) defining [r] on a compatible path. *)
let forward_sources_with ~def_in_to (op : Operation.t) =
  let step op =
    let changed = ref false in
    let op' =
      Operation.map_operands
        (fun o ->
          List.fold_left
            (fun o r ->
              match def_in_to r with
              | None -> o
              | Some (def : Operation.t) -> (
                  match def.Operation.kind with
                  | Operation.Copy (d, src) -> (
                      match Operand.forward o ~copy_dst:d ~copy_src:src with
                      | Some o' ->
                          if not (Operand.equal o o') then changed := true;
                          o'
                      | None -> raise (Fail (True_dependence def)))
                  | _ -> raise (Fail (True_dependence def))))
            o (Operand.regs o))
        op
    in
    (op', !changed)
  in
  let rec fix op fuel =
    if fuel = 0 then raise (Fail (True_dependence op))
    else
      let op', changed = step op in
      if changed then fix op' (fuel - 1) else op'
  in
  fix op 8

let forward_sources ?(landing = []) (to_node : Node.t) op =
  (* Fast path: when no source register of [op] has any path-compatible
     definition in [to_], forwarding is the identity — skip the rebuild
     loop entirely (the common case: most checked moves find nothing to
     forward, and the loop allocates a fresh operation per round). *)
  let has_def r =
    List.exists
      (fun (o : Operation.t) ->
        Operation.defines_reg o r
        && Operation.guard_compatible o.Operation.guard landing)
      to_node.Node.ops
  in
  if not (Operation.exists_src_reg has_def op) then op
  else
    forward_sources_with op ~def_in_to:(fun r ->
        List.find_opt
          (fun (o : Operation.t) ->
            Operation.defines_reg o r
            && Operation.guard_compatible o.Operation.guard landing)
          to_node.Node.ops)

(* Reference implementation: scan [to_node.ops] for defining ops. *)
let forward_sources_scan ?(landing = []) (to_node : Node.t) op =
  forward_sources_with op ~def_in_to:(fun r ->
      List.find_opt
        (fun (o : Operation.t) ->
          Operation.defines_reg o r
          && Operation.guard_compatible o.Operation.guard landing)
        to_node.Node.ops)

(* Decide legality; returns the op as it will appear in [to_] plus the
   renaming performed, or raises [Fail]. *)
let check (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  let p = ctx.Ctx.program in
  if from_ = to_ then raise (Fail Not_adjacent);
  let to_node = Program.node p to_ and from_node = Program.node p from_ in
  let landing =
    match Ctree.path_to to_node.Node.ctree from_ with
    | Some path -> path
    | None -> raise (Fail Not_adjacent)
  in
  (* plain ops only: a conditional jump with this id is Move_cj's
     business *)
  let op =
    match Program.stored_op p op_id with
    | Some op
      when Program.home_int p op_id = from_ && not (Operation.is_cjump op) ->
        op
    | Some _ | None -> raise (Fail Op_not_found)
  in
  if op.Operation.guard <> [] then raise (Fail Guarded);
  (* 1. true dependences, forwarding through copies in to_ *)
  let op = forward_sources ~landing to_node op in
  (* 2. memory dependences against path-compatible ops of to_
     ([Alias.mem_conflict] needs memory accesses on both sides, so only
     the loads/stores of to_ can witness one — and only when the moved
     op itself touches memory) *)
  if Operation.mem_access op <> None then (
    match
      List.find_opt
        (fun (o : Operation.t) ->
          Operation.mem_access o <> None
          && Operation.guard_compatible o.Operation.guard landing
          && Alias.mem_conflict o op)
        to_node.Node.ops
    with
    | Some o -> raise (Fail (Mem_dependence o))
    | None -> ());
  (* 3. resource room at to_ (packed per-node counters, no scan) *)
  if not (Machine.room_for_packed ctx.Ctx.machine (Program.counts_packed p to_) op)
  then raise (Fail No_room);
  (* 4. move-past-read and same-destination conflicts *)
  let op = { op with Operation.guard = landing } in
  match Operation.def op with
  | None -> (op, None)
  | Some d ->
      let past_read =
        List.exists
          (fun (o : Operation.t) ->
            o.Operation.id <> op_id && Operation.reads_reg o d)
          from_node.Node.ops
        || Ctree.exists_cjump
             (fun (o : Operation.t) -> Operation.reads_reg o d)
             from_node.Node.ctree
      in
      (* one definition of a register per instruction, program-wide *)
      let output_conflict =
        List.exists
          (fun (o : Operation.t) -> Operation.defines_reg o d)
          to_node.Node.ops
      in
      if past_read || output_conflict then
        if ctx.Ctx.rename then
          let fresh = Program.fresh_reg p in
          (Operation.with_def op fresh, Some (d, fresh))
        else raise (Fail (Write_live d))
      else (op, None)

(* The original list-scanning legality check, kept verbatim as the
   oracle for {!check}: identical decision and identical failure on
   every input (see test_index.ml). *)
let check_scan (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  let p = ctx.Ctx.program in
  if from_ = to_ then raise (Fail Not_adjacent);
  let to_node = Program.node p to_ and from_node = Program.node p from_ in
  let landing =
    match Ctree.path_to to_node.Node.ctree from_ with
    | Some path -> path
    | None -> raise (Fail Not_adjacent)
  in
  let op =
    match
      List.find_opt
        (fun (o : Operation.t) -> o.Operation.id = op_id)
        from_node.Node.ops
    with
    | Some op -> op
    | None -> raise (Fail Op_not_found)
  in
  if op.Operation.guard <> [] then raise (Fail Guarded);
  let op = forward_sources_scan ~landing to_node op in
  (match
     List.find_opt
       (fun (o : Operation.t) ->
         Operation.guard_compatible o.Operation.guard landing
         && Alias.mem_conflict o op)
       to_node.Node.ops
   with
  | Some o -> raise (Fail (Mem_dependence o))
  | None -> ());
  if not (Machine.room_for_scan ctx.Ctx.machine to_node op) then
    raise (Fail No_room);
  let op = { op with Operation.guard = landing } in
  match Operation.def op with
  | None -> (op, None)
  | Some d ->
      let past_read =
        List.exists
          (fun (o : Operation.t) ->
            o.Operation.id <> op_id && Operation.reads_reg o d)
          from_node.Node.ops
        || List.exists
             (fun (cj : Operation.t) -> Operation.reads_reg cj d)
             (Ctree.cjumps from_node.Node.ctree)
      in
      let output_conflict =
        List.exists
          (fun (o : Operation.t) -> Operation.defines_reg o d)
          to_node.Node.ops
      in
      if past_read || output_conflict then
        if ctx.Ctx.rename then
          let fresh = Program.fresh_reg p in
          (Operation.with_def op fresh, Some (d, fresh))
        else raise (Fail (Write_live d))
      else (op, None)

(* Redirect every way into [from_] except the landing path to a fresh
   clone still containing the operation; returns the clone id if one
   was needed. *)
let isolate_landing (ctx : Ctx.t) ~from_ ~to_ =
  let p = ctx.Ctx.program in
  let from_node = Program.node p from_ in
  let other_preds =
    Program.preds_of p from_
    |> List.filter (fun q -> q <> to_)
    |> List.sort_uniq Int.compare
  in
  let to_node = Program.node p to_ in
  let extra_paths = Ctree.all_paths_to to_node.Node.ctree from_ > 1 in
  if other_preds = [] && not extra_paths then None
  else begin
    let clone_ops, clone_tree =
      Program.clone_instruction p ~ops:from_node.Node.ops
        ~ctree:from_node.Node.ctree
    in
    let clone = Program.fresh_node p ~ops:clone_ops ~ctree:clone_tree in
    List.iter
      (fun q -> Program.redirect p ~from_:q ~old_:from_ ~new_:clone.Node.id)
      other_preds;
    if extra_paths then begin
      (* keep the first (pre-order) leaf on from_, clone the rest *)
      let first = ref true in
      let rec rewrite = function
        | Ctree.Leaf s when s = from_ ->
            if !first then (
              first := false;
              Ctree.Leaf s)
            else Ctree.Leaf clone.Node.id
        | Ctree.Leaf s -> Ctree.Leaf s
        | Ctree.Branch (j, a, b) -> Ctree.Branch (j, rewrite a, rewrite b)
      in
      Program.set_ctree p to_ (rewrite (Program.node p to_).Node.ctree)
    end;
    Some clone.Node.id
  end

(* Apply a legality-checked move. *)
let commit (ctx : Ctx.t) ~from_ ~to_ ~op_id (moved_op, renamed) =
  let p = ctx.Ctx.program in
  let op = Option.get (Program.stored_op p op_id) in
  let split = isolate_landing ctx ~from_ ~to_ in
  (* remove from from_, repairing with a copy if renamed *)
  Program.remove_op p from_ op_id;
  (match renamed with
  | Some (d, fresh) ->
      let copy =
        Operation.make
          ~id:(Program.fresh_op_id p)
          ~iter:op.Operation.iter ~lineage:op.Operation.lineage
          ~src_pos:op.Operation.src_pos
          (Operation.Copy (d, Operand.Reg fresh))
      in
      Program.add_op p from_ copy
  | None -> ());
  (* land in to_ *)
  Program.add_op p to_ moved_op;
  (* delete from_ if now empty *)
  let deleted_from =
    let fn = Program.node p from_ in
    if Node.is_empty fn then begin
      Program.delete_node p from_;
      true
    end
    else false
  in
  Ctx.maybe_gc ctx;
  { op = moved_op; renamed; split; deleted_from }

(* Run [check], consulting the per-version verdict cache first.  A
   memoized failure short-circuits (checking mutates nothing on the
   failure paths); a memoized success still re-runs the check, whose
   decision — forwarded operands, fresh rename — is needed to commit. *)
let cached_check (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  match Ctx.legality_find ctx ~from_ ~to_ ~op_id with
  | Some (Error f) -> raise (Fail f)
  | Some (Ok ()) | None -> (
      match check ctx ~from_ ~to_ ~op_id with
      | decision ->
          Ctx.legality_store ctx ~from_ ~to_ ~op_id (Ok ());
          decision
      | exception Fail f ->
          Ctx.legality_store ctx ~from_ ~to_ ~op_id (Error f);
          raise (Fail f))

(** [move ctx ~from_ ~to_ ~op_id] attempts the transformation; on
    [Error _] the program is unchanged. *)
let move (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  let m = ctx.Ctx.obs.Grip_obs.metrics in
  let t0 = if Metrics.enabled m then Unix.gettimeofday () else 0.0 in
  let result =
    match cached_check ctx ~from_ ~to_ ~op_id with
    | exception Fail f -> Error f
    | decision -> Ok decision
  in
  if Metrics.enabled m then
    Metrics.add_time m "legality.check" (Unix.gettimeofday () -. t0);
  match result with
  | Error f -> Error f
  | Ok decision -> Ok (commit ctx ~from_ ~to_ ~op_id decision)

(** [would_move ctx ~from_ ~to_ ~op_id] is the legality test alone —
    used by the Unifiable-ops baseline and by the Gapless search, which
    must ask "could X move?" without mutating the program.  Verdicts
    are served from the per-version cache when available. *)
let would_move (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  match Ctx.legality_find ctx ~from_ ~to_ ~op_id with
  | Some v -> v
  | None ->
      let v =
        match check ctx ~from_ ~to_ ~op_id with
        | exception Fail f -> Error f
        | _ -> Ok ()
      in
      Ctx.legality_store ctx ~from_ ~to_ ~op_id v;
      v

(** [would_move_scan ctx ~from_ ~to_ ~op_id] — the uncached,
    list-scanning legality test: the oracle {!would_move} is compared
    against by the property suite. *)
let would_move_scan (ctx : Ctx.t) ~from_ ~to_ ~op_id =
  match check_scan ctx ~from_ ~to_ ~op_id with
  | exception Fail f -> Error f
  | _ -> Ok ()
