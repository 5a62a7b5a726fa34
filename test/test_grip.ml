(* The GRiP core: unwinding, ranking, gap prevention, the scheduler,
   baselines, convergence detection and speedup measurement. *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module State = Vliw_sim.State
module Exec = Vliw_sim.Exec
module Oracle = Vliw_sim.Oracle

let reg = Reg.of_int
let imm n = Operand.Imm (Value.I n)

let abc = Workloads.Paper_examples.abc
let abcdefg = Workloads.Paper_examples.abcdefg

let check_wf p = Alcotest.(check (list string)) "well-formed" [] (Wellformed.check p)

let fits_everywhere machine p =
  Program.fold_nodes p
    (fun n acc -> acc && (Program.is_exit p n.Node.id || Machine.fits machine n))
    true

(* -- unwinding ---------------------------------------------------------- *)

let test_unwind_shape () =
  let u = Grip.Unwind.build abc ~horizon:4 in
  let p = u.Grip.Unwind.program in
  check_wf p;
  (* entry + 2 pre + 4 * (3 body + latch) + exit *)
  Alcotest.(check int) "nodes" (1 + 2 + (4 * 4) + 1) (Program.n_nodes p);
  Alcotest.(check int) "ops/iter" 4 (Grip.Unwind.ops_per_iteration u)

let test_unwind_equivalent_to_rolled () =
  (* executing the unwound program with n < horizon matches the rolled
     loop *)
  let rolled = (Grip.Kernel.rolled abc).Builder.program in
  let u = Grip.Unwind.build abc ~horizon:8 in
  List.iter
    (fun n ->
      let init = Grip.Kernel.initial_state ~n abc ~data:Grip.Kernel.default_data in
      match
        Oracle.equivalent ~observable:abc.Grip.Kernel.observable ~init rolled
          u.Grip.Unwind.program
      with
      | Ok _ -> ()
      | Error ms ->
          Alcotest.failf "n=%d: %s" n
            (String.concat "; "
               (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms)))
    [ 1; 3; 7 ]

let test_unwind_folds_induction () =
  (* no induction increments inside the unwound copies: uses become
     Regoff and the only adds are the kernel's own *)
  let u = Grip.Unwind.build abc ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let incr_ops =
    List.filter
      (fun (op : Operation.t) ->
        match op.Operation.kind with
        | Operation.Binop (Opcode.Add, d, _, _) ->
            Reg.equal d abc.Grip.Kernel.ivar
        | _ -> false)
      (Program.all_ops p)
  in
  Alcotest.(check int) "no ivar increments" 0 (List.length incr_ops)

let test_unwind_renames_body_locals () =
  (* abc's reg 3 (b's destination, read by c) is body-local: each copy
     must write a distinct register *)
  let u = Grip.Unwind.build abc ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let b_defs =
    List.filter_map
      (fun (op : Operation.t) ->
        if op.Operation.src_pos = 1 && op.Operation.iter >= 0 then
          Operation.def op
        else None)
      (Program.all_ops p)
  in
  Alcotest.(check int) "three copies of b" 3 (List.length b_defs);
  Alcotest.(check int) "three distinct destinations" 3
    (List.length (List.sort_uniq Reg.compare b_defs))

let test_unwind_keeps_recurrence_regs () =
  (* the accumulator (reg 2, a's destination and source) must stay the
     same register in every copy *)
  let u = Grip.Unwind.build abc ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let a_defs =
    List.filter_map
      (fun (op : Operation.t) ->
        if op.Operation.src_pos = 0 && op.Operation.iter >= 0 then
          Operation.def op
        else None)
      (Program.all_ops p)
  in
  Alcotest.(check int) "one shared accumulator" 1
    (List.length (List.sort_uniq Reg.compare a_defs))

(* -- ranking ------------------------------------------------------------ *)

let test_rank_iteration_major () =
  let mk iter pos =
    Operation.make ~id:(iter * 100 + pos) ~iter ~lineage:pos ~src_pos:pos
      (Operation.Copy (reg (50 + pos), imm 0))
  in
  let rank = Grip.Pipeline.default_rank abc in
  let sorted = Grip.Rank.sort rank [ mk 1 0; mk 0 2; mk 0 0; mk 1 2 ] in
  let keys = List.map (fun (o : Operation.t) -> (o.Operation.iter, o.Operation.src_pos)) sorted in
  Alcotest.(check bool) "iteration-major" true
    (keys = [ (0, 0); (0, 2); (1, 0); (1, 2) ])

let test_rank_prefers_long_chains () =
  (* in abcdefg, a roots a 3-op chain, d a 2-op chain: a ranks first *)
  let rank = Grip.Pipeline.default_rank abcdefg in
  let mk pos =
    Operation.make ~id:pos ~iter:0 ~lineage:pos ~src_pos:pos
      (Operation.Copy (reg (50 + pos), imm 0))
  in
  match Grip.Rank.sort rank [ mk 3 (* d *); mk 0 (* a *) ] with
  | first :: _ -> Alcotest.(check int) "a first" 0 first.Operation.src_pos
  | [] -> Alcotest.fail "empty"

(* -- scheduling --------------------------------------------------------- *)

let run_grip ?(machine = Machine.unlimited) ?(gap = true) kern ~horizon =
  Grip.Pipeline.run kern ~machine ~horizon
    ~method_:(if gap then Grip.Pipeline.Grip else Grip.Pipeline.Grip_no_gap)

let test_grip_abc_converges () =
  let o = run_grip abc ~horizon:10 in
  check_wf o.Grip.Pipeline.program;
  match o.Grip.Pipeline.pattern with
  | Some p ->
      Alcotest.(check int) "period 1" 1 p.Grip.Convergence.period;
      Alcotest.(check int) "delta 1" 1 p.Grip.Convergence.delta
  | None -> Alcotest.fail "abc must converge"

let test_grip_preserves_semantics () =
  let o = run_grip abc ~horizon:10 in
  match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error ms ->
      Alcotest.failf "%s"
        (String.concat "; " (List.map (Format.asprintf "%a" Oracle.pp_mismatch) ms))

let test_grip_respects_machine () =
  List.iter
    (fun fu ->
      let machine = Machine.homogeneous fu in
      let o = run_grip abcdefg ~machine ~horizon:8 in
      check_wf o.Grip.Pipeline.program;
      Alcotest.(check bool)
        (Printf.sprintf "all nodes fit %d FUs" fu)
        true
        (fits_everywhere machine o.Grip.Pipeline.program))
    [ 1; 2; 3 ]

let test_grip_mixed_period_gapless () =
  (* abcdefg has a 2-row recurrence: gapless scheduling converges at 2
     cycles/iteration *)
  let o = run_grip abcdefg ~horizon:10 in
  match o.Grip.Pipeline.static_cpi with
  | Some cpi -> Alcotest.(check (float 0.01)) "cpi 2" 2.0 cpi
  | None -> Alcotest.fail "must converge"

let test_no_gap_diverges_on_mixed_period () =
  let o = run_grip ~gap:false abcdefg ~horizon:10 in
  Alcotest.(check bool) "no repeating window" true (o.Grip.Pipeline.pattern = None)

let test_no_gap_still_sound () =
  let o = run_grip ~gap:false abcdefg ~horizon:10 in
  match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "gap-less ablation must stay semantics-preserving"

let test_scheduler_stats_sane () =
  let u = Grip.Unwind.build abc ~horizon:6 in
  let ctx =
    Ctx.make u.Grip.Unwind.program ~machine:(Machine.homogeneous 4)
      ~exit_live:(Grip.Kernel.exit_live abc)
  in
  let st =
    Grip.Scheduler.run
      {
        (Grip.Scheduler.default_config ~rank:(Grip.Pipeline.default_rank abc)) with
        Grip.Scheduler.gap_prevention = true;
      }
      ctx
  in
  Alcotest.(check bool) "made progress" true (st.Grip.Scheduler.hops > 0);
  Alcotest.(check bool) "scheduled nodes" true (st.Grip.Scheduler.nodes_scheduled > 0)

(* -- gapless test conditions -------------------------------------------- *)

let test_gapless_cond1_only_op () =
  (* single-op node: always moveable (node gets deleted) *)
  let u = Grip.Unwind.build abc ~horizon:3 in
  let p = u.Grip.Unwind.program in
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:(Grip.Kernel.exit_live abc) in
  (* first body node of iteration 0 holds only a0 *)
  let a0_home = u.Grip.Unwind.heads.(0) in
  let a0 = List.hd (Program.node p a0_home).Node.ops in
  let preds = Program.preds p in
  let pred = List.hd (Hashtbl.find preds a0_home) in
  Alcotest.(check bool) "cond 1 allows" true
    (Grip.Gapless.ok ctx ~from_:a0_home ~to_:pred ~op:a0)

let test_gapless_blocks_abandoning_iteration () =
  (* craft: node holds {x_of_iter1, y_of_iter0}; below: z of iter 1
     that cannot fill the hole because it depends on y, which stays.
     Moving x out must be vetoed. *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let mk ~id ~iter ~pos kind = Operation.make ~id ~iter ~lineage:pos ~src_pos:pos kind in
  let x = mk ~id:1 ~iter:1 ~pos:0 (Operation.Binop (Opcode.Add, reg 10, Operand.Reg (reg 20), imm 1)) in
  let y = mk ~id:2 ~iter:0 ~pos:1 (Operation.Binop (Opcode.Add, reg 11, Operand.Reg (reg 21), imm 5)) in
  let z = mk ~id:3 ~iter:1 ~pos:2 (Operation.Binop (Opcode.Add, reg 12, Operand.Reg (reg 11), imm 1)) in
  let below = Program.fresh_node p ~ops:[ z ] ~ctree:(Ctree.leaf exit_) in
  let mid = Program.fresh_node p ~ops:[ x; y ] ~ctree:(Ctree.leaf below.Node.id) in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:mid.Node.id;
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:Reg.Set.empty in
  Alcotest.(check bool) "moving x would orphan iteration 1" false
    (Grip.Gapless.ok ctx ~from_:mid.Node.id ~to_:p.Program.entry ~op:x);
  (* y, by contrast, is the last op of iteration 0: cond 3 allows *)
  Alcotest.(check bool) "y allowed by cond 3" true
    (Grip.Gapless.ok ctx ~from_:mid.Node.id ~to_:p.Program.entry ~op:y)

let test_gapless_cond4_filler () =
  (* moving x of iter 0 out of mid is fine when below holds w of iter 0
     that can move up to fill *)
  let p = Program.create () in
  let exit_ = p.Program.exit_id in
  let mk ~id ~iter ~pos kind = Operation.make ~id ~iter ~lineage:pos ~src_pos:pos kind in
  let x = mk ~id:1 ~iter:0 ~pos:0 (Operation.Copy (reg 10, imm 1)) in
  let other = mk ~id:2 ~iter:1 ~pos:1 (Operation.Copy (reg 11, imm 2)) in
  let w = mk ~id:3 ~iter:0 ~pos:2 (Operation.Copy (reg 12, imm 3)) in
  let last = mk ~id:4 ~iter:0 ~pos:3 (Operation.Copy (reg 13, imm 4)) in
  let deep = Program.fresh_node p ~ops:[ last ] ~ctree:(Ctree.leaf exit_) in
  let below = Program.fresh_node p ~ops:[ w ] ~ctree:(Ctree.leaf deep.Node.id) in
  let mid = Program.fresh_node p ~ops:[ x; other ] ~ctree:(Ctree.leaf below.Node.id) in
  Program.redirect p ~from_:p.Program.entry ~old_:exit_ ~new_:mid.Node.id;
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:Reg.Set.empty in
  Alcotest.(check bool) "cond 4 filler found" true
    (Grip.Gapless.ok ctx ~from_:mid.Node.id ~to_:p.Program.entry ~op:x)

(* -- convergence detection ---------------------------------------------- *)

let row cells = { Grip.Schedule_table.node = 0; cells }

let test_convergence_detects_period () =
  (* rows: {a_i, b_(i-1)} repeating with delta 1 *)
  let rows =
    List.init 8 (fun i -> row (if i = 0 then [ (0, 0) ] else [ (0, i); (1, i - 1) ]))
  in
  match Grip.Convergence.detect ~ignore_tail:0 ~body_positions:2 rows with
  | Some p ->
      Alcotest.(check int) "period" 1 p.Grip.Convergence.period;
      Alcotest.(check int) "delta" 1 p.Grip.Convergence.delta
  | None -> Alcotest.fail "pattern expected"

let test_convergence_rejects_incomplete_window () =
  (* position 1 vanishes from the steady region: a window of only
     position 0 must not count when 1 is still live for most iters *)
  let rows =
    List.init 8 (fun i -> row [ (0, i); (1, i) ])
    @ List.init 4 (fun i -> row [ (0, 8 + i) ])
  in
  (* the all-positions region repeats fine *)
  match Grip.Convergence.detect ~ignore_tail:0 ~body_positions:2 rows with
  | Some p -> Alcotest.(check int) "delta" 1 p.Grip.Convergence.delta
  | None -> Alcotest.fail "pattern expected in the complete region"

let test_convergence_spread_has_no_pattern () =
  (* row widths grow every row: no two rows can ever match *)
  let rows =
    List.init 8 (fun i -> row (List.init (i + 1) (fun j -> (j mod 2, i))))
  in
  Alcotest.(check bool) "no pattern" true
    (Grip.Convergence.detect ~ignore_tail:0 ~body_positions:2 rows = None)

let test_gap_counter () =
  let rows = [ row [ (0, 0) ]; row []; row [ (0, 1) ] ] in
  Alcotest.(check int) "one gap" 1 (Grip.Convergence.gaps rows)

(* -- baselines ----------------------------------------------------------- *)

let test_post_respects_machine () =
  let machine = Machine.homogeneous 2 in
  let o =
    Grip.Pipeline.run abcdefg ~machine ~method_:Grip.Pipeline.Post ~horizon:8
  in
  check_wf o.Grip.Pipeline.program;
  Alcotest.(check bool) "fits" true (fits_everywhere machine o.Grip.Pipeline.program);
  match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "POST must preserve semantics"

(* A body whose best-ranked ops each need a rename to move up.  A
   renaming move leaves a copy behind, so breaking by renaming never
   shrinks the node and can go on forever; breaking must refuse
   renames.  The deadline turns a hang into a failure. *)
let test_post_breaking_terminates () =
  let kern =
    Workloads.Synthetic.generate
      {
        Workloads.Synthetic.seed = 869289;
        n_ops = 10;
        n_arrays = 1;
        p_load = 0x1.23e8f02b3e058p-2;
        p_store = 0x1.28191087f054fp-4;
        p_recurrence = 0x1.872ea47559509p-2;
      }
  in
  let machine = Machine.homogeneous 2 in
  List.iter
    (fun horizon ->
      let budget = Grip_robust.Budget.make ~deadline:20.0 () in
      let o =
        Grip.Pipeline.run kern ~machine ~method_:Grip.Pipeline.Post ~horizon
          ~budget
      in
      check_wf o.Grip.Pipeline.program;
      Alcotest.(check bool) "fits" true (fits_everywhere machine o.Grip.Pipeline.program);
      match Grip.Pipeline.check o with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "horizon %d: POST must preserve semantics" horizon)
    [ 3; 6 ]

let test_unifiable_schedules () =
  let machine = Machine.homogeneous 2 in
  let o =
    Grip.Pipeline.run abc ~machine ~method_:Grip.Pipeline.Unifiable ~horizon:6
  in
  check_wf o.Grip.Pipeline.program;
  Alcotest.(check bool) "fits" true (fits_everywhere machine o.Grip.Pipeline.program);
  match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Unifiable must preserve semantics"

let test_unifiable_set_excludes_chained () =
  let u = Grip.Unwind.build abcdefg ~horizon:2 in
  let p = u.Grip.Unwind.program in
  let ctx = Ctx.make p ~machine:Machine.unlimited ~exit_live:(Grip.Kernel.exit_live abcdefg) in
  let ddg = Grip.Pipeline.ddg_of abcdefg in
  (* head of iteration 0 holds a0; b0 (depends on a0) must be excluded
     from Unifiable(head), d0 (independent chain) included *)
  let head = u.Grip.Unwind.heads.(0) in
  let set = Grip.Unifiable.set ctx ~ddg ~horizon:2 head in
  let poss = List.map (fun (o : Operation.t) -> (o.Operation.src_pos, o.Operation.iter)) set in
  Alcotest.(check bool) "b0 excluded" false (List.mem (1, 0) poss);
  Alcotest.(check bool) "d0 included" true (List.mem (3, 0) poss);
  Alcotest.(check bool) "a1 excluded (carried chain)" false (List.mem (0, 1) poss)

(* -- speedup measurement -------------------------------------------------- *)

(* -- modulo and list scheduling baselines -------------------------------- *)

let test_modulo_recurrence_bound () =
  (* abc: a -> a carried chain of length 1 => recurrence MII 1; with
     4 ops (body + control test) and 2 FUs the resource bound (2)
     dominates *)
  let m = Grip.Modulo.schedule abc ~machine:(Machine.homogeneous 2) in
  Alcotest.(check int) "resource mii" 2 m.Grip.Modulo.mii_resource;
  Alcotest.(check bool) "ii >= mii" true (m.Grip.Modulo.ii >= 2)

let test_modulo_recurrence_dominates () =
  (* abcdefg's f<->g cycle: length 2 distance 1 => recurrence MII 2,
     binding on a wide machine *)
  let m = Grip.Modulo.schedule abcdefg ~machine:(Machine.homogeneous 8) in
  Alcotest.(check int) "recurrence mii" 2 m.Grip.Modulo.mii_recurrence;
  Alcotest.(check bool) "ii = 2" true (m.Grip.Modulo.ii = 2)

let test_modulo_schedule_legal () =
  (* every flow arc respected: t(dst) >= t(src) + 1 - II*dist *)
  let kern = abcdefg in
  let machine = Machine.homogeneous 4 in
  let m = Grip.Modulo.schedule kern ~machine in
  let kinds = kern.Grip.Kernel.body @ [ List.nth (Grip.Kernel.control kern) 1 ] in
  let ops = List.mapi (fun i k -> Operation.make ~id:i ~src_pos:i k) kinds in
  let ddg = Vliw_analysis.Ddg.build ~ivar:(kern.Grip.Kernel.ivar, 1) ops in
  let time = Array.make (List.length kinds) 0 in
  List.iter (fun (pos, t) -> time.(pos) <- t) m.Grip.Modulo.schedule;
  List.iter
    (fun (a : Vliw_analysis.Ddg.arc) ->
      match a.Vliw_analysis.Ddg.kind with
      | Vliw_analysis.Ddg.Flow | Vliw_analysis.Ddg.Mem ->
          let slack =
            time.(a.Vliw_analysis.Ddg.dst) + (m.Grip.Modulo.ii * a.Vliw_analysis.Ddg.dist)
            - time.(a.Vliw_analysis.Ddg.src)
          in
          if slack < 1 then
            Alcotest.failf "arc %d->%d dist %d violated (slack %d)"
              a.Vliw_analysis.Ddg.src a.Vliw_analysis.Ddg.dst
              a.Vliw_analysis.Ddg.dist slack
      | _ -> ())
    ddg.Vliw_analysis.Ddg.arcs;
  (* modulo resource usage within width *)
  let usage = Array.make m.Grip.Modulo.ii 0 in
  List.iter
    (fun (_, t) -> usage.(t mod m.Grip.Modulo.ii) <- usage.(t mod m.Grip.Modulo.ii) + 1)
    m.Grip.Modulo.schedule;
  Array.iter (fun u -> Alcotest.(check bool) "within width" true (u <= 4)) usage

let test_list_scheduler_no_overlap () =
  (* one iteration of abc: chain a->b->c plus control: at least the
     chain length in cycles, independent of width *)
  let t8 = Grip.List_scheduler.schedule abc ~machine:(Machine.homogeneous 8) in
  Alcotest.(check bool) "chain bound" true (t8.Grip.List_scheduler.cycles >= 3);
  let t1 = Grip.List_scheduler.schedule abc ~machine:(Machine.homogeneous 1) in
  Alcotest.(check int) "serialises at width 1" 5 t1.Grip.List_scheduler.cycles

let test_locality_ordering () =
  (* list <= modulo <= GRiP on a parallel kernel *)
  let e = Option.get (Workloads.Livermore.find "LL12") in
  let kern = e.Workloads.Livermore.kernel in
  let machine = Machine.homogeneous 4 in
  let ls = Grip.List_scheduler.speedup kern (Grip.List_scheduler.schedule kern ~machine) in
  let mo = Grip.Modulo.speedup kern (Grip.Modulo.schedule kern ~machine) in
  let o = Grip.Pipeline.run kern ~machine ~method_:Grip.Pipeline.Grip ~horizon:16 in
  let gr = (Grip.Pipeline.measure ~data:e.Workloads.Livermore.data o).Grip.Speedup.speedup in
  Alcotest.(check bool)
    (Printf.sprintf "list %.2f <= modulo %.2f <= grip %.2f" ls mo gr)
    true
    (ls <= mo +. 0.01 && mo <= gr +. 0.01)

(* -- speculation policy --------------------------------------------------- *)

let test_speculation_policies_sound () =
  List.iter
    (fun spec ->
      let o =
        Grip.Pipeline.run abcdefg ~machine:(Machine.homogeneous 4)
          ~method_:Grip.Pipeline.Grip ~horizon:8 ~speculation:spec
      in
      check_wf o.Grip.Pipeline.program;
      match Grip.Pipeline.check o with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "speculation policy broke semantics")
    [ Grip.Scheduler.Always; Grip.Scheduler.Resource_aware 0.5;
      Grip.Scheduler.Resource_aware 0.0 ]

let test_speculation_zero_blocks_guarded_ops () =
  (* with threshold 0.0, no plain op may land guarded above a branch *)
  let o =
    Grip.Pipeline.run abc ~machine:(Machine.homogeneous 4)
      ~method_:Grip.Pipeline.Grip ~horizon:8
      ~speculation:(Grip.Scheduler.Resource_aware 0.0)
  in
  let p = o.Grip.Pipeline.program in
  let guarded =
    List.filter
      (fun (op : Operation.t) ->
        (not (Operation.is_cjump op)) && op.Operation.guard <> [])
      (Program.all_ops p)
  in
  Alcotest.(check int) "no guarded plain ops" 0 (List.length guarded)

let test_speedup_identity () =
  (* scheduling with a 1-wide machine cannot beat sequential by much;
     speedup must stay close to 1 *)
  let machine = Machine.homogeneous 1 in
  let o = Grip.Pipeline.run abc ~machine ~method_:Grip.Pipeline.Grip ~horizon:16 in
  let m = Grip.Pipeline.measure o in
  Alcotest.(check bool)
    (Printf.sprintf "1-FU speedup %.2f in [0.8, 1.7]" m.Grip.Speedup.speedup)
    true
    (m.Grip.Speedup.speedup >= 0.8 && m.Grip.Speedup.speedup <= 1.7)

let test_speedup_monotone_in_width () =
  let sp fu =
    let o =
      Grip.Pipeline.run abc ~machine:(Machine.homogeneous fu)
        ~method_:Grip.Pipeline.Grip ~horizon:16
    in
    (Grip.Pipeline.measure o).Grip.Speedup.speedup
  in
  let s2 = sp 2 and s4 = sp 4 in
  Alcotest.(check bool)
    (Printf.sprintf "s4 (%.2f) >= s2 (%.2f) - eps" s4 s2)
    true (s4 >= s2 -. 0.11)

(* Starving the migration budget must be reported, not silently
   accepted: the truncated schedule stays legal but the stats (and the
   pipeline outcome) flag the exhaustion. *)
let test_fuel_exhaustion_reported () =
  let o =
    Grip.Pipeline.run abc ~machine:(Machine.homogeneous 2)
      ~method_:Grip.Pipeline.Grip ~horizon:16 ~max_migrations:3
  in
  Alcotest.(check bool) "flagged" true o.Grip.Pipeline.fuel_exhausted;
  (match Grip.Pipeline.check o with
  | Ok _ -> ()
  | Error ms ->
      Alcotest.failf "truncated schedule must stay sound (%d mismatches)"
        (List.length ms));
  let o' =
    Grip.Pipeline.run abc ~machine:(Machine.homogeneous 2)
      ~method_:Grip.Pipeline.Grip ~horizon:16
  in
  Alcotest.(check bool) "default budget suffices" false
    o'.Grip.Pipeline.fuel_exhausted

let () =
  Alcotest.run "grip"
    [
      ( "unwind",
        [
          Alcotest.test_case "shape" `Quick test_unwind_shape;
          Alcotest.test_case "equivalent to rolled" `Quick test_unwind_equivalent_to_rolled;
          Alcotest.test_case "folds induction" `Quick test_unwind_folds_induction;
          Alcotest.test_case "renames body locals" `Quick test_unwind_renames_body_locals;
          Alcotest.test_case "keeps recurrences" `Quick test_unwind_keeps_recurrence_regs;
        ] );
      ( "rank",
        [
          Alcotest.test_case "iteration major" `Quick test_rank_iteration_major;
          Alcotest.test_case "prefers long chains" `Quick test_rank_prefers_long_chains;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "abc converges" `Quick test_grip_abc_converges;
          Alcotest.test_case "preserves semantics" `Quick test_grip_preserves_semantics;
          Alcotest.test_case "respects machine" `Quick test_grip_respects_machine;
          Alcotest.test_case "mixed-period gapless" `Quick test_grip_mixed_period_gapless;
          Alcotest.test_case "no-gap diverges" `Quick test_no_gap_diverges_on_mixed_period;
          Alcotest.test_case "no-gap still sound" `Quick test_no_gap_still_sound;
          Alcotest.test_case "stats sane" `Quick test_scheduler_stats_sane;
          Alcotest.test_case "fuel exhaustion reported" `Quick
            test_fuel_exhaustion_reported;
        ] );
      ( "gapless",
        [
          Alcotest.test_case "cond1 only-op" `Quick test_gapless_cond1_only_op;
          Alcotest.test_case "blocks abandonment" `Quick test_gapless_blocks_abandoning_iteration;
          Alcotest.test_case "cond4 filler" `Quick test_gapless_cond4_filler;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "detects period" `Quick test_convergence_detects_period;
          Alcotest.test_case "partial positions" `Quick test_convergence_rejects_incomplete_window;
          Alcotest.test_case "spread has no pattern" `Quick test_convergence_spread_has_no_pattern;
          Alcotest.test_case "gap counter" `Quick test_gap_counter;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "POST respects machine" `Quick test_post_respects_machine;
          Alcotest.test_case "POST breaking terminates" `Quick
            test_post_breaking_terminates;
          Alcotest.test_case "Unifiable schedules" `Quick test_unifiable_schedules;
          Alcotest.test_case "Unifiable set" `Quick test_unifiable_set_excludes_chained;
        ] );
      ( "speedup",
        [
          Alcotest.test_case "1-FU identity" `Quick test_speedup_identity;
          Alcotest.test_case "monotone in width" `Quick test_speedup_monotone_in_width;
        ] );
      ( "modulo+list",
        [
          Alcotest.test_case "resource bound" `Quick test_modulo_recurrence_bound;
          Alcotest.test_case "recurrence bound" `Quick test_modulo_recurrence_dominates;
          Alcotest.test_case "legal schedule" `Quick test_modulo_schedule_legal;
          Alcotest.test_case "list no overlap" `Quick test_list_scheduler_no_overlap;
          Alcotest.test_case "locality ordering" `Slow test_locality_ordering;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "policies sound" `Quick test_speculation_policies_sound;
          Alcotest.test_case "zero threshold" `Quick test_speculation_zero_blocks_guarded_ops;
        ] );
    ]
