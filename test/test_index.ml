(* Derived-state oracle: Program's flat stores, the incrementally
   maintained predecessor table, the packed-counts resource accounting
   and the memoized legality verdicts must be observationally identical
   to the retained list-scanning ("naive") implementations — on random
   programs and across random mutation sequences — and the coherence
   check itself must name a corrupted store.  Real schedules are
   pinned by the 126-cell digest check over the Table 1 artifact
   (bench/dune, in `dune runtest`). *)

open Vliw_ir
module Machine = Vliw_machine.Machine
module Ctx = Vliw_percolation.Ctx
module Move_op = Vliw_percolation.Move_op
module Synthetic = Workloads.Synthetic

let spec_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n_ops = int_range 3 10 in
    let* n_arrays = int_range 1 3 in
    let* p_load = float_range 0.1 0.5 in
    let* p_store = float_range 0.05 0.4 in
    let* p_recurrence = float_range 0.0 0.5 in
    return { Synthetic.seed; n_ops; n_arrays; p_load; p_store; p_recurrence })

let print_spec (s : Synthetic.spec) =
  Printf.sprintf "{seed=%d; n_ops=%d; n_arrays=%d; p=(%.2f,%.2f,%.2f)}"
    s.Synthetic.seed s.Synthetic.n_ops s.Synthetic.n_arrays s.Synthetic.p_load
    s.Synthetic.p_store s.Synthetic.p_recurrence

(* deterministic per-spec rng, as in test_props *)
let make_rng seed =
  let rng = ref seed in
  fun bound ->
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod bound

let failure_str f = Format.asprintf "%a" Move_op.pp_failure f

let verdicts_agree a b =
  match a, b with
  | Ok (), Ok () -> true
  | Error fa, Error fb -> String.equal (failure_str fa) (failure_str fb)
  | _ -> false

(* Every (pred, succ, op) move candidate of the current program. *)
let all_candidates p =
  List.concat_map
    (fun nid ->
      if Program.is_exit p nid then []
      else
        List.concat_map
          (fun s ->
            if Program.is_exit p s then []
            else
              List.map
                (fun (op : Operation.t) -> (s, nid, op.Operation.id))
                (Program.node p s).Node.ops)
          (Program.succs p nid))
    (Program.rpo p)

let machines =
  [
    Machine.homogeneous 2;
    Machine.homogeneous 4;
    Machine.homogeneous ~copies_free:true 4;
    Machine.typed ~alu:3 ~mem:1 ~branch:1 ();
  ]

(* 1. indexed would_move (memoized) == retained naive implementation,
   across a random mutation sequence; derived state stays coherent. *)
let prop_legality_equiv =
  QCheck2.Test.make ~name:"indexed legality == naive legality" ~count:30
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let u = Grip.Unwind.build kern ~horizon:4 in
      let p = u.Grip.Unwind.program in
      let ctx =
        Ctx.make p ~machine:(Machine.homogeneous 3)
          ~exit_live:(Grip.Kernel.exit_live kern)
      in
      let next = make_rng spec.Synthetic.seed in
      let ok = ref true in
      for _round = 1 to 6 do
        (* querying twice exercises the per-version verdict cache *)
        List.iter
          (fun (from_, to_, op_id) ->
            let naive = Move_op.would_move_scan ctx ~from_ ~to_ ~op_id in
            let indexed = Move_op.would_move ctx ~from_ ~to_ ~op_id in
            let cached = Move_op.would_move ctx ~from_ ~to_ ~op_id in
            if
              (not (verdicts_agree naive indexed))
              || not (verdicts_agree naive cached)
            then ok := false)
          (all_candidates p);
        (* mutate: a few random accepted moves, then recheck coherence *)
        for _ = 1 to 8 do
          match all_candidates p with
          | [] -> ()
          | cands ->
              let from_, to_, op_id = List.nth cands (next (List.length cands)) in
              ignore (Move_op.move ctx ~from_ ~to_ ~op_id)
        done;
        (match Program.check_derived_state p with
        | None -> ()
        | Some reason ->
            QCheck2.Test.fail_reportf "derived state incoherent: %s" reason)
      done;
      !ok)

(* [fits] by op-list scan: the reference for [Machine.fits_packed]. *)
let fits_scan (m : Machine.t) (n : Node.t) =
  let used cls =
    List.length
      (List.filter
         (fun o -> Machine.counted m o && Machine.class_of o = cls)
         (Node.all_ops n))
  in
  match m.Machine.shape with
  | Machine.Unlimited -> true
  | Machine.Homogeneous k -> Machine.slot_demand_scan m n <= k
  | Machine.Typed { alu; mem; branch } ->
      used Machine.Alu <= alu && used Machine.Mem <= mem
      && used Machine.Branch <= branch

(* 2. the packed-counts resource accounting the schedulers use ==
   op-list scans, on every node of GRiP- and POST-scheduled programs,
   for every machine shape. *)
let prop_room_for_equiv =
  QCheck2.Test.make ~name:"counts-based room_for == scan" ~count:30
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      List.for_all
        (fun method_ ->
          let o =
            Grip.Pipeline.run kern ~machine:(Machine.homogeneous 2) ~method_
              ~horizon:6
          in
          let p = o.Grip.Pipeline.program in
          let probe_ops =
            List.concat_map
              (fun nid ->
                if Program.is_exit p nid then []
                else Node.all_ops (Program.node p nid))
              (Program.rpo p)
          in
          List.for_all
            (fun m ->
              List.for_all
                (fun nid ->
                  Program.is_exit p nid
                  ||
                  let n = Program.node p nid in
                  let packed = Program.counts_packed p nid in
                  Machine.slot_demand_packed m packed
                  = Machine.slot_demand_scan m n
                  && Machine.fits_packed m packed = fits_scan m n
                  && List.for_all
                       (fun op ->
                         Machine.room_for_packed m packed op
                         = Machine.room_for_scan m n op)
                       probe_ops)
                (Program.rpo p))
            machines)
        [ Grip.Pipeline.Grip; Grip.Pipeline.Post ])

(* 5. tombstoned int-array predecessor table == a naive list model.
   The model recomputes, from nothing but each node's tree, who points
   at whom; the maintained table (append + [-1] tombstones + occasional
   compaction) must agree after every batch of accepted moves — in
   content for [preds_of] (live preds) and in multiset for the raw
   [fold_preds] enumeration vs its snapshot list. *)
let naive_preds p id =
  Program.fold_nodes p
    (fun (n : Node.t) acc ->
      if
        Program.is_live p n.Node.id
        && (not (n.Node.id = id && Program.is_exit p id))
        && List.mem id (Ctree.succs n.Node.ctree)
      then n.Node.id :: acc
      else acc)
    []

let prop_preds_list_model =
  QCheck2.Test.make ~name:"int-array preds == naive list model" ~count:30
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      let u = Grip.Unwind.build kern ~horizon:4 in
      let p = u.Grip.Unwind.program in
      let ctx =
        Ctx.make p ~machine:(Machine.homogeneous 3)
          ~exit_live:(Grip.Kernel.exit_live kern)
      in
      let next = make_rng (spec.Synthetic.seed + 17) in
      let norm l = List.sort Int.compare l in
      let check () =
        List.iter
          (fun id ->
            let got = norm (Program.preds_of p id) in
            let want = norm (naive_preds p id) in
            if got <> want then
              QCheck2.Test.fail_reportf
                "preds model mismatch at n%d: table [%s] vs model [%s]" id
                (String.concat ";" (List.map string_of_int got))
                (String.concat ";" (List.map string_of_int want));
            (* the raw fold enumerates exactly its snapshot list,
               newest-first — no tombstone may leak out as [-1] *)
            let folded =
              Program.fold_preds p id ~init:[] ~f:(fun acc q -> q :: acc)
            in
            if List.exists (fun q -> q < 0) folded then
              QCheck2.Test.fail_reportf "tombstone leaked at n%d" id;
            if List.rev folded <> Program.preds_raw p id then
              QCheck2.Test.fail_reportf
                "fold_preds order disagrees with raw snapshot at n%d" id)
          (Program.rpo p)
      in
      check ();
      for _round = 1 to 6 do
        for _ = 1 to 8 do
          match all_candidates p with
          | [] -> ()
          | cands ->
              let from_, to_, op_id = List.nth cands (next (List.length cands)) in
              ignore (Move_op.move ctx ~from_ ~to_ ~op_id)
        done;
        ignore (Program.gc p);
        check ()
      done;
      true)

(* 6. flat accessors == naive node scans on migration-heavy schedules:
   the struct-of-arrays stores (op-id sequences, packed counts, op
   homes, successor mirror) must agree with the record/tree view after
   real runs over a few Livermore cells. *)
let flat_accessors_agree () =
  List.iter
    (fun (name, fu, method_) ->
      let e = Option.get (Workloads.Livermore.find name) in
      let machine = Machine.homogeneous fu in
      let o = Grip.Pipeline.run e.Workloads.Livermore.kernel ~machine ~method_ in
      let p = o.Grip.Pipeline.program in
      List.iter
        (fun nid ->
          let n = Program.node p nid in
          (* op-id sequences reproduce the Node.all_ops order *)
          let flat = ref [] in
          Program.iter_op_ids p nid (fun oid -> flat := oid :: !flat);
          let want =
            List.map (fun (op : Operation.t) -> op.Operation.id) (Node.all_ops n)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s fu%d n%d: flat op order" name fu nid)
            want (List.rev !flat);
          (* packed counts match a fresh scan *)
          let c = Node.unpack_counts (Program.counts_packed p nid) in
          let plain = List.length n.Node.ops in
          let copies = List.length (List.filter Operation.is_copy n.Node.ops) in
          let mems =
            List.length
              (List.filter
                 (fun (o : Operation.t) -> Operation.mem_access o <> None)
                 n.Node.ops)
          in
          let cjumps = Ctree.n_cjumps n.Node.ctree in
          Alcotest.(check (list int))
            (Printf.sprintf "%s fu%d n%d: packed counts" name fu nid)
            [ plain; copies; mems; cjumps ]
            [ c.Node.plain; c.Node.copies; c.Node.mems; c.Node.cjumps ];
          (* op homes and stored records round-trip *)
          List.iter
            (fun (op : Operation.t) ->
              Alcotest.(check int)
                (Printf.sprintf "%s fu%d op%d: home" name fu op.Operation.id)
                nid
                (Program.home_int p op.Operation.id);
              match Program.stored_op p op.Operation.id with
              | Some op' when op' == op -> ()
              | _ ->
                  Alcotest.failf "%s fu%d op%d: stored_op stale" name fu
                    op.Operation.id)
            (Node.all_ops n);
          (* successor mirror serves the tree's view *)
          Alcotest.(check (list int))
            (Printf.sprintf "%s fu%d n%d: succs mirror" name fu nid)
            (if Program.is_exit p nid then [] else Ctree.succs n.Node.ctree)
            (Program.succs p nid);
          (* predecessor table vs the naive list model *)
          Alcotest.(check (list int))
            (Printf.sprintf "%s fu%d n%d: preds" name fu nid)
            (List.sort Int.compare (naive_preds p nid))
            (List.sort Int.compare (Program.preds_of p nid)))
        (Program.rpo p))
    [
      ("LL1", 2, Grip.Pipeline.Grip);
      ("LL3", 4, Grip.Pipeline.Grip);
      ("LL5", 8, Grip.Pipeline.Grip);
      ("LL7", 4, Grip.Pipeline.Grip_no_gap);
    ]

(* 4. full pipelines leave every maintained structure coherent *)
let prop_pipeline_coherent =
  QCheck2.Test.make ~name:"derived state coherent after pipelines" ~count:15
    ~print:print_spec spec_gen (fun spec ->
      let kern = Synthetic.generate spec in
      List.for_all
        (fun method_ ->
          let o =
            Grip.Pipeline.run kern ~machine:(Machine.homogeneous 2) ~method_
              ~horizon:6
          in
          Program.check_derived_state o.Grip.Pipeline.program = None)
        [ Grip.Pipeline.Grip; Grip.Pipeline.Grip_no_gap; Grip.Pipeline.Post ])

(* 7. the derived-state check catches corruption: break one store at a
   time on a small program and check that the reason names the store
   and the node or op, then that undoing the damage makes it coherent
   again. *)
let corrupted_store_named () =
  let p =
    Builder.straight
      [
        Operation.Copy (Reg.of_int 0, Operand.Imm (Value.I 1));
        Operation.Copy (Reg.of_int 1, Operand.Imm (Value.I 2));
      ]
  in
  let coherent what =
    Alcotest.(check (option string)) what None (Program.check_derived_state p)
  in
  coherent "pristine";
  let nid =
    List.find
      (fun id -> (not (Program.is_exit p id)) && (Program.node p id).Node.ops <> [])
      (Program.rpo p)
  in
  let op_id = (List.hd (Program.node p nid).Node.ops).Operation.id in
  let corrupt tbl v ~want =
    let saved = Itbl.get tbl nid in
    Itbl.set tbl nid (v saved);
    Alcotest.(check (option string)) want (Some want)
      (Program.check_derived_state p);
    Itbl.set tbl nid saved;
    coherent ("restored after " ^ want)
  in
  corrupt p.Program.node_counts (fun c -> c + 1)
    ~want:(Printf.sprintf "node_counts mismatch at n%d" nid);
  corrupt p.Program.succs_tbl (fun s -> nid :: s)
    ~want:(Printf.sprintf "succs_tbl mismatch at n%d" nid);
  let home = Itbl.get p.Program.op_home op_id in
  Itbl.set p.Program.op_home op_id p.Program.exit_id;
  Alcotest.(check (option string)) "op_home"
    (Some (Printf.sprintf "op_home mismatch for op %d at n%d" op_id nid))
    (Program.check_derived_state p);
  Itbl.set p.Program.op_home op_id home;
  coherent "restored after op_home"

let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20260704";
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_legality_equiv;
        prop_room_for_equiv;
        prop_preds_list_model;
        prop_pipeline_coherent;
      ]
  in
  Alcotest.run "index"
    [
      ("qcheck", qsuite);
      ( "flat",
        [ Alcotest.test_case "flat accessors == naive scans" `Quick
            flat_accessors_agree ] );
      ( "oracle",
        [ Alcotest.test_case "corrupted store is named" `Quick
            corrupted_store_named ] );
    ]
