(** Mutable VLIW program graphs.

    A program is a directed graph of {!Node.t} instructions with a
    distinguished [entry] and a distinguished [exit_id] sentinel (an
    empty node whose only successor is itself; execution stops there).

    All structural mutation must go through this module: the functions
    below keep the derived state coherent:
    - [op_home]: operation id -> node id, for O(1) location queries
      during migration;
    - [version]: a counter bumped on every mutation, used by analysis
      caches ({!Vliw_analysis.Liveness}) to invalidate themselves;
    - the {e flat stores} (struct-of-arrays mirrors of the node
      records, below);
    - fresh-id supplies for nodes, operations and registers.

    Node and operation ids are dense (drawn from the counters here),
    so every id-keyed store is an {!Itbl} flat array rather than a
    hash table — these lookups dominate the scheduler's profile.

    {2 Flat stores}

    The node records ([Node.ops] lists, [Ctree.t]) remain the source
    of truth and the public API, but every mutator also maintains an
    int-indexed struct-of-arrays mirror sized for allocation-free hot
    paths:
    - [op_store]/[op_flags]: operation id -> canonical record / packed
      shape bits (cjump, copy, mem) — O(1) op lookup without scanning
      a node's op lists;
    - [ops_seq]/[cjs_seq]: node id -> {!Iarr.t} of plain op ids in
      instruction order / conditional-jump ids in tree pre-order —
      worklists and table renderers iterate these instead of
      [Node.all_ops] (which conses a fresh list per call);
    - [node_counts]: node id -> {!Node.pack_counts}-packed slot-demand
      counters, so resource checks never scan a node;
    - [preds_tbl]: node id -> {!Iarr.t} of predecessor ids in append
      order with [-1] tombstones (edge removal tombstones in place —
      no [List.filter] copy per edge — and compacts when tombstones
      outnumber survivors).  Reading backwards reproduces the
      historical newest-first cons order.

    Freed nodes return their [Iarr] buffers to an arena pool ([spare])
    that [fresh_node] draws from, so migration churn (clone, redirect,
    collect) recycles buffers instead of minting garbage.  Node and
    operation ids are never reused.

    Reachability and reverse postorder are memoized per [version].
    {!gc} only removes nodes unreachable from the entry — a semantic
    no-op for every reachable-set-derived analysis — so it does NOT
    bump [version]: liveness, dominators and RPO caches stay valid
    across collections. *)

type t = {
  nodes : Node.t option Itbl.t;
  entry : int;
  exit_id : int;
  op_home : int Itbl.t;  (** op id -> node id; [-1] = not placed *)
  op_store : Operation.t option Itbl.t;
      (** op id -> canonical record (kept after removal; guard reads
          with [op_home]) *)
  op_flags : int Itbl.t;  (** op id -> packed shape bits; [-1] = unknown *)
  ops_seq : Iarr.t Itbl.t;  (** node id -> plain op ids, [ops] order *)
  cjs_seq : Iarr.t Itbl.t;  (** node id -> cjump ids, tree pre-order *)
  node_counts : int Itbl.t;  (** node id -> packed {!Node.counts} *)
  preds_tbl : Iarr.t Itbl.t;
      (** node id -> predecessor ids, append order, [-1] tombstones *)
  succs_tbl : int list Itbl.t;
      (** node id -> distinct sorted successor ids — the
          [Ctree.succs] mirror, recomputed on every structural edit so
          graph walks never re-walk a tree.  Stored as the list
          itself: queries share it (immutable, zero alloc), and since
          an edit replaces rather than mutates it, a walker's captured
          copy stays a valid pre-edit snapshot. *)
  mutable spare : Iarr.t list;  (** arena pool of recycled buffers *)
  mutable next_node : int;
  mutable next_reg : int;
  mutable next_op : int;
  mutable version : int;
  mutable reach_cache : (int * Bytes.t) option;
  mutable rpo_cache : (int * int list) option;
  mutable gc_reclaimed : int;  (** total nodes collected over the run *)
}

let touch p = p.version <- p.version + 1
let version p = p.version
let is_exit p id = id = p.exit_id

(* -- flat-store primitives ---------------------------------------------- *)

let flag_cjump_bit = 1
let flag_copy_bit = 2
let flag_mem_bit = 4

let op_flags_of (op : Operation.t) =
  (if Operation.is_cjump op then flag_cjump_bit else 0)
  lor (if Operation.is_copy op then flag_copy_bit else 0)
  lor if Operation.mem_access op <> None then flag_mem_bit else 0

(* The packed-counts contribution of one operation, from its shape
   bits (field layout is {!Node.pack_counts}'s). *)
let count_delta_of_flags f =
  if f land flag_cjump_bit <> 0 then 1 lsl 45
  else
    1
    + (if f land flag_copy_bit <> 0 then 1 lsl 15 else 0)
    + if f land flag_mem_bit <> 0 then 1 lsl 30 else 0

let store_op p (op : Operation.t) =
  Itbl.set p.op_store op.Operation.id (Some op);
  Itbl.set p.op_flags op.Operation.id (op_flags_of op)

(* Buffer arena: [seq_for] installs a (possibly recycled) buffer in
   place of the shared sentinel; [recycle_seq] sends a freed node's
   buffer back to the pool. *)
let alloc_seq p =
  match p.spare with
  | b :: rest ->
      p.spare <- rest;
      Iarr.clear b;
      b
  | [] -> Iarr.create ()

let seq_for p tbl id =
  let b = Itbl.get tbl id in
  if b != Iarr.sentinel then b
  else begin
    let b = alloc_seq p in
    Itbl.set tbl id b;
    b
  end

let recycle_seq p tbl id =
  let b = Itbl.get tbl id in
  if b != Iarr.sentinel then begin
    Itbl.set tbl id Iarr.sentinel;
    Iarr.clear b;
    p.spare <- b :: p.spare
  end

let clear_seq tbl id =
  let b = Itbl.get tbl id in
  if b != Iarr.sentinel then Iarr.clear b

(* -- predecessor-table maintenance -------------------------------------- *)

(* The table mirrors the deduplicated successor sets: [q] appears at
   most once (live) in [preds_tbl.(s)] however many tree leaves of [q]
   point at [s].  The exit sentinel's self-edge is not recorded,
   matching the preds map this module always exposed.  Appends go at
   the end; removal tombstones with [-1] so no list/array is copied
   per edge. *)

let pred_add p ~src ~dst =
  if not (src = dst && is_exit p src) then
    Iarr.push (seq_for p p.preds_tbl dst) src

let pred_remove p ~src ~dst =
  if not (src = dst && is_exit p src) then begin
    let b = Itbl.get p.preds_tbl dst in
    if b != Iarr.sentinel then begin
      let live = ref 0 in
      for i = 0 to Iarr.length b - 1 do
        let v = Iarr.unsafe_get b i in
        if v = src then Iarr.set b i (-1) else if v >= 0 then incr live
      done;
      (* keep redirect churn from growing the buffer without bound *)
      if Iarr.length b - !live > !live + 8 then Iarr.compact_nonneg b
    end
  end

(* Refresh node [n]'s successor mirror from its tree.  Walks consume
   successors far more often than trees change, so the tree is walked
   once per edit rather than once per query. *)
let rebuild_succs p (n : Node.t) =
  Itbl.set p.succs_tbl n.Node.id (Ctree.succs n.Node.ctree)

(* [link_node] refreshes the mirror first, so the unlink/mutate/link
   bracket every structural edit already follows keeps it current:
   [unlink_node] reads the pre-edit mirror, [link_node] the new tree. *)
let link_node p (n : Node.t) =
  rebuild_succs p n;
  List.iter
    (fun s -> pred_add p ~src:n.Node.id ~dst:s)
    (Itbl.get p.succs_tbl n.Node.id)

let unlink_node p (n : Node.t) =
  List.iter
    (fun s -> pred_remove p ~src:n.Node.id ~dst:s)
    (Itbl.get p.succs_tbl n.Node.id)

(* -- construction ------------------------------------------------------ *)

(* Keep the fresh-register supply above every register mentioned by any
   operation ever placed in the program, so renaming never collides
   with caller-chosen registers. *)
let note_op_regs p (op : Operation.t) =
  let bump r = if Reg.to_int r >= p.next_reg then p.next_reg <- Reg.to_int r + 1 in
  (match Operation.def op with Some d -> bump d | None -> ());
  List.iter bump (Operation.uses op)

(* operation ids are normally drawn from [fresh_op_id], but kernel
   builders may place pre-numbered ops: keep the supply above them *)
let note_op_id p (op : Operation.t) =
  if op.Operation.id >= p.next_op then p.next_op <- op.Operation.id + 1

let register_ops p nid ops =
  List.iter
    (fun (op : Operation.t) ->
      note_op_regs p op;
      note_op_id p op;
      Itbl.set p.op_home op.id nid)
    ops

(* Rebuild node [n]'s flat mirrors (op store, sequences, packed
   counts) from its record — the one-stop path for node creation and
   [restore]. *)
let build_flat p (n : Node.t) =
  let id = n.Node.id in
  let oseq = seq_for p p.ops_seq id in
  Iarr.clear oseq;
  let counts = ref 0 in
  List.iter
    (fun (op : Operation.t) ->
      store_op p op;
      Iarr.push oseq op.Operation.id;
      counts := !counts + count_delta_of_flags (Itbl.get p.op_flags op.Operation.id))
    n.Node.ops;
  let cseq = seq_for p p.cjs_seq id in
  Iarr.clear cseq;
  Ctree.iter_cjumps
    (fun (cj : Operation.t) ->
      store_op p cj;
      Iarr.push cseq cj.Operation.id;
      counts := !counts + (1 lsl 45))
    n.Node.ctree;
  Itbl.set p.node_counts id !counts

(** [create ~first_reg ()] is an empty program: an entry node falling
    through to the exit sentinel.  [first_reg] reserves register ids
    below it for the caller (parameters, named scalars). *)
let create ?(first_reg = 0) () =
  let nodes = Itbl.create None in
  let exit_id = 0 and entry = 1 in
  Itbl.set nodes exit_id
    (Some (Node.make ~id:exit_id ~ops:[] ~ctree:(Ctree.leaf exit_id)));
  Itbl.set nodes entry
    (Some (Node.make ~id:entry ~ops:[] ~ctree:(Ctree.leaf exit_id)));
  let p =
    {
      nodes;
      entry;
      exit_id;
      op_home = Itbl.create (-1);
      op_store = Itbl.create None;
      op_flags = Itbl.create (-1);
      ops_seq = Itbl.create Iarr.sentinel;
      cjs_seq = Itbl.create Iarr.sentinel;
      node_counts = Itbl.create 0;
      preds_tbl = Itbl.create Iarr.sentinel;
      succs_tbl = Itbl.create [];
      spare = [];
      next_node = 2;
      next_reg = first_reg;
      next_op = 0;
      version = 0;
      reach_cache = None;
      rpo_cache = None;
      gc_reclaimed = 0;
    }
  in
  let seed id =
    match Itbl.get nodes id with Some n -> link_node p n | None -> assert false
  in
  seed exit_id;
  seed entry;
  p

let fresh_reg p =
  let r = p.next_reg in
  p.next_reg <- r + 1;
  Reg.of_int r

let fresh_op_id p =
  let i = p.next_op in
  p.next_op <- i + 1;
  i

(** [node p id] is the node with id [id].  Raises [Not_found] on a
    dangling id — a well-formedness violation. *)
let node p id =
  match Itbl.get p.nodes id with Some n -> n | None -> raise Not_found

let node_opt p id = if id < 0 then None else Itbl.get p.nodes id
let entry_node p = node p p.entry

(** [fresh_node p ~ops ~ctree] allocates a new node and indexes its
    operations (conditional-tree jumps included). *)
let fresh_node p ~ops ~ctree =
  let id = p.next_node in
  p.next_node <- id + 1;
  let n = Node.make ~id ~ops ~ctree in
  Itbl.set p.nodes id (Some n);
  register_ops p id ops;
  register_ops p id (Ctree.cjumps ctree);
  build_flat p n;
  link_node p n;
  touch p;
  n

(* -- operation placement ----------------------------------------------- *)

(** [home p op_id] is the node currently holding operation [op_id], or
    [None] if the operation has been deleted. *)
let home p op_id =
  let h = Itbl.get p.op_home op_id in
  if h < 0 then None else Some h

(** [home_int p op_id] — {!home} without the option box: the holding
    node id, or [-1].  The scheduler's candidate scan calls this per
    op per iteration. *)
let home_int p op_id = Itbl.get p.op_home op_id

(** [stored_op p op_id] is the canonical record of operation [op_id]
    from the flat store.  The returned option is the stored box — no
    allocation per query.  Entries survive removal from the graph:
    callers gate on {!home_int} when placement matters. *)
let stored_op p op_id = Itbl.get p.op_store op_id

(** [add_op p nid op] appends [op] to node [nid]'s plain ops. *)
let add_op p nid (op : Operation.t) =
  let n = node p nid in
  n.Node.ops <- n.Node.ops @ [ op ];
  note_op_regs p op;
  note_op_id p op;
  Itbl.set p.op_home op.id nid;
  store_op p op;
  Iarr.push (seq_for p p.ops_seq nid) op.id;
  Itbl.set p.node_counts nid
    (Itbl.get p.node_counts nid + count_delta_of_flags (Itbl.get p.op_flags op.id));
  touch p

(** [mem_plain_op p nid op_id] — is plain op [op_id] currently in node
    [nid]?  Flat-sequence membership, no list scan. *)
let mem_plain_op p nid op_id = Iarr.mem (Itbl.get p.ops_seq nid) op_id

(** [remove_op p nid op_id] removes plain op [op_id] from node [nid].
    Raises [Invalid_argument] if absent. *)
let remove_op p nid op_id =
  let n = node p nid in
  if not (mem_plain_op p nid op_id) then
    invalid_arg
      (Printf.sprintf "Program.remove_op: op %d not in node %d" op_id nid);
  n.Node.ops <- List.filter (fun (o : Operation.t) -> o.id <> op_id) n.Node.ops;
  Itbl.set p.op_home op_id (-1);
  ignore (Iarr.remove_first (Itbl.get p.ops_seq nid) op_id);
  Itbl.set p.node_counts nid
    (Itbl.get p.node_counts nid - count_delta_of_flags (Itbl.get p.op_flags op_id));
  touch p

(** [replace_op p nid op] substitutes the plain op with [op.id] in node
    [nid] by [op] (in place, preserving order): used by renaming and
    copy forwarding.  The op's shape may change (redundancy elimination
    turns loads into copies), so its flags and the node's counts are
    recomputed. *)
let replace_op p nid (op : Operation.t) =
  let n = node p nid in
  let found = ref false in
  n.Node.ops <-
    List.map
      (fun (o : Operation.t) ->
        if o.id = op.id then (
          found := true;
          op)
        else o)
      n.Node.ops;
  if not !found then
    invalid_arg
      (Printf.sprintf "Program.replace_op: op %d not in node %d" op.id nid);
  let old_delta = count_delta_of_flags (Itbl.get p.op_flags op.id) in
  store_op p op;
  let new_delta = count_delta_of_flags (Itbl.get p.op_flags op.id) in
  Itbl.set p.node_counts nid
    (Itbl.get p.node_counts nid - old_delta + new_delta);
  touch p

(** [set_ctree p nid t] replaces node [nid]'s conditional tree,
    re-indexing the jumps it contains. *)
let set_ctree p nid t =
  let n = node p nid in
  unlink_node p n;
  Ctree.iter_cjumps
    (fun (cj : Operation.t) -> Itbl.set p.op_home cj.id (-1))
    n.Node.ctree;
  n.Node.ctree <- t;
  link_node p n;
  let cseq = seq_for p p.cjs_seq nid in
  Iarr.clear cseq;
  let cjs = ref 0 in
  Ctree.iter_cjumps
    (fun (cj : Operation.t) ->
      note_op_regs p cj;
      note_op_id p cj;
      Itbl.set p.op_home cj.id nid;
      store_op p cj;
      Iarr.push cseq cj.Operation.id;
      incr cjs)
    t;
  Itbl.set p.node_counts nid
    (Itbl.get p.node_counts nid land lnot (0x7fff lsl 45) lor (!cjs lsl 45));
  touch p

(** [take_ops p nid] empties node [nid]'s plain ops and returns them
    (their location entries survive: the caller re-registers them by
    placing them in a fresh node, as POST's entry push-down does). *)
let take_ops p nid =
  let n = node p nid in
  let ops = n.Node.ops in
  n.Node.ops <- [];
  clear_seq p.ops_seq nid;
  Itbl.set p.node_counts nid (Itbl.get p.node_counts nid land (0x7fff lsl 45));
  touch p;
  ops

(** [copy_op p op] is a fresh-id clone of [op] (same kind, iter,
    lineage, src_pos): used when node splitting duplicates code. *)
let copy_op p (op : Operation.t) = { op with Operation.id = fresh_op_id p }

(** [clone_instruction p ~ops ~ctree] deep-copies an instruction's
    contents with fresh operation ids, remapping the path guards of
    [ops] to the cloned conditional-jump ids.  The result is not yet a
    node; pass it to {!fresh_node}. *)
let clone_instruction p ~ops ~ctree =
  let map = Hashtbl.create 8 in
  let rec clone_tree = function
    | Ctree.Leaf n -> Ctree.Leaf n
    | Ctree.Branch (cj, a, b) ->
        let cj' = copy_op p cj in
        Hashtbl.replace map cj.Operation.id cj'.Operation.id;
        Ctree.Branch (cj', clone_tree a, clone_tree b)
  in
  let ctree' = clone_tree ctree in
  let remap (g : Operation.guard) =
    List.map
      (fun (c, b) ->
        ((match Hashtbl.find_opt map c with Some c' -> c' | None -> c), b))
      g
  in
  let ops' =
    List.map
      (fun (op : Operation.t) ->
        { (copy_op p op) with Operation.guard = remap op.Operation.guard })
      ops
  in
  (ops', ctree')

(* -- flat queries -------------------------------------------------------- *)

(** [counts_packed p nid] — node [nid]'s slot-demand counters packed as
    by {!Node.pack_counts}; [0] for an absent node.  Maintained
    incrementally: machines answer resource queries from this without
    scanning the node. *)
let counts_packed p nid = Itbl.get p.node_counts nid

(** [iter_plain_op_ids p nid f] — [f] over node [nid]'s plain op ids in
    instruction order, allocation-free. *)
let iter_plain_op_ids p nid f = Iarr.iter f (Itbl.get p.ops_seq nid)

(** [iter_cj_op_ids p nid f] — [f] over node [nid]'s conditional-jump
    ids in tree pre-order, allocation-free. *)
let iter_cj_op_ids p nid f = Iarr.iter f (Itbl.get p.cjs_seq nid)

(** [iter_op_ids p nid f] — plain ops then conditional jumps: the
    [Node.all_ops] order without the list. *)
let iter_op_ids p nid f =
  iter_plain_op_ids p nid f;
  iter_cj_op_ids p nid f

(** [fold_preds p id ~init ~f] folds [f] over node [id]'s recorded
    predecessors newest-first (the historical cons order), tombstones
    skipped, dead nodes included — the raw table, allocation-free. *)
let fold_preds p id ~init ~f =
  let b = Itbl.get p.preds_tbl id in
  let acc = ref init in
  for i = Iarr.length b - 1 downto 0 do
    let q = Iarr.unsafe_get b i in
    if q >= 0 then acc := f !acc q
  done;
  !acc

(* Newest-first snapshot of the raw table (dead preds included) — the
   list the old cons-list representation exposed. *)
let preds_raw p id =
  let b = Itbl.get p.preds_tbl id in
  let acc = ref [] in
  for i = 0 to Iarr.length b - 1 do
    let q = Iarr.unsafe_get b i in
    if q >= 0 then acc := q :: !acc
  done;
  !acc

(* -- graph queries ------------------------------------------------------ *)

(** [succs p id] is the successor ids of node [id]; the exit sentinel
    has none.  Served from the mirror — no tree walk and no
    allocation per query.  The shared list is still a snapshot:
    migration walkers capture it before hopping, and a hop replaces
    (never mutates) the mirror entry. *)
let succs p id = if is_exit p id then [] else Itbl.get p.succs_tbl id

(** [iter_nodes p f] applies [f] to every node, exit sentinel included,
    in ascending id order. *)
let iter_nodes p f =
  for id = 0 to p.next_node - 1 do
    match Itbl.get p.nodes id with Some n -> f n | None -> ()
  done

(** [fold_nodes p f acc] folds over every node in ascending id order. *)
let fold_nodes p f acc =
  let acc = ref acc in
  iter_nodes p (fun n -> acc := f n !acc);
  !acc

(** [node_ids p] is the sorted list of all node ids. *)
let node_ids p = fold_nodes p (fun n acc -> n.Node.id :: acc) [] |> List.rev

(* The reachable set as a byte mask indexed by node id, memoized per
   program version (any structural change bumps the version and so
   invalidates it; node allocation always touches). *)
let live_mask p =
  match p.reach_cache with
  | Some (v, m) when v = p.version -> m
  | _ ->
      let m = Bytes.make p.next_node '\000' in
      let rec go id =
        if Bytes.unsafe_get m id = '\000' then begin
          Bytes.unsafe_set m id '\001';
          List.iter go (succs p id)
        end
      in
      go p.entry;
      p.reach_cache <- Some (p.version, m);
      m

(** [is_live p id] — is [id] reachable from the entry?  Deferred
    garbage collection can leave dead nodes in the table between a
    mutation and the next {!gc}; traversals that must behave as if
    collection were eager filter on this. *)
let is_live p id =
  let m = live_mask p in
  id >= 0 && id < Bytes.length m && Bytes.unsafe_get m id <> '\000'

(** [reachable p] is the set of node ids reachable from the entry
    (treat the returned table as read-only). *)
let reachable p =
  let m = live_mask p in
  let seen = Hashtbl.create 64 in
  Bytes.iteri (fun id c -> if c <> '\000' then Hashtbl.replace seen id ()) m;
  seen

(* Live predecessors of [id], newest-first — the filter the cons-list
   table's accessors always applied. *)
let live_preds_list p id =
  let b = Itbl.get p.preds_tbl id in
  let acc = ref [] in
  for i = 0 to Iarr.length b - 1 do
    let q = Iarr.unsafe_get b i in
    if q >= 0 && is_live p q then acc := q :: !acc
  done;
  !acc

(** [preds p] is the full predecessor map (node id -> predecessor ids),
    over reachable nodes only. *)
let preds p =
  let m = live_mask p in
  let tbl = Hashtbl.create 64 in
  Bytes.iteri
    (fun id c -> if c <> '\000' then Hashtbl.replace tbl id (live_preds_list p id))
    m;
  tbl

(** [preds_of p id] — the live predecessors of node [id], served from
    the incrementally maintained table (no full-graph rebuild). *)
let preds_of p id = live_preds_list p id

(** [rpo p] is a reverse-postorder listing of the reachable nodes from
    the entry — the top-down scheduling order.  Memoized per program
    version. *)
let rpo p =
  match p.rpo_cache with
  | Some (v, order) when v = p.version -> order
  | _ ->
      let seen = Bytes.make p.next_node '\000' in
      let order = ref [] in
      let rec go id =
        if Bytes.unsafe_get seen id = '\000' then begin
          Bytes.unsafe_set seen id '\001';
          List.iter go (succs p id);
          order := id :: !order
        end
      in
      go p.entry;
      p.rpo_cache <- Some (p.version, !order);
      !order

(** [n_nodes p] counts reachable nodes (exit sentinel included). *)
let n_nodes p =
  let m = live_mask p in
  let k = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr k) m;
  !k

(** [all_ops p] lists every operation of every reachable node. *)
let all_ops p =
  List.concat_map
    (fun id -> if is_exit p id then [] else Node.all_ops (node p id))
    (rpo p)

(* -- structural edits --------------------------------------------------- *)

(** [redirect p ~from_ ~old_ ~new_] rewrites node [from_]'s tree leaves
    pointing at [old_] to point at [new_].  The jump records (and so
    [cjs_seq] and the counts) are unchanged — only edges move. *)
let redirect p ~from_ ~old_ ~new_ =
  let n = node p from_ in
  unlink_node p n;
  n.Node.ctree <- Ctree.replace_leaf n.Node.ctree ~old_ ~new_;
  link_node p n;
  touch p

(** [delete_node p id] removes the empty node [id], redirecting every
    predecessor to its unique successor.  Raises [Invalid_argument] if
    the node is not empty, is the entry, or is the exit sentinel. *)
let delete_node p id =
  if id = p.entry || is_exit p id then
    invalid_arg "Program.delete_node: entry/exit";
  let n = node p id in
  if not (Node.is_empty n) then
    invalid_arg "Program.delete_node: node not empty";
  let succ = match succs p id with [ s ] -> s | _ -> assert false in
  (* snapshot first: each redirect tombstones this very table *)
  List.iter
    (fun q -> redirect p ~from_:q ~old_:id ~new_:succ)
    (preds_raw p id);
  unlink_node p n;
  recycle_seq p p.preds_tbl id;
  Itbl.set p.succs_tbl id [];
  recycle_seq p p.ops_seq id;
  recycle_seq p p.cjs_seq id;
  Itbl.set p.node_counts id 0;
  Itbl.set p.nodes id None;
  touch p

(** [gc p] drops nodes unreachable from the entry and de-indexes their
    operations.  Returns the number of nodes collected.  Removing
    unreachable nodes changes no reachable-set-derived result, so the
    program version is left alone and analysis caches survive.  The
    dead nodes' flat buffers go back to the arena pool. *)
let gc p =
  let m = live_mask p in
  let dead =
    fold_nodes p
      (fun n acc ->
        let id = n.Node.id in
        if id < Bytes.length m && Bytes.get m id <> '\000' then acc
        else id :: acc)
      []
  in
  List.iter
    (fun id ->
      let n = node p id in
      let dehome oid =
        if Itbl.get p.op_home oid = id then Itbl.set p.op_home oid (-1)
      in
      iter_op_ids p id dehome;
      unlink_node p n;
      recycle_seq p p.preds_tbl id;
      Itbl.set p.succs_tbl id [];
      recycle_seq p p.ops_seq id;
      recycle_seq p p.cjs_seq id;
      Itbl.set p.node_counts id 0;
      Itbl.set p.nodes id None)
    dead;
  let k = List.length dead in
  p.gc_reclaimed <- p.gc_reclaimed + k;
  k

(** [gc_reclaimed p] — total nodes {!gc} has collected on [p]. *)
let gc_reclaimed p = p.gc_reclaimed

(** [snapshot p] captures the full graph state; {!restore} brings [p]
    back to it in place.  Used by the Unifiable-ops baseline, whose
    semantics require rolling back migrations that fail to reach the
    node being scheduled (this cost is part of why the paper judges
    that technique impractical — the benchmark measures it). *)
type snapshot = {
  s_nodes : (int * Operation.t list * Ctree.t) list;
  s_homes : (int * int) list;
  s_next_node : int;
  s_next_reg : int;
  s_next_op : int;
}

let snapshot p =
  {
    s_nodes =
      fold_nodes p
        (fun (n : Node.t) acc -> (n.Node.id, n.Node.ops, n.Node.ctree) :: acc)
        [];
    s_homes =
      (let acc = ref [] in
       for op_id = 0 to p.next_op - 1 do
         let h = Itbl.get p.op_home op_id in
         if h >= 0 then acc := (op_id, h) :: !acc
       done;
       !acc);
    s_next_node = p.next_node;
    s_next_reg = p.next_reg;
    s_next_op = p.next_op;
  }

let restore p s =
  Itbl.reset p.nodes;
  Itbl.reset p.preds_tbl;
  Itbl.reset p.succs_tbl;
  Itbl.reset p.ops_seq;
  Itbl.reset p.cjs_seq;
  Itbl.reset p.op_store;
  Itbl.reset p.op_flags;
  Itbl.reset p.node_counts;
  p.spare <- [];
  List.iter
    (fun (id, ops, ctree) ->
      Itbl.set p.nodes id (Some (Node.make ~id ~ops ~ctree)))
    s.s_nodes;
  iter_nodes p (fun n ->
      link_node p n;
      build_flat p n);
  Itbl.reset p.op_home;
  List.iter (fun (k, v) -> Itbl.set p.op_home k v) s.s_homes;
  p.next_node <- s.s_next_node;
  p.next_reg <- s.s_next_reg;
  p.next_op <- s.s_next_op;
  touch p

(** [check_derived_state p] — do the predecessor table and the flat
    stores agree with a from-scratch recomputation from the node
    records?  [None] when coherent; [Some reason] otherwise.
    Test-suite oracle for the incremental maintenance in this
    module. *)
let check_derived_state p =
  let norm l = List.sort Int.compare l in
  let expected = Hashtbl.create 64 in
  iter_nodes p (fun (n : Node.t) ->
      List.iter
        (fun s ->
          if not (s = n.Node.id && is_exit p n.Node.id) then
            Hashtbl.replace expected s
              (n.Node.id
              :: (match Hashtbl.find_opt expected s with
                 | Some l -> l
                 | None -> [])))
        (Ctree.succs n.Node.ctree));
  let pred_problem =
    fold_nodes p
      (fun n acc ->
        match acc with
        | Some _ -> acc
        | None ->
            let id = n.Node.id in
            let want =
              match Hashtbl.find_opt expected id with Some l -> norm l | None -> []
            in
            let got = norm (preds_raw p id) in
            if want <> got then
              Some (Printf.sprintf "preds_tbl mismatch at n%d" id)
            else if Itbl.get p.succs_tbl id <> Ctree.succs n.Node.ctree then
              Some (Printf.sprintf "succs_tbl mismatch at n%d" id)
            else None)
      None
  in
  let flat_problem () =
    fold_nodes p
      (fun (n : Node.t) acc ->
        match acc with
        | Some _ -> acc
        | None ->
            let id = n.Node.id in
            let want_ops = List.map (fun (o : Operation.t) -> o.id) n.Node.ops in
            let want_cjs =
              List.map (fun (o : Operation.t) -> o.id) (Ctree.cjumps n.Node.ctree)
            in
            if Iarr.to_list (Itbl.get p.ops_seq id) <> want_ops then
              Some (Printf.sprintf "ops_seq mismatch at n%d" id)
            else if Iarr.to_list (Itbl.get p.cjs_seq id) <> want_cjs then
              Some (Printf.sprintf "cjs_seq mismatch at n%d" id)
            else begin
              let fresh =
                List.fold_left
                  (fun acc (o : Operation.t) ->
                    acc + count_delta_of_flags (op_flags_of o))
                  0
                  (Node.all_ops n)
              in
              if Itbl.get p.node_counts id <> fresh then
                Some (Printf.sprintf "node_counts mismatch at n%d" id)
              else
                List.find_map
                  (fun (o : Operation.t) ->
                    if Itbl.get p.op_home o.id <> id then
                      Some
                        (Printf.sprintf "op_home mismatch for op %d at n%d" o.id
                           id)
                    else
                      match Itbl.get p.op_store o.id with
                      | Some o' when o' == o -> (
                          if Itbl.get p.op_flags o.id <> op_flags_of o then
                            Some
                              (Printf.sprintf "op_flags mismatch for op %d" o.id)
                          else None)
                      | Some _ ->
                          Some
                            (Printf.sprintf "op_store stale record for op %d"
                               o.id)
                      | None ->
                          Some
                            (Printf.sprintf "op_store missing op %d" o.id))
                  (Node.all_ops n)
            end)
      None
  in
  match pred_problem with Some _ as r -> r | None -> flat_problem ()

let pp ppf p =
  let ids = rpo p in
  Format.fprintf ppf "@[<v>entry = n%d, exit = n%d@,%a@]" p.entry p.exit_id
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf id ->
         if is_exit p id then Format.fprintf ppf "n%d: (exit)" id
         else Node.pp ppf (node p id)))
    ids
