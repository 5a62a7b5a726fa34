(** Shared context for the percolation transformations: the program
    being transformed, the target machine (resource checks happen at
    every hop), the liveness oracle, the renaming policy, and the
    observability handle every transformation emits through. *)

open Vliw_ir

type t = {
  program : Program.t;
  machine : Vliw_machine.Machine.t;
  liveness : Vliw_analysis.Liveness.t;
  rename : bool;  (** repair write-live / move-past-read by renaming *)
  obs : Grip_obs.t;
      (** trace/metrics sink; [Grip_obs.null] (the default) makes every
          emission site a boolean test *)
  mutable dom_cache : (int * Vliw_analysis.Dom.t) option;
      (** dominator tree keyed by [Program.version]; per-context rather
          than global so concurrent or nested scheduler runs cannot
          observe each other's cache *)
  mutable legality_version : int;
      (** program version the verdict tables speak for; on mismatch they
          are cleared in place (no fresh table per version).
          [Program.version] is globally monotonic (even
          {!Program.restore} bumps it), so a version match always means
          "same graph". *)
  legality_int : (int, (unit, Legality.failure) result) Hashtbl.t;
      (** move-op verdicts keyed by [(from_, to_, op_id)] packed into
          one immediate int (21 bits per field) — the common case *)
  legality_wide :
    (int * int * int, (unit, Legality.failure) result) Hashtbl.t;
      (** overflow table for ids beyond 21 bits *)
  walk_marks : int Itbl.t;
      (** migration-walk visited set, epoch-stamped: a walk bumps
          [walk_stamp] instead of allocating a fresh table *)
  mutable walk_stamp : int;
  scan_marks : int Itbl.t;
      (** gap-prevention traversal visited set — separate from
          [walk_marks] because the gapless test runs inside a
          migration walk *)
  mutable scan_stamp : int;
  mutable gc_depth : int;
      (** > 0 inside {!defer_gc}: collections requested by committed
          moves are batched until the region exits *)
  mutable gc_pending : bool;
}

let with_liveness ~rename ~obs program ~machine liveness =
  {
    program;
    machine;
    liveness;
    rename;
    obs;
    dom_cache = None;
    legality_version = -1;
    legality_int = Hashtbl.create 256;
    legality_wide = Hashtbl.create 16;
    walk_marks = Itbl.create 0;
    walk_stamp = 0;
    scan_marks = Itbl.create 0;
    scan_stamp = 0;
    gc_depth = 0;
    gc_pending = false;
  }

(** [make ?rename ?obs p ~machine ~exit_live] builds a context with a
    fresh liveness oracle observing [exit_live] at the program exit. *)
let make ?(rename = true) ?(obs = Grip_obs.null) program ~machine ~exit_live =
  with_liveness ~rename ~obs program ~machine
    (Vliw_analysis.Liveness.make program ~exit_live)

(** [without_renaming t] — a context over [t]'s program, machine,
    liveness oracle and sink that refuses moves needing a rename.  Its
    caches are its own: a verdict cached under one renaming policy is
    no verdict under the other. *)
let without_renaming t =
  with_liveness ~rename:false ~obs:t.obs t.program ~machine:t.machine
    t.liveness

(** [dominators t] — the dominator tree of the current program version,
    recomputed only when the program has changed since the last call on
    this context. *)
let dominators t =
  let v = Program.version t.program in
  match t.dom_cache with
  | Some (v', dom) when v' = v -> dom
  | Some (_, dom) ->
      (* stale: rebuild in place, reusing the tables — handles to the
         old tree are invalidated, which is exactly what keying the
         cache by version already promised *)
      Vliw_analysis.Dom.recompute dom t.program;
      t.dom_cache <- Some (v, dom);
      dom
  | None ->
      let dom = Vliw_analysis.Dom.compute t.program in
      t.dom_cache <- Some (v, dom);
      dom

let live_in t id = Vliw_analysis.Liveness.live_in t.liveness id

(* -- move-op legality memoization ---------------------------------------- *)

(* The verdict tables are persistent and cleared in place when the
   program version moves on: [Hashtbl.clear] keeps the bucket array,
   so steady-state lookups and stores allocate nothing beyond the
   entries themselves (the old design minted a fresh 64-bucket table
   per program version — a top scheduler allocator). *)
let legality_sync t =
  let v = Program.version t.program in
  if t.legality_version <> v then begin
    Hashtbl.clear t.legality_int;
    Hashtbl.clear t.legality_wide;
    t.legality_version <- v
  end

(* 21 bits per field covers node and op ids into the millions; the
   packing is exact (checked) and falls back to a boxed-tuple table
   beyond that. *)
let packable x = x lsr 21 = 0

let pack ~from_ ~to_ ~op_id =
  (from_ lsl 42) lor (to_ lsl 21) lor op_id

(** [legality_find t ~from_ ~to_ ~op_id] — the cached verdict for this
    move against the current program version, if any.  Records a
    [legality.cache_hits] / [legality.cache_misses] metric either
    way. *)
let legality_find t ~from_ ~to_ ~op_id =
  legality_sync t;
  let r =
    if packable from_ && packable to_ && packable op_id then
      Hashtbl.find_opt t.legality_int (pack ~from_ ~to_ ~op_id)
    else Hashtbl.find_opt t.legality_wide (from_, to_, op_id)
  in
  let m = t.obs.Grip_obs.metrics in
  (match r with
  | Some _ -> Grip_obs.Metrics.incr m "legality.cache_hits"
  | None -> Grip_obs.Metrics.incr m "legality.cache_misses");
  r

(** [legality_store t ~from_ ~to_ ~op_id verdict] — memoize a verdict
    for the current program version. *)
let legality_store t ~from_ ~to_ ~op_id verdict =
  legality_sync t;
  if packable from_ && packable to_ && packable op_id then
    Hashtbl.replace t.legality_int (pack ~from_ ~to_ ~op_id) verdict
  else Hashtbl.replace t.legality_wide (from_, to_, op_id) verdict

(* -- scratch visit sets -------------------------------------------------- *)

(* Epoch-stamped membership: starting a traversal bumps the stamp;
   membership is "mark equals current stamp".  No per-traversal table
   allocation, no clearing.  The two sets nest: a migration walk
   ([walk_*]) triggers gap-prevention scans ([scan_*]) at every hop. *)

let walk_begin t = t.walk_stamp <- t.walk_stamp + 1
let walk_seen t id = Itbl.get t.walk_marks id = t.walk_stamp
let walk_mark t id = Itbl.set t.walk_marks id t.walk_stamp
let scan_begin t = t.scan_stamp <- t.scan_stamp + 1
let scan_seen t id = Itbl.get t.scan_marks id = t.scan_stamp
let scan_mark t id = Itbl.set t.scan_marks id t.scan_stamp

(* -- deferred garbage collection ----------------------------------------- *)

(* [Program.gc] only removes unreachable nodes, so batching several
   committed moves' collections into one sweep cannot change what any
   traversal of the *live* graph observes — consumers filter dead ids
   with [Program.is_live].  Migration walks wrap themselves in
   [defer_gc]; a commit outside such a region collects eagerly, as the
   transformations always did. *)

let run_gc t =
  t.gc_pending <- false;
  let reclaimed = Program.gc t.program in
  let m = t.obs.Grip_obs.metrics in
  Grip_obs.Metrics.incr m "ir.gc_runs";
  Grip_obs.Metrics.add m "ir.gc_reclaimed" reclaimed

(** [maybe_gc t] — request a collection: immediate outside a
    {!defer_gc} region, batched (and counted as [ir.gc_deferred])
    inside one. *)
let maybe_gc t =
  if t.gc_depth > 0 then begin
    t.gc_pending <- true;
    Grip_obs.Metrics.incr t.obs.Grip_obs.metrics "ir.gc_deferred"
  end
  else run_gc t

(** [defer_gc t f] — run [f] with collections batched; any pending
    sweep is flushed when the outermost region exits (also on
    exceptions). *)
let defer_gc t f =
  t.gc_depth <- t.gc_depth + 1;
  Fun.protect
    ~finally:(fun () ->
      t.gc_depth <- t.gc_depth - 1;
      if t.gc_depth = 0 && t.gc_pending then run_gc t)
    f
