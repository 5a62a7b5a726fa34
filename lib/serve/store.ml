(** Tier-2 analysis store: cross-request reuse of the analysis and
    the unwound graph of a lowered kernel.

    Tier 1 ({!Cache}) answers exact repeats — same kernel, same FU
    count, same technique — with the finished schedule.  This store
    answers the {e near} repeats that still pay the full cold pipeline:
    the same kernel at a different FU count or technique.  It is keyed
    by {!Cache.kernel_key}, the digest of the lowered kernel content
    {e alone}, and holds per kernel:

    - the ranked heuristic closure (embeds the DDG heights — the
      machine-independent analysis pass);
    - per unwinding horizon, a program instance plus the pristine
      post-redundancy snapshot it can be restored from.

    A warm checkout hands the slot to exactly one in-flight run
    ([sl_out]); a concurrent request for the same slot gets the rank
    alone and unwinds cold rather than wait.  All store operations
    happen on the daemon's main thread — workers only ever touch the
    one slot they checked out.

    Eviction is LRU over a byte budget.  Bytes are measured with
    [Obj.reachable_words] over the whole entry (key, rank, programs,
    snapshots), re-measured on check-in because a scheduled graph is
    bigger than its pristine snapshot. *)

module Pipeline = Grip.Pipeline
module Program = Vliw_ir.Program

type slot = {
  sl_horizon : int;
  sl_program : Program.t;
      (** restore target; exclusively owned while [sl_out] *)
  sl_snapshot : Program.snapshot;  (** pristine post-redundancy graph *)
  mutable sl_out : bool;  (** checked out by an in-flight run *)
}

type entry = {
  e_rank : Grip.Rank.t;  (** immutable closure — safe to share *)
  mutable e_slots : slot list;
  mutable e_bytes : int;
  mutable e_last_use : int;
  e_inserted_at : float;
}

type t = {
  budget_bytes : int;
  tbl : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable resident_bytes : int;
  mutable evictions : int;
}

let create ~budget_bytes =
  if budget_bytes < 1 then
    invalid_arg "Store.create: budget_bytes must be positive";
  {
    budget_bytes;
    tbl = Hashtbl.create 64;
    clock = 0;
    resident_bytes = 0;
    evictions = 0;
  }

let size t = Hashtbl.length t.tbl
let bytes t = t.resident_bytes
let evictions t = t.evictions

let oldest_age t ~now =
  Hashtbl.fold
    (fun _ e acc -> Float.max acc (now -. e.e_inserted_at))
    t.tbl 0.0

let busy e = List.exists (fun s -> s.sl_out) e.e_slots

let remeasure t key e =
  t.resident_bytes <- t.resident_bytes - e.e_bytes;
  e.e_bytes <- Cache.measure_bytes (key, e);
  t.resident_bytes <- t.resident_bytes + e.e_bytes

(* LRU sweep down to the byte budget; checked-out entries are pinned
   (a worker owns their graphs). *)
let evict_to_budget t =
  let continue_ = ref true in
  while t.resident_bytes > t.budget_bytes && !continue_ do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          if busy e then acc
          else
            match acc with
            | Some (_, best) when best.e_last_use <= e.e_last_use -> acc
            | _ -> Some (k, e))
        t.tbl None
    in
    match victim with
    | Some (k, e) ->
        t.resident_bytes <- t.resident_bytes - e.e_bytes;
        Hashtbl.remove t.tbl k;
        t.evictions <- t.evictions + 1
    | None -> continue_ := false (* everything resident is in flight *)
  done

(** What a lookup yields for a tier-1 miss. *)
type hit =
  | Analysis of Grip.Rank.t
      (** the kernel is known but no idle slot matches this horizon:
          reuse the analysis (rank/DDG), unwind cold *)
  | Warm of Pipeline.warm
      (** exclusive checkout of the horizon slot: restore the graph,
          skip the frontend and analysis entirely *)

(** [checkout t key ~horizon] — [None] on a store miss.  A
    [Warm] result checks the slot out; the caller {e must} pair it with
    {!checkin} (also on error paths) or the slot is pinned forever. *)
let checkout t key ~horizon =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some e -> (
      t.clock <- t.clock + 1;
      e.e_last_use <- t.clock;
      match
        List.find_opt (fun s -> s.sl_horizon = horizon) e.e_slots
      with
      | Some s when not s.sl_out ->
          s.sl_out <- true;
          Some
            (Warm
               {
                 Pipeline.w_rank = e.e_rank;
                 w_horizon = horizon;
                 w_program = s.sl_program;
                 w_snapshot = s.sl_snapshot;
               })
      | Some _ | None -> Some (Analysis e.e_rank))

(** [checkin t key ~horizon] — release a [Warm] checkout and re-measure
    the entry (the slot's graph was scheduled into, so it grew); then
    sweep to the byte budget. *)
let checkin t key ~horizon =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some e ->
      List.iter
        (fun s -> if s.sl_horizon = horizon then s.sl_out <- false)
        e.e_slots;
      remeasure t key e;
      evict_to_budget t

(** [admit t key ~now capture] — fold a successful cold run's
    {!Pipeline.captured} artifacts into the store: create the entry
    and/or horizon slot when the capture carries a pristine graph.  A
    capture without a rank (the run degraded past the pipelining
    rungs) admits nothing. *)
let admit t key ~now (c : Pipeline.captured) =
  match c.Pipeline.c_rank with
  | None -> ()
  | Some rank ->
      let entry =
        match Hashtbl.find_opt t.tbl key with
        | Some e -> e
        | None ->
            let e =
              {
                e_rank = rank;
                e_slots = [];
                e_bytes = 0;
                e_last_use = 0;
                e_inserted_at = now;
              }
            in
            Hashtbl.replace t.tbl key e;
            e
      in
      t.clock <- t.clock + 1;
      entry.e_last_use <- t.clock;
      (match (c.Pipeline.c_program, c.Pipeline.c_snapshot) with
      | Some p, Some snap
        when not
               (List.exists
                  (fun s -> s.sl_horizon = c.Pipeline.c_horizon)
                  entry.e_slots) ->
          entry.e_slots <-
            {
              sl_horizon = c.Pipeline.c_horizon;
              sl_program = p;
              sl_snapshot = snap;
              sl_out = false;
            }
            :: entry.e_slots
      | _ -> ());
      (* measuring traverses the slot graphs — not while a worker owns
         one; the paired checkin re-measures *)
      if not (busy entry) then begin
        remeasure t key entry;
        evict_to_budget t
      end
