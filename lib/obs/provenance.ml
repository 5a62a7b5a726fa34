(** Per-operation provenance journals: where each operation came from,
    every accepted hop of its migration (with the core transformation
    that performed it), and every rejection with a typed reason.

    A journal set is a trace sink: {!tracer} folds the [Migrate_hop]
    and [Migrate_reject] events of {!Trace} into journals and ignores
    every other event, so journaling is switched on by handing
    [tracer (create ())] to the observability handle (or
    [Trace.tee]-ing it with another tracer).  The producers are the
    trace's: [Vliw_percolation.Migrate] emits accepted hops (journals
    follow operation renames across node splits, so a journal survives
    its operation being cloned); the GRiP scheduler emits one rejection
    per migration from the migration's last failure, suspensions (with
    the gap-prevention / speculation reason) and fuel exhaustion; the
    Unifiable baseline emits rollbacks and the failures that caused
    them.

    Each journalled hop, suspension and barrier is one trace event
    emitted at the site that counts it in the scheduler's stats, so the
    journal totals are the trace's tallies: [total_hops] counts the
    run's [Migrate_hop] events, [total_suspensions] and
    [total_barriers] its suspend and barrier rejections. *)

type fu_class = Trace.fu_class = Alu | Mem | Branch
type rule = Trace.rule = Move_op | Move_cj

type reason = Trace.reason =
  | Dep of int
  | Resource_barrier of fu_class
  | Suspended of string
  | Fuel
  | Structural of string

let rule_name = Trace.rule_name
let reason_name = Trace.reason_name
let pp_reason = Trace.pp_reason

type hop = { from_ : int; to_ : int; rule : rule }
type rejection = { node : int; reason : reason }

type journal = {
  origin : int;  (** node where the operation was first observed *)
  mutable id : int;  (** current operation id (clones rename it) *)
  mutable aliases : int list;  (** former ids, newest first *)
  mutable hops : hop list;  (** newest first *)
  mutable rejections : rejection list;  (** newest first *)
}

type t = {
  journals : (int, journal) Hashtbl.t;  (** keyed by current op id *)
}

let create () = { journals = Hashtbl.create 64 }

let find_or_create t ~op ~home =
  match Hashtbl.find_opt t.journals op with
  | Some j -> j
  | None ->
      let j =
        { origin = home; id = op; aliases = []; hops = []; rejections = [] }
      in
      Hashtbl.replace t.journals op j;
      j

(** [tracer t] — a tracer that journals every migration event it
    receives into [t].  A hop whose move renamed the operation
    ([op <> prev_op], e.g. the landing path was isolated and the clone
    kept the original id) moves the journal to the new identity, which
    remembers the old one as an alias. *)
let tracer t =
  let record = function
    | Trace.Migrate_hop { op; prev_op; from_; to_; rule } ->
        let j = find_or_create t ~op:prev_op ~home:from_ in
        j.hops <- { from_; to_; rule } :: j.hops;
        if op <> prev_op then begin
          Hashtbl.remove t.journals prev_op;
          j.aliases <- prev_op :: j.aliases;
          j.id <- op;
          Hashtbl.replace t.journals op j
        end
    | Trace.Migrate_reject { op; node; reason } ->
        let j = find_or_create t ~op ~home:node in
        j.rejections <- { node; reason } :: j.rejections
    | _ -> ()
  in
  Trace.make { Trace.emit = (fun ~ts:_ ev -> record ev); flush = ignore }

let journal t op = Hashtbl.find_opt t.journals op

(** All journals, ordered by current operation id. *)
let journals t =
  Hashtbl.fold (fun _ j acc -> j :: acc) t.journals []
  |> List.sort (fun a b -> compare a.id b.id)

(** Oldest-first views (journals accumulate newest-first). *)
let journey j = List.rev j.hops
let rejections j = List.rev j.rejections

(* -- totals ----------------------------------------------------------------- *)

let fold_journals t f init =
  Hashtbl.fold (fun _ j acc -> f acc j) t.journals init

let total_hops t =
  fold_journals t (fun acc j -> acc + List.length j.hops) 0

let count_rejections t p =
  fold_journals t
    (fun acc j ->
      acc + List.length (List.filter (fun r -> p r.reason) j.rejections))
    0

let total_suspensions t =
  count_rejections t (function Suspended _ -> true | _ -> false)

let total_barriers t =
  count_rejections t (function Resource_barrier _ -> true | _ -> false)

let total_deps t = count_rejections t (function Dep _ -> true | _ -> false)
let fuel_hit t = count_rejections t (function Fuel -> true | _ -> false) > 0

(** [blockers t] — operations named in [Dep] rejections with how often
    each blocked a migration, most frequent first: the profiler's
    "top blocking ops". *)
let blockers t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ j ->
      List.iter
        (fun r ->
          match r.reason with
          | Dep id ->
              Hashtbl.replace tbl id
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))
          | _ -> ())
        j.rejections)
    t.journals;
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) tbl []
  |> List.sort (fun (ia, a) (ib, b) ->
         match compare b a with 0 -> compare ia ib | c -> c)

let pp_journal ppf j =
  Format.fprintf ppf "op%d: origin n%d" j.id j.origin;
  List.iter (fun a -> Format.fprintf ppf " (was op%d)" a) (List.rev j.aliases);
  Format.pp_print_newline ppf ();
  List.iter
    (fun h ->
      Format.fprintf ppf "  hop n%d -> n%d (%s)@." h.from_ h.to_
        (rule_name h.rule))
    (journey j);
  List.iter
    (fun r -> Format.fprintf ppf "  stopped at n%d: %a@." r.node pp_reason r.reason)
    (rejections j)
