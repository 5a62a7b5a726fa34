(** Diffing two Table 1 bench artifacts (BENCH_table1.json).

    Works at the {!Json} level against any [grip.bench.table1/N] schema
    with [N >= 1] — the per-cell [speedup] field and the
    [loops[].name] / [fuW.TECH] layout have been stable since /1, so
    old artifacts stay comparable across schema bumps.  The techniques
    are whatever each [fuW] object holds ([grip] and [post], plus
    [no-gap] since /9).  Cells present on only one side are reported,
    not treated as regressions (a new loop, FU configuration or
    technique is not a slowdown). *)

type cell = {
  loop : string;
  fu : string;  (** e.g. ["fu4"] *)
  tech : string;  (** ["grip"], ["no-gap"] or ["post"] *)
  old_speedup : float;
  new_speedup : float;
  old_alloc : float option;  (** per-cell [gc.alloc_bytes], when present *)
  new_alloc : float option;
}

type result = {
  cells : cell list;  (** artifact order of the new file *)
  only_old : string list;  (** "LL3/fu8/grip"-style labels *)
  only_new : string list;
}

let cell_label c = Printf.sprintf "%s/%s/%s" c.loop c.fu c.tech
let delta c = c.new_speedup -. c.old_speedup

let schema_version doc =
  let prefix = "grip.bench.table1/" in
  match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some s when String.length s > String.length prefix
                && String.sub s 0 (String.length prefix) = prefix ->
      int_of_string_opt
        (String.sub s (String.length prefix)
           (String.length s - String.length prefix))
  | _ -> None

(* Flatten an artifact into ordered ((loop, fu, tech), (speedup,
   alloc_bytes option)) cells.  [gc.alloc_bytes] appeared in schema /6;
   older artifacts diff fine, they just can't gate on allocation. *)
let cells_of doc =
  let loops =
    Option.value ~default:[]
      (Option.bind (Json.member "loops" doc) Json.to_list)
  in
  List.concat_map
    (fun loop ->
      match Option.bind (Json.member "name" loop) Json.to_str with
      | None -> []
      | Some name ->
          let fields = match loop with Json.Obj kvs -> kvs | _ -> [] in
          List.concat_map
            (fun (field, v) ->
              match v with
              | Json.Obj techs
                when String.length field > 2 && String.sub field 0 2 = "fu" ->
                  List.filter_map
                    (fun (tech, c) ->
                      let alloc =
                        Option.bind (Json.member "gc" c) (fun g ->
                            Option.bind (Json.member "alloc_bytes" g)
                              Json.to_float)
                      in
                      Option.map
                        (fun s -> ((name, field, tech), (s, alloc)))
                        (Option.bind (Json.member "speedup" c) Json.to_float))
                    techs
              | _ -> [])
            fields)
    loops

let parse_artifact label contents =
  match Json.parse contents with
  | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" label e)
  | Ok doc -> (
      match schema_version doc with
      | Some v when v >= 1 -> Ok doc
      | Some v -> Error (Printf.sprintf "%s: unsupported schema version %d" label v)
      | None -> Error (Printf.sprintf "%s: not a grip.bench.table1 artifact" label))

(** [diff ~old_ ~new_] — both arguments are raw file contents. *)
let diff ~old_ ~new_ =
  match (parse_artifact "old" old_, parse_artifact "new" new_) with
  | Error e, _ | _, Error e -> Error e
  | Ok od, Ok nd ->
      let ocells = cells_of od and ncells = cells_of nd in
      let label (l, f, t) = Printf.sprintf "%s/%s/%s" l f t in
      let cells =
        List.filter_map
          (fun (key, (new_speedup, new_alloc)) ->
            Option.map
              (fun (old_speedup, old_alloc) ->
                let loop, fu, tech = key in
                { loop; fu; tech; old_speedup; new_speedup; old_alloc;
                  new_alloc })
              (List.assoc_opt key ocells))
          ncells
      in
      let only_in a b =
        List.filter_map
          (fun (key, _) ->
            if List.mem_assoc key b then None else Some (label key))
          a
      in
      Ok { cells; only_old = only_in ocells ncells; only_new = only_in ncells ocells }

(** GRiP cells whose speedup dropped by more than [tolerance] — the
    regression gate only guards the paper's own technique; POST swings
    are reported in the table but never fail the diff. *)
let regressions ?(tolerance = 1e-9) r =
  List.filter
    (fun c -> c.tech = "grip" && c.old_speedup -. c.new_speedup > tolerance)
    r.cells

(* Did a cell's scheduling-time allocation grow past the allowed
   fraction?  Cells without a gc block on either side never trip. *)
let alloc_regressed ~gc_tolerance c =
  match (c.old_alloc, c.new_alloc) with
  | Some o, Some n -> n > o *. (1.0 +. gc_tolerance)
  | _ -> false

(** [gc_regressions ~gc_tolerance r] — GRiP cells whose per-cell
    [gc.alloc_bytes] grew by more than the fraction [gc_tolerance]
    (e.g. [0.25] allows +25%).  A separate gate from the speedup one:
    allocation creep degrades multicore GC behaviour long before it
    shows in single-cell speedups. *)
let gc_regressions ~gc_tolerance r =
  List.filter (fun c -> c.tech = "grip" && alloc_regressed ~gc_tolerance c) r.cells

let pp_mb ppf = function
  | Some b -> Format.fprintf ppf "%9.2f" (b /. 1048576.0)
  | None -> Format.fprintf ppf "%9s" "-"

let pp_result ?(tolerance = 1e-9) ?gc_tolerance ppf r =
  Format.fprintf ppf "%-6s %-5s %-5s %9s %9s %9s %9s %9s@." "loop" "fu" "tech"
    "old" "new" "delta" "oldMB" "newMB";
  List.iter
    (fun c ->
      let speedup_reg = c.tech = "grip" && c.old_speedup -. c.new_speedup > tolerance in
      let alloc_reg =
        match gc_tolerance with
        | Some g -> c.tech = "grip" && alloc_regressed ~gc_tolerance:g c
        | None -> false
      in
      Format.fprintf ppf "%-6s %-5s %-5s %9.3f %9.3f %+9.3f %a %a%s%s@." c.loop
        c.fu c.tech c.old_speedup c.new_speedup (delta c) pp_mb c.old_alloc
        pp_mb c.new_alloc
        (if speedup_reg then "  REGRESSION" else "")
        (if alloc_reg then "  ALLOC-REGRESSION" else ""))
    r.cells;
  List.iter
    (fun l -> Format.fprintf ppf "only in old artifact: %s@." l)
    r.only_old;
  List.iter
    (fun l -> Format.fprintf ppf "only in new artifact: %s@." l)
    r.only_new;
  let regs = regressions ~tolerance r in
  if regs = [] then
    Format.fprintf ppf "%d cell(s) compared; no GRiP regressions (tolerance %g)@."
      (List.length r.cells) tolerance
  else
    Format.fprintf ppf
      "%d cell(s) compared; %d GRiP regression(s) beyond tolerance %g@."
      (List.length r.cells) (List.length regs) tolerance;
  match gc_tolerance with
  | None -> ()
  | Some g -> (
      match gc_regressions ~gc_tolerance:g r with
      | [] ->
          Format.fprintf ppf "allocation gate clean (gc-tolerance +%g%%)@."
            (100.0 *. g)
      | aregs ->
          Format.fprintf ppf
            "%d GRiP cell(s) allocating beyond gc-tolerance +%g%%@."
            (List.length aregs) (100.0 *. g))
