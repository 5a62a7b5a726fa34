(** Counters, fixed-bucket histograms and accumulated timings.

    A {!t} is a named registry; the disabled registry makes every
    recording call a single boolean test, so instrumented code can be
    unconditional.  Everything is integer- or float-valued and
    allocation-light: histograms use caller-fixed bucket bounds (no
    rescaling), counters are [int ref]s behind one hash lookup.

    Conventional names used by the scheduling stack:
    - [scheduler.migrations / hops / reached / suspensions / barriers]
      and [post.breaks / repair_hops] — published once from the
      scheduler's stats record when a run ends (also when its budget
      stops it), not bumped per event: the stats are the only counter
      of these facts
    - [scheduler.rpo_rebuilds / rpo_rebuilds_saved] (the cached
      rule-3 reverse-postorder index)
    - [hist scheduler.travel_distance] — hops per migration
    - [hist schedule.slot_occupancy] — operations per instruction of
      the final schedule
    - [time phase.<name>] — accumulated wall seconds per pipeline
      phase
    - [gc.alloc_bytes.phase.<name> / gc.minor.phase.<name> /
      gc.major.phase.<name>] — per-phase allocation and collection
      deltas sampled by [Grip_obs.timed]
    - [gauge gc.top_heap_words / gc.max_pause_ms.<phase>] — high-water
      readings with set-within-a-registry, max-across-merge
      semantics. *)

type hist = {
  bounds : int array;  (** ascending inclusive upper bounds *)
  counts : int array;  (** [length bounds + 1]; last is overflow *)
  mutable n : int;
  mutable sum : int;
  mutable vmax : int;
}

type t = {
  enabled : bool;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  times : (string, float ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
}

(** Raised by {!merge} when two histograms recorded under the same
    name disagree on bucket bounds — a malformed worker report.
    Deliberately its own exception (not a bare [Invalid_argument]):
    merge sites catch it and degrade (drop the report, count it)
    instead of letting a stray worker kill a long-running daemon;
    [Grip_robust.Grip_error.of_merge_mismatch] is the structured
    conversion. *)
exception Merge_mismatch of { name : string }

let create () =
  {
    enabled = true;
    counters = Hashtbl.create 16;
    hists = Hashtbl.create 8;
    times = Hashtbl.create 8;
    gauges = Hashtbl.create 8;
  }

let disabled =
  {
    enabled = false;
    counters = Hashtbl.create 0;
    hists = Hashtbl.create 0;
    times = Hashtbl.create 0;
    gauges = Hashtbl.create 0;
  }

let enabled t = t.enabled

(* -- counters ------------------------------------------------------------- *)

let add t name k =
  if t.enabled then
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + k
    | None -> Hashtbl.replace t.counters name (ref k)

let incr t name = add t name 1
let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* -- histograms ----------------------------------------------------------- *)

let default_bounds = [| 0; 1; 2; 4; 8; 16; 32; 64 |]

let hist_create bounds =
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    n = 0;
    sum = 0;
    vmax = min_int;
  }

(** [observe t ?bounds name v] — record [v] into histogram [name],
    creating it with [bounds] (default powers of two up to 64) on
    first use; later [bounds] are ignored. *)
let observe t ?(bounds = default_bounds) name v =
  if t.enabled then begin
    let h =
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
          let h = hist_create bounds in
          Hashtbl.replace t.hists name h;
          h
    in
    let rec bucket i =
      if i >= Array.length h.bounds then i
      else if v <= h.bounds.(i) then i
      else bucket (i + 1)
    in
    h.counts.(bucket 0) <- h.counts.(bucket 0) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v;
    if v > h.vmax then h.vmax <- v
  end

let histogram t name = Hashtbl.find_opt t.hists name

(* -- timings -------------------------------------------------------------- *)

(** [add_time t name dt] — accumulate [dt] wall seconds under
    [name]. *)
let add_time t name dt =
  if t.enabled then
    match Hashtbl.find_opt t.times name with
    | Some r -> r := !r +. dt
    | None -> Hashtbl.replace t.times name (ref dt)

let time t name =
  match Hashtbl.find_opt t.times name with Some r -> !r | None -> 0.0

(* -- gauges --------------------------------------------------------------- *)

(** [gauge_set t name v] — overwrite gauge [name] with [v] (last
    write wins within a registry). *)
let gauge_set t name v =
  if t.enabled then
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace t.gauges name (ref v)

(** [gauge_max t name v] — keep the high-water mark: record [v] only
    if it exceeds the current reading (or the gauge is unset). *)
let gauge_max t name v =
  if t.enabled then
    match Hashtbl.find_opt t.gauges name with
    | Some r -> if v > !r then r := v
    | None -> Hashtbl.replace t.gauges name (ref v)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0.0

(* -- merge ---------------------------------------------------------------- *)

(** [merge ~into src] — fold [src] into [into]: counters and times
    add, gauges keep the maximum, histograms combine bucket-wise.
    Commutative and associative (up to the registry's sorted
    rendering), so per-domain registries from a parallel run collapse
    into one coherent report in any join order.  Histograms recorded
    under the same name must share bucket bounds (they do when both
    sides ran the same instrumented code); mismatched bounds raise
    {!Merge_mismatch}.  Merging from or into a disabled registry is
    a no-op. *)
let merge ~into src =
  if into.enabled && src.enabled then begin
    Hashtbl.iter (fun name r -> add into name !r) src.counters;
    Hashtbl.iter (fun name r -> add_time into name !r) src.times;
    Hashtbl.iter (fun name r -> gauge_max into name !r) src.gauges;
    Hashtbl.iter
      (fun name (h : hist) ->
        match Hashtbl.find_opt into.hists name with
        | None ->
            Hashtbl.replace into.hists name
              {
                bounds = h.bounds;
                counts = Array.copy h.counts;
                n = h.n;
                sum = h.sum;
                vmax = h.vmax;
              }
        | Some h' when h'.bounds = h.bounds ->
            Array.iteri
              (fun i c -> h'.counts.(i) <- h'.counts.(i) + c)
              h.counts;
            h'.n <- h'.n + h.n;
            h'.sum <- h'.sum + h.sum;
            if h.vmax > h'.vmax then h'.vmax <- h.vmax
        | Some _ -> raise (Merge_mismatch { name }))
      src.hists
  end

(* -- dumps ---------------------------------------------------------------- *)

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let bucket_label bounds i =
  if i >= Array.length bounds then Printf.sprintf ">%d" bounds.(Array.length bounds - 1)
  else if i = 0 then Printf.sprintf "<=%d" bounds.(0)
  else Printf.sprintf "%d-%d" (bounds.(i - 1) + 1) bounds.(i)

let pp ppf t =
  if not t.enabled then Format.fprintf ppf "(metrics disabled)@."
  else begin
    List.iter
      (fun k -> Format.fprintf ppf "%-40s %d@." k (counter t k))
      (sorted_keys t.counters);
    List.iter
      (fun k -> Format.fprintf ppf "%-40s %.6fs@." ("time " ^ k) (time t k))
      (sorted_keys t.times);
    List.iter
      (fun k -> Format.fprintf ppf "%-40s %g@." ("gauge " ^ k) (gauge t k))
      (sorted_keys t.gauges);
    List.iter
      (fun k ->
        let h = Hashtbl.find t.hists k in
        let mean =
          if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n
        in
        Format.fprintf ppf "%-40s n=%d mean=%.2f max=%d@." ("hist " ^ k) h.n
          mean
          (if h.n = 0 then 0 else h.vmax);
        Array.iteri
          (fun i c ->
            if c > 0 then
              Format.fprintf ppf "  %-10s %d@." (bucket_label h.bounds i) c)
          h.counts)
      (sorted_keys t.hists)
  end

let hist_to_json h =
  Json.Obj
    [
      ("n", Json.int h.n);
      ("sum", Json.int h.sum);
      ("max", Json.int (if h.n = 0 then 0 else h.vmax));
      ( "buckets",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun i c -> (bucket_label h.bounds i, Json.int c))
                h.counts)) );
    ]

let to_json t =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun k -> (k, Json.int (counter t k)))
             (sorted_keys t.counters)) );
      ( "times",
        Json.Obj
          (List.map (fun k -> (k, Json.Num (time t k))) (sorted_keys t.times))
      );
      ( "gauges",
        Json.Obj
          (List.map (fun k -> (k, Json.Num (gauge t k))) (sorted_keys t.gauges))
      );
      ( "histograms",
        Json.Obj
          (List.map
             (fun k -> (k, hist_to_json (Hashtbl.find t.hists k)))
             (sorted_keys t.hists)) );
    ]
