(** Post-schedule bottleneck analysis.

    Pure data-plane module: the caller (normally [Grip.Explain]) feeds
    it the kernel's dependence edges, the machine width, the achieved
    steady-state rate, the scheduler's suspension and barrier counts
    and the journals' top blockers; this module computes
    the two classic lower bounds on cycles-per-iteration,

    - [rec_mii]: the recurrence bound — over every dependence cycle,
      the maximum of (operations in the cycle / total loop-carried
      distance around it), found by dynamic programming over walks of
      bounded total distance;
    - [res_mii]: the resource bound — issue slots consumed per steady
      iteration divided by machine width;

    and renders a verdict: the kernel is dependence-bound or
    resource-bound when the achieved rate sits within a slack tolerance
    of the binding bound, and scheduler-bound otherwise (the scheduler
    itself — suspensions, resource barriers, or fuel — left cycles on
    the table).  Fuel exhaustion and failure to converge are always
    scheduler-bound: the measured rate does not reflect a fixpoint. *)

type edge = { src : int; dst : int; dist : int }
(** A dependence arc between operation positions; [dist] is the
    loop-carried distance in iterations (0 = intra-iteration). *)

type input = {
  positions : int;  (** number of operation positions in the dep graph *)
  edges : edge list;  (** true + memory dependences *)
  iter_ops : float;  (** issue slots consumed per steady iteration *)
  width : int;  (** machine issue width; 0 = unlimited *)
  achieved_cpi : float option;  (** None = did not converge *)
  suspensions : int;
  barriers : int;
  fuel : bool;
  pressure : (int * int) list;  (** (used, width) per steady-window row *)
  blockers : (int * int) list;  (** (blocking op id, rejections), desc *)
}

type chain = {
  chain_positions : int list;
      (** operation positions along the chain, in dependence order; a
          recurrence repeats its first position at the end *)
  chain_ops : int;  (** edges along the chain = cycles it costs *)
  chain_distance : int;  (** total loop-carried distance (0 = a path) *)
}

type verdict =
  | Dep_bound
  | Resource_bound
  | Scheduler_bound of { suspensions : int; barriers : int; fuel : bool }

let verdict_name = function
  | Dep_bound -> "dep_bound"
  | Resource_bound -> "resource_bound"
  | Scheduler_bound _ -> "scheduler_bound"

type report = {
  verdict : verdict;
  rec_mii : float;
  res_mii : float;
  achieved_cpi : float option;
  chain : chain option;  (** None only for a degenerate empty kernel *)
  pressure_avg : float;  (** mean used slots per steady-window row *)
  pressure_peak : int;
  suspensions : int;
  barriers : int;
  fuel : bool;
  top_blockers : (int * int) list;
}

(* -- critical chain / recurrence bound ------------------------------------ *)

(* Longest-walk DP: [len.(d).(i * n + j)] is the maximum number of
   edges on a walk i -> j whose loop-carried distances sum to exactly
   [d], or min_int if none exists; [via.(d).(i * n + j)] remembers the
   last edge for reconstruction.  Distance-0 arcs always point forward
   in position order (the kernel body is listed in source order), so
   within one distance plane a single ascending-destination relaxation
   closes the zero-distance sub-DAG.  The recurrence bound is the best
   len.(d).(i*n+i) / d over d >= 1; when no recurrence exists the
   critical chain degrades to the longest distance-0 path. *)
let critical_chain ~positions ~edges =
  let n = positions in
  if n = 0 then (0., None)
  else begin
    let edges =
      List.filter
        (fun e -> e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n)
        edges
    in
    let max_dist = List.fold_left (fun m e -> max m e.dist) 1 edges in
    (* Any simple cycle revisits each position at most once, so its
       total distance is bounded by n * max_dist; capped to keep the
       table small for adversarial inputs. *)
    let dmax = min 128 (n * max_dist) in
    let zero_edges, carried_edges =
      List.partition (fun e -> e.dist = 0) edges
    in
    let zero_edges =
      List.sort (fun a b -> compare a.dst b.dst) zero_edges
    in
    let len = Array.init (dmax + 1) (fun _ -> Array.make (n * n) min_int) in
    let via = Array.init (dmax + 1) (fun _ -> Array.make (n * n) None) in
    for i = 0 to n - 1 do
      len.(0).((i * n) + i) <- 0
    done;
    for d = 0 to dmax do
      (* carried arcs land on plane d from plane d - dist *)
      List.iter
        (fun e ->
          if e.dist <= d then
            for i = 0 to n - 1 do
              let prev = len.(d - e.dist).((i * n) + e.src) in
              if prev <> min_int && prev + 1 > len.(d).((i * n) + e.dst)
              then begin
                len.(d).((i * n) + e.dst) <- prev + 1;
                via.(d).((i * n) + e.dst) <- Some e
              end
            done)
        carried_edges;
      (* then close the zero-distance DAG within the plane *)
      List.iter
        (fun e ->
          for i = 0 to n - 1 do
            let prev = len.(d).((i * n) + e.src) in
            if prev <> min_int && prev + 1 > len.(d).((i * n) + e.dst)
            then begin
              len.(d).((i * n) + e.dst) <- prev + 1;
              via.(d).((i * n) + e.dst) <- Some e
            end
          done)
        zero_edges
    done;
    let walk_back ~d ~i ~j =
      (* reconstruct j backwards to i along the recorded last edges *)
      let rec go d j acc =
        if d = 0 && j = i && via.(0).((i * n) + j) = None then j :: acc
        else
          match via.(d).((i * n) + j) with
          | Some e -> go (d - e.dist) e.src (j :: acc)
          | None -> j :: acc (* len.(0).(i,i) = 0 base case *)
      in
      go d j []
    in
    let best_rec = ref None in
    for d = 1 to dmax do
      for i = 0 to n - 1 do
        let l = len.(d).((i * n) + i) in
        if l > 0 then
          let ratio = float_of_int l /. float_of_int d in
          match !best_rec with
          | Some (r, _, _, _) when r >= ratio -> ()
          | _ -> best_rec := Some (ratio, d, i, l)
      done
    done;
    match !best_rec with
    | Some (ratio, d, i, l) ->
        let chain =
          {
            chain_positions = walk_back ~d ~i ~j:i;
            chain_ops = l;
            chain_distance = d;
          }
        in
        (ratio, Some chain)
    | None ->
        (* acyclic: report the longest dependence path instead *)
        let best = ref (0, 0, 0) in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let l = len.(0).((i * n) + j) in
            if l <> min_int && l > (fun (l, _, _) -> l) !best then
              best := (l, i, j)
          done
        done;
        let l, i, j = !best in
        let chain =
          {
            chain_positions = walk_back ~d:0 ~i ~j;
            chain_ops = l;
            chain_distance = 0;
          }
        in
        (0., Some chain)
  end

(* -- verdict -------------------------------------------------------------- *)

(** [analyze ?tolerance input] — [tolerance] is the relative slack
    (default 15%) allowed between the achieved rate and the binding
    lower bound before the gap is blamed on the scheduler. *)
let analyze ?(tolerance = 0.15) (input : input) =
  let rec_mii, chain =
    critical_chain ~positions:input.positions ~edges:input.edges
  in
  let res_mii =
    if input.width <= 0 then 0.
    else input.iter_ops /. float_of_int input.width
  in
  let scheduler_bound =
    Scheduler_bound
      {
        suspensions = input.suspensions;
        barriers = input.barriers;
        fuel = input.fuel;
      }
  in
  let verdict =
    match input.achieved_cpi with
    | None -> scheduler_bound
    | Some _ when input.fuel -> scheduler_bound
    | Some cpi ->
        let lower = Float.max rec_mii res_mii in
        if cpi -. lower <= tolerance *. Float.max 1.0 lower then
          if rec_mii >= res_mii then Dep_bound else Resource_bound
        else scheduler_bound
  in
  let pressure_avg =
    match input.pressure with
    | [] -> 0.
    | rows ->
        float_of_int (List.fold_left (fun a (u, _) -> a + u) 0 rows)
        /. float_of_int (List.length rows)
  in
  let pressure_peak =
    List.fold_left (fun a (u, _) -> max a u) 0 input.pressure
  in
  {
    verdict;
    rec_mii;
    res_mii;
    achieved_cpi = input.achieved_cpi;
    chain;
    pressure_avg;
    pressure_peak;
    suspensions = input.suspensions;
    barriers = input.barriers;
    fuel = input.fuel;
    top_blockers = input.blockers;
  }

(* -- rendering ------------------------------------------------------------ *)

let to_json ?(top = 5) (r : report) =
  let open Json in
  let num x = Num x in
  let chain_json c =
    Obj
      [
        ("positions", List (List.map (fun p -> num (float_of_int p)) c.chain_positions));
        ("ops", num (float_of_int c.chain_ops));
        ("distance", num (float_of_int c.chain_distance));
      ]
  in
  let take k xs =
    List.filteri (fun i _ -> i < k) xs
  in
  Obj
    [
      ("verdict", Str (verdict_name r.verdict));
      ("rec_mii", num r.rec_mii);
      ("res_mii", num r.res_mii);
      ( "achieved_cpi",
        match r.achieved_cpi with None -> Null | Some c -> num c );
      ( "critical_chain",
        match r.chain with None -> Null | Some c -> chain_json c );
      ("suspensions", num (float_of_int r.suspensions));
      ("barriers", num (float_of_int r.barriers));
      ("fuel", Bool r.fuel);
      ( "pressure",
        Obj
          [
            ("avg", num r.pressure_avg);
            ("peak", num (float_of_int r.pressure_peak));
          ] );
      ( "top_blockers",
        List
          (List.map
             (fun (op, n) ->
               Obj [ ("op", num (float_of_int op)); ("count", num (float_of_int n)) ])
             (take top r.top_blockers)) );
    ]

(** [bounds_defect j] — why a {!to_json} block lacks a critical chain
    with positions, [rec_mii >= 0] or [res_mii > 0], or [None]. *)
let bounds_defect j =
  let num f = Option.bind (Json.member f j) Json.to_float in
  let chain = Option.bind (Json.member "critical_chain" j) (Json.member "positions") in
  match (Option.bind chain Json.to_list, num "rec_mii", num "res_mii") with
  | (None | Some []), _, _ -> Some "no critical chain with positions"
  | _, Some r, Some s when r >= 0. && s > 0. -> None
  | _, r, s ->
      let show = function Some x -> Printf.sprintf "%g" x | None -> "-" in
      Some (Printf.sprintf "bounds rec_mii=%s res_mii=%s" (show r) (show s))
