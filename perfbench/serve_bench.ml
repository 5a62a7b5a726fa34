(* The serving workloads: `grip serve` with one scheduling domain and
   this benchmark's open-loop client on one connection.

   serve-hot: a seeded set of generated kernels x {2,4,8} FUs, all
   scheduled once during set-up, then drawn uniformly at a fixed
   Poisson rate: every timed request is a tier-1 cache hit, so the
   window measures framing, the select loop, the resolve memo and the
   cache lookup, and a scheduler change must read "no change".

   serve-zipf: the same kind of key space, drawn from a seeded Zipf law
   over a random ranking of the keys, with a tier-1 capacity below the
   key count.  The stream mixes hits with cold misses, tier-2 warm
   misses (a kernel already scheduled at another width) and
   evictions, and hits queue behind cold waves in the select loop, so
   both the scheduler and the serving plane move its latency.  A
   warm-up prefix of the same stream runs in set-up.

   After the daemon has stopped, every key is compiled offline through
   the pool (GRiP ladder and POST): the GRiP digests check every
   served reply, and the compile times feed the sweep metrics. *)

module Protocol = Grip_serve.Protocol
module Client = Grip_serve.Client
module Pipeline = Grip.Pipeline
module Machine = Vliw_machine.Machine
module Pool = Grip_parallel.Pool

type spec = {
  name : string;
  cache : int;  (** tier-1 capacity the daemon starts with *)
  analysis_mb : int;  (** tier-2 byte budget the daemon starts with *)
  rate : float;  (** offered requests per second *)
  zipf : float option;  (** key-draw exponent; [None] draws uniformly *)
  warmup : int;  (** warm-up prefix of the stream, in requests *)
}

let hot =
  {
    name = "serve-hot";
    cache = 256;
    analysis_mb = 64;
    rate = 2000.0;
    zipf = None;
    warmup = 0;
  }

let zipf =
  {
    name = "serve-zipf";
    cache = 92;
    analysis_mb = 4;
    rate = 400.0;
    zipf = Some 1.1;
    warmup = 1000;
  }

(* The key space: 32 generated kernels x {2,4,8} FUs.  The kernels are
   one fixed draw of the generator, like table1's fixed Livermore
   inputs; --seed varies the request stream over them (which keys, in
   which order, when).  Drawing the kernels from --seed as well moved
   the offline sweep time by a third of its median between seeds, more
   than any regression bound could absorb. *)
let universe_seed = 1
let kernels = 32

let widths = [| 2; 4; 8 |]

let daemon_flags spec =
  [
    "--jobs"; "1"; "--cache"; string_of_int spec.cache;
    "--analysis-cache-mb"; string_of_int spec.analysis_mb;
  ]

type key = { src : string; kname : string; fus : int }

let keys_of (ks : Gen.kernel list) =
  Array.of_list
    (List.concat_map
       (fun (k : Gen.kernel) ->
         Array.to_list (Array.map (fun fus -> { src = k.Gen.source; kname = k.Gen.name; fus }) widths))
       ks)

let request k = { Protocol.kernel = None; source = Some k.src; fus = k.fus; method_ = "grip" }

(* Seeded key draws: uniform, or Zipf over a fixed ranking of the keys
   (shuffled once, from the kernels' seed).  With the ranking drawn from
   --seed too, each seed had its own popular keys and so its own miss
   mix and scheduling load. *)
let drawer spec rng nkeys =
  match spec.zipf with
  | None -> fun () -> Random.State.int rng nkeys
  | Some s ->
      let shuffle = Random.State.make [| universe_seed |] in
      let perm = Array.init nkeys Fun.id in
      for i = nkeys - 1 downto 1 do
        let j = Random.State.int shuffle (i + 1) in
        let x = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- x
      done;
      let cdf = Array.make nkeys 0.0 in
      let total = ref 0.0 in
      for r = 0 to nkeys - 1 do
        total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) s);
        cdf.(r) <- !total
      done;
      fun () ->
        let u = Random.State.float rng !total in
        let rec search lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
        in
        perm.(search 0 (nkeys - 1))

(* Poisson arrivals at [rate] over [seconds]: (arrival offsets, keys). *)
let window rng draw ~rate ~seconds =
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. rate) in
    if t >= seconds then List.rev acc else go t ((t, draw ()) :: acc)
  in
  let xs = Array.of_list (go 0.0 []) in
  (Array.map fst xs, Array.map snd xs)

(* Every (rung, digest) the daemon served per key, to be checked
   against offline runs. *)
type served = (int, (string * string) list) Hashtbl.t

let note_served (served : served) key (r : Protocol.reply) =
  let seen = Option.value (Hashtbl.find_opt served key) ~default:[] in
  if not (List.mem (r.Protocol.rung, r.Protocol.digest) seen) then
    Hashtbl.replace served key ((r.Protocol.rung, r.Protocol.digest) :: seen)

(* Closed-loop requests, one at a time (prewarm and warm-up prefix). *)
let closed_loop report (d : Daemon.t) served keys draws =
  List.iter
    (fun i ->
      match Client.schedule d.Daemon.client (request keys.(i)) with
      | Ok r -> note_served served i r
      | Error msg -> Report.problem report "set-up request for %s/fu%d failed: %s" keys.(i).kname keys.(i).fus msg)
    draws

type window_result = {
  res : Loadclient.result;
  wkeys : int array;
  before : (string, float) Hashtbl.t;
  after : (string, float) Hashtbl.t;
}

let timed report (d : Daemon.t) served keys rng draw ~spec ~seconds =
  let arrivals, wkeys = window rng draw ~rate:spec.rate ~seconds in
  let requests = Array.map (fun i -> request keys.(i)) wkeys in
  let before = Daemon.scrape d in
  let res = Loadclient.run d.Daemon.client ~arrivals ~requests ~deadline:(seconds +. 30.0) in
  Array.iteri
    (fun i r ->
      match r with
      | Some { Loadclient.outcome = Ok reply; _ } -> note_served served wkeys.(i) reply
      | Some { Loadclient.outcome = Error msg; _ } ->
          Report.problem report "request %d (%s/fu%d) failed: %s" i keys.(wkeys.(i)).kname
            keys.(wkeys.(i)).fus msg
      | None -> ())
    res.Loadclient.replies;
  { res; wkeys; before; after = Daemon.scrape d }

let ok_replies w =
  Array.to_list w.res.Loadclient.replies
  |> List.filter_map (function
       | Some { Loadclient.latency; outcome = Ok r } -> Some (latency, r)
       | _ -> None)

let count_label w label =
  List.length (List.filter (fun (_, r) -> r.Protocol.cache = label) (ok_replies w))

(* -- offline compile of every key ------------------------------------------ *)

type compiled = {
  ckey : int;
  post : bool;
  cpu : float;  (** CPU seconds of the domain that compiled it *)
  alloc : float;
  speedup : float;
  rung : string;
  digest : string;
}

let compile_one ~start (kern, data) fus =
  let machine = Machine.homogeneous fus in
  match Pipeline.run_robust ~data ~start kern ~machine with
  | Error e -> failwith (Grip_robust.Grip_error.to_string e)
  | Ok r -> (r, Pipeline.measure_robust ~data r)

(* Larger problems first (more statements, then more FUs), for the
   same reason table1 orders its grid: the sweep should end on small
   compiles. *)
let sweep pool keys lowered =
  let size i = (Gen.statements (i / Array.length widths), keys.(i).fus) in
  let tasks =
    List.init (Array.length keys) Fun.id
    |> List.stable_sort (fun a b -> compare (size b) (size a))
    |> List.concat_map (fun i -> [ (i, false); (i, true) ])
  in
  let t0 = Stats.now () in
  let results =
    Pool.map_ordered pool
      ~f:(fun (i, post) ->
        let c0 = Stats.cpu () in
        let a0 = Stats.allocated_bytes () in
        let start = if post then Pipeline.R_post else Pipeline.R_grip in
        let r, m = compile_one ~start (Hashtbl.find lowered keys.(i).src) keys.(i).fus in
        let alloc = Stats.allocated_bytes () -. a0 in
        {
          ckey = i;
          post;
          cpu = Stats.cpu () -. c0;
          alloc;
          speedup = m.Grip.Speedup.speedup;
          rung = Pipeline.rung_name r.Pipeline.rung;
          digest = Grip_serve.Cache.schedule_digest r.Pipeline.program;
        })
      tasks
  in
  (Stats.now () -. t0, results)

let rung_of_name name =
  List.find_opt (fun r -> Pipeline.rung_name r = name) Pipeline.ladder

(* A reply is right when it equals the offline GRiP-ladder run of its
   key; a reply whose daemon-side run started lower on the ladder (a
   load-shed request) is checked against an offline run from that
   rung. *)
let verify report keys lowered (served : served) offline =
  let bad = Hashtbl.create 8 in
  Hashtbl.iter
    (fun i seen ->
      let grip = List.find (fun c -> c.ckey = i && not c.post) offline in
      List.iter
        (fun (rung, digest) ->
          let expected =
            if rung = grip.rung then Some grip.digest
            else
              Option.map
                (fun start ->
                  let r, _ = compile_one ~start (Hashtbl.find lowered keys.(i).src) keys.(i).fus in
                  Grip_serve.Cache.schedule_digest r.Pipeline.program)
                (rung_of_name rung)
          in
          if expected <> Some digest then begin
            Hashtbl.replace bad (i, digest) ();
            Report.problem report "%s/fu%d: served %s digest %s, offline %s" keys.(i).kname
              keys.(i).fus rung digest
              (Option.value expected ~default:"(unknown rung)")
          end)
        seen)
    served;
  fun i (r : Protocol.reply) -> not (Hashtbl.mem bad (i, r.Protocol.digest))

(* -- metrics ---------------------------------------------------------------- *)

let ms s = s *. 1e3

let end_to_end report w ~setup_s ~sweep_s ~offline ~peak_rss_mb =
  let add = Report.add report in
  let replies = ok_replies w in
  add "setup_s" ~unit_:"s" setup_s;
  add "sweep_s" ~unit_:"s" sweep_s;
  let compile = List.map (fun c -> ms c.cpu) offline in
  add "compile_ms_p50" ~unit_:"ms" (Stats.percentile compile 0.5);
  add "compile_ms_p88" ~unit_:"ms" (Stats.percentile compile 0.88);
  add "alloc_mb" ~unit_:"MB" (Stats.sum (List.map (fun c -> c.alloc) offline) /. 1e6);
  (* each distinct key once, as table1 counts each cell once: weighting
     by popularity would let the seed's few hottest keys decide it *)
  let by_key = Hashtbl.create 128 in
  Array.iteri
    (fun i r ->
      match r with
      | Some { Loadclient.outcome = Ok reply; _ } ->
          Hashtbl.replace by_key w.wkeys.(i) reply.Protocol.speedup
      | _ -> ())
    w.res.Loadclient.replies;
  add "speedup_geomean" ~unit_:"x" (Stats.geomean (List.of_seq (Hashtbl.to_seq_values by_key)));
  add "post_speedup_geomean" ~unit_:"x"
    (Stats.geomean (List.filter_map (fun c -> if c.post then Some c.speedup else None) offline));
  add "peak_rss_mb" ~unit_:"MB" peak_rss_mb;
  add "achieved_rps" ~unit_:"1/s" (float_of_int (List.length replies) /. w.res.Loadclient.wall)

let per_layer report w ~minic_ms =
  let add = Report.add report in
  let d name = Daemon.delta w.before w.after ("grip_" ^ name) in
  let replies = ok_replies w in
  let n = float_of_int (List.length replies) in
  let service = List.map (fun (_, r) -> r.Protocol.wall_ms) replies in
  let latency = List.map (fun (l, _) -> ms l) replies in
  let wait = List.map (fun (l, r) -> ms l -. r.Protocol.wall_ms) replies in
  let legality = d "legality_check_seconds_total" in
  add "schedule.ms" ~unit_:"ms" (ms (d "phase_schedule_seconds_total" -. legality));
  add "schedule.alloc_mb" ~unit_:"MB" (d "gc_alloc_bytes_phase_schedule_total" /. 1e6);
  let migrations = d "scheduler_migrations_total" and hops = d "scheduler_hops_total" in
  add "schedule.migrations" ~unit_:"count" migrations;
  add "schedule.hops" ~unit_:"count" hops;
  add "schedule.hop_yield" ~unit_:"ratio" (Stats.ratio hops migrations);
  add "schedule.suspensions" ~unit_:"count" (d "scheduler_suspensions_total");
  add "schedule.barriers" ~unit_:"count" (d "scheduler_barriers_total");
  add "legality.check_ms" ~unit_:"ms" (ms legality);
  let hits = d "legality_cache_hits_total" in
  add "legality.memo_hit_rate" ~unit_:"ratio"
    (Stats.ratio hits (hits +. d "legality_cache_misses_total"));
  add "unwind.ms" ~unit_:"ms" (ms (d "phase_unwind_seconds_total"));
  add "redundancy.ms" ~unit_:"ms" (ms (d "phase_redundancy_seconds_total"));
  add "converge.ms" ~unit_:"ms" (ms (d "phase_converge_seconds_total"));
  let task_s = d "pool_task_ms_sum" /. 1e3 in
  add "pool.busy_frac" ~unit_:"ratio" (task_s /. w.res.Loadclient.wall);
  add "pool.retries" ~unit_:"count" (d "pool_retries_total");
  add "minic.ms" ~unit_:"ms" minic_ms;
  (* request latency from each scheduled arrival: a per-layer figure,
     not an end-to-end one, because host CPU steal and idle wake-ups
     decide it on a small VM (see README.md) *)
  add "serve.req_ms_p50" ~unit_:"ms" (Stats.percentile latency 0.5);
  add "serve.req_ms_p99" ~unit_:"ms" (Stats.percentile latency 0.99);
  add "serve.service_ms_p50" ~unit_:"ms" (Stats.percentile service 0.5);
  add "serve.service_ms_p99" ~unit_:"ms" (Stats.percentile service 0.99);
  add "serve.wait_ms_p50" ~unit_:"ms" (Stats.percentile wait 0.5);
  add "serve.wait_ms_p99" ~unit_:"ms" (Stats.percentile wait 0.99);
  let label l = float_of_int (count_label w l) in
  add "serve.t1_hit_rate" ~unit_:"ratio" (Stats.ratio (label "hit") n);
  add "serve.coalesced_frac" ~unit_:"ratio" (Stats.ratio (label "coalesced") n);
  add "serve.evictions" ~unit_:"count" (d "serve_cache_evictions_total");
  add "serve.t2_warm_rate" ~unit_:"ratio"
    (Stats.ratio (label "warm") (label "warm" +. label "miss"));
  let wall_of l =
    List.filter_map (fun (_, r) -> if r.Protocol.cache = l then Some r.Protocol.wall_ms else None) replies
  in
  let median_or_zero = function [] -> 0.0 | xs -> Stats.median xs in
  add "serve.cold_ms_p50" ~unit_:"ms" (median_or_zero (wall_of "miss"));
  add "serve.warm_miss_ms_p50" ~unit_:"ms" (median_or_zero (wall_of "warm"));
  add "serve.descent_frac" ~unit_:"ratio"
    (Stats.ratio (float_of_int (List.length (List.filter (fun (_, r) -> r.Protocol.rung <> "GRiP") replies))) n);
  add "serve.shed" ~unit_:"count" (d "pool_sheds_total");
  let late = List.filter (fun x -> not (Float.is_nan x)) (Array.to_list w.res.Loadclient.late) in
  add "gen.late_ms_p99" ~unit_:"ms" (ms (Stats.percentile late 0.99));
  add "gen.outstanding_max" ~unit_:"count" (float_of_int w.res.Loadclient.outstanding_max);
  (* the traced window is the untraced run's (same seed, same stream):
     its spans are the send and reply timestamps the client takes
     anyway, and the scrapes and frontend timing run outside it *)
  add "trace.overhead_frac" ~unit_:"ratio" 0.0;
  let phases =
    List.fold_left
      (fun acc p -> acc +. d (Printf.sprintf "phase_%s_seconds_total" p))
      0.0 [ "unwind"; "redundancy"; "schedule"; "converge" ]
  in
  add "trace.coverage_frac" ~unit_:"ratio" (Stats.ratio phases task_s)

(* The workload's shape must hold, or the numbers describe another
   workload. *)
let check_shape report ~spec w =
  let misses = count_label w "miss" + count_label w "warm" + count_label w "coalesced" in
  match spec.zipf with
  | None ->
      if misses > 0 then Report.problem report "serve-hot: %d tier-1 misses in the window" misses
  | Some _ ->
      let evictions = Daemon.delta w.before w.after "grip_serve_cache_evictions_total" in
      if evictions <= 0.0 then Report.problem report "serve-zipf: no tier-1 evictions in the window";
      if count_label w "warm" = 0 then Report.problem report "serve-zipf: no tier-2 warm misses in the window";
      if count_label w "miss" = 0 then Report.problem report "serve-zipf: no cold misses in the window"

let run ~report ~spec ~t_start ~grip ~jobs ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; Hashtbl.hash spec.name |] in
  let gen = Gen.kernels ~seed:universe_seed ~count:kernels in
  let keys = keys_of gen in
  let draw = drawer spec rng (Array.length keys) in
  let t_gen = Stats.now () in
  (* daemon start-up, repeated for a median; the last one serves *)
  let starts, d =
    let rec go n acc =
      let t0 = Stats.now () in
      let d = Daemon.start ~grip ~name:spec.name (daemon_flags spec) in
      let acc = (Stats.now () -. t0) :: acc in
      if n <= 1 then (acc, d) else (Daemon.stop d; go (n - 1) acc)
    in
    go 3 []
  in
  let served : served = Hashtbl.create 128 in
  let t_warm = Stats.now () in
  let prefix =
    match spec.zipf with
    | None -> List.init (Array.length keys) Fun.id
    | Some _ -> List.init spec.warmup (fun _ -> draw ())
  in
  closed_loop report d served keys prefix;
  let setup_s = (t_gen -. t_start) +. Stats.median starts +. (Stats.now () -. t_warm) in
  let w = timed report d served keys rng draw ~spec ~seconds in
  let peak_rss_mb = Stats.peak_rss_mb d.Daemon.pid in
  Daemon.stop d;
  (* offline: lower every source (timed: the frontend layer), then
     compile every key through the pool *)
  let lowered = Hashtbl.create 64 in
  let minic =
    List.map
      (fun (k : Gen.kernel) ->
        let t0 = Stats.now () in
        let out = Minic.Compile.kernel_of_string_exn k.Gen.source in
        let dt = Stats.now () -. t0 in
        Hashtbl.replace lowered k.Gen.source (out.Minic.Compile.kernel, out.Minic.Compile.data);
        ms dt)
      gen
  in
  let sweep_s, offline =
    Pool.with_pool ~jobs (fun pool -> sweep pool keys lowered)
  in
  let right = verify report keys lowered served offline in
  check_shape report ~spec w;
  Array.iteri
    (fun i r ->
      Report.attempt report
        ~ok:
          (match r with
          | Some { Loadclient.outcome = Ok reply; _ } -> right w.wkeys.(i) reply
          | _ -> false))
    w.res.Loadclient.replies;
  if trace then per_layer report w ~minic_ms:(Stats.median minic)
  else end_to_end report w ~setup_s ~sweep_s ~offline ~peak_rss_mb
