(* End-to-end smoke of the scheduling daemon, against the real CLI
   binary (argv.(1) = path to grip_cli.exe):

   1. spawn [grip serve] on a loopback Unix socket;
   2. digest sweep — every Livermore kernel x {2,4,8} FUs served and
      compared byte-for-byte against the offline pipeline's digest;
   3. an open-loop loadgen burst of >= 1000 requests with zero
      protocol errors, a present p99 and a cache hit-rate over 50%;
   4. the OpenMetrics exposition parses, carries the cache
      hit/miss/eviction counters and no legality memo-seeding series;
   5. a shutdown frame drains the daemon, which must exit 0. *)

module Protocol = Grip_serve.Protocol
module Cache = Grip_serve.Cache
module Server = Grip_serve.Server
module Client = Grip_serve.Client
module Loadgen = Grip_serve.Loadgen
module Hdr = Grip_obs.Hdr
module Openmetrics = Grip_obs.Openmetrics

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL: %s\n%!" name
  end

let fatal fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "FATAL: %s\n%!" msg;
      exit 1)
    fmt

let () =
  if Array.length Sys.argv < 2 then fatal "usage: serve_smoke GRIP_CLI";
  let cli = Sys.argv.(1) in
  let sock = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grip-smoke-%d.sock" (Unix.getpid ())) in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "--jobs"; "2"; "--queue"; "32";
         "--cache"; "128" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let client =
    match Client.connect ~attempts:200 ~delay:0.05 (Server.Unix_sock sock) with
    | Ok c -> c
    | Error msg -> fatal "connect: %s" msg
  in
  (* -- digest sweep: served == offline, every kernel x FU ------------------ *)
  let fus = [ 2; 4; 8 ] in
  let cells = ref 0 in
  List.iter
    (fun (e : Workloads.Livermore.entry) ->
      let k = e.Workloads.Livermore.kernel in
      List.iter
        (fun fu ->
          incr cells;
          let offline =
            match
              Grip.Pipeline.run_robust ~data:e.Workloads.Livermore.data k
                ~machine:(Vliw_machine.Machine.homogeneous fu)
            with
            | Ok r -> Cache.schedule_digest r.Grip.Pipeline.program
            | Error err ->
                fatal "offline %s fu%d: %s" k.Grip.Kernel.name fu
                  (Grip_robust.Grip_error.to_string err)
          in
          match
            Client.schedule client
              { Protocol.kernel = Some k.Grip.Kernel.name; source = None;
                fus = fu; method_ = "grip" }
          with
          | Ok reply ->
              check
                (Printf.sprintf "digest %s fu%d" k.Grip.Kernel.name fu)
                (reply.Protocol.digest = offline)
          | Error msg -> fatal "serve %s fu%d: %s" k.Grip.Kernel.name fu msg)
        fus)
    Workloads.Livermore.all;
  check "sweep covered all 42 cells" (!cells = 42);
  (* -- tier-2 warm path: same kernel, new FU count -------------------------- *)
  (* "abc" was not in the sweep, so fu=2 is a genuine cold miss; fu=4
     shares the fu=2 unwinding horizon, so its slot is a warm checkout
     and the reply must say so — with the digest still byte-identical
     to the offline cold pipeline at fu=4. *)
  let abc fu =
    match
      Client.schedule client
        { Protocol.kernel = Some "abc"; source = None; fus = fu;
          method_ = "grip" }
    with
    | Ok reply -> reply
    | Error msg -> fatal "serve abc fu%d: %s" fu msg
  in
  let cold = abc 2 in
  check "abc fu2 is a cold miss" (cold.Protocol.cache = "miss");
  let warm = abc 4 in
  check "abc fu4 is served warm" (warm.Protocol.cache = "warm");
  let abc_offline =
    match
      Grip.Pipeline.run_robust ~data:Grip.Kernel.default_data
        Workloads.Paper_examples.abc
        ~machine:(Vliw_machine.Machine.homogeneous 4)
    with
    | Ok r -> Cache.schedule_digest r.Grip.Pipeline.program
    | Error err -> fatal "offline abc fu4: %s" (Grip_robust.Grip_error.to_string err)
  in
  check "warm abc fu4 digest == offline" (warm.Protocol.digest = abc_offline);
  (* -- open-loop burst ------------------------------------------------------ *)
  let templates =
    List.concat_map
      (fun (e : Workloads.Livermore.entry) ->
        List.map
          (fun fu ->
            { Protocol.kernel = Some e.Workloads.Livermore.kernel.Grip.Kernel.name;
              source = None; fus = fu; method_ = "grip" })
          fus)
      Workloads.Livermore.all
  in
  let requests = 1000 in
  (match
     Loadgen.run client ~requests ~rate:4000.0 ~period:0.1 ~duty:0.5 templates
   with
  | Error msg -> fatal "loadgen: %s" msg
  | Ok report ->
      check "all requests answered" (report.Loadgen.received = requests);
      check "zero protocol/schedule errors" (report.Loadgen.errors = 0);
      check "p99 present" (Hdr.quantile report.Loadgen.hist 0.99 > 0);
      check "p999 >= p50"
        (Hdr.quantile report.Loadgen.hist 0.999
        >= Hdr.quantile report.Loadgen.hist 0.5);
      check
        (Printf.sprintf "cache hit-rate %.2f over 0.5"
           (Loadgen.hit_rate report))
        (Loadgen.hit_rate report > 0.5));
  (* -- exposition ----------------------------------------------------------- *)
  (match Client.metrics client with
  | Error msg -> fatal "metrics: %s" msg
  | Ok text -> (
      match Openmetrics.parse text with
      | Error msg -> check ("metrics parse: " ^ msg) false
      | Ok families ->
          let have name =
            List.exists
              (fun f ->
                f.Openmetrics.fname = name && f.Openmetrics.samples <> [])
              families
          in
          List.iter
            (fun name -> check ("exposes " ^ name) (have name))
            [
              "grip_serve_requests"; "grip_serve_cache_hits";
              "grip_serve_cache_misses"; "grip_serve_cache_evictions";
              "grip_serve_cache_bytes"; "grip_serve_cache_t2_hits";
              "grip_serve_cache_t2_misses"; "grip_serve_cache_t2_bytes";
              "grip_serve_latency_us"; "grip_serve_latency_cold_us";
              "grip_serve_latency_warm_miss_us"; "grip_pool_queue_depth";
            ];
          (* the 42-cell sweep revisits each kernel at 3 FU counts, so
             cross-FU reuse must have fired: tier-2 warm hits > 0 *)
          let sample name =
            List.fold_left
              (fun acc f ->
                if f.Openmetrics.fname = name then
                  match f.Openmetrics.samples with
                  | (_, v) :: _ -> Some v
                  | [] -> acc
                else acc)
              None families
          in
          (match sample "grip_serve_cache_t2_hits" with
          | Some v -> check "tier-2 warm hits > 0" (v > 0.0)
          | None -> check "tier-2 hit counter sampled" false);
          (* tier 2 restores graphs only: no legality memo or dominator
             seeding series may appear, warm replies or not *)
          let prefixed p s =
            String.length s >= String.length p
            && String.sub s 0 (String.length p) = p
          in
          List.iter
            (fun f ->
              let n = f.Openmetrics.fname in
              check ("no memo-seeding series " ^ n)
                (not
                   (prefixed "grip_legality_memo_" n
                   || prefixed "grip_legality_dom_" n)))
            families));
  (* -- clean shutdown ------------------------------------------------------- *)
  (match Client.shutdown client with
  | Ok () -> ()
  | Error msg -> check ("shutdown: " ^ msg) false);
  Client.close client;
  let _, status = Unix.waitpid [] pid in
  check "daemon exits 0" (status = Unix.WEXITED 0);
  if !failures > 0 then begin
    Printf.eprintf "serve smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "serve smoke: OK"
