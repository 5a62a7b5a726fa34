(** The GRiP scheduling daemon.

    [grip serve] binds a loopback socket (Unix-domain or TCP), reads
    {!Protocol} frames, and dispatches schedule requests onto the
    supervised domain pool — the same admission-control, retry,
    load-shed and watchdog machinery the batch drivers use, now fed by
    a socket instead of a task list:

    - frames that complete in one select round form one {e admission
      wave}; the wave runs through [Supervisor.supervise_worker], so
      queue-limit backpressure applies and overflow requests are
      load-shed one rung down the degradation ladder rather than
      queued without bound;
    - results are cached content-addressed ({!Cache}): a repeat of an
      already-scheduled problem answers from the cache without
      touching the pool, and duplicates {e within} a wave are
      coalesced onto one scheduling task;
    - every request's service time lands in an {!Grip_obs.Hdr}
      histogram, and the whole registry (cache hits/misses/evictions,
      queue depth, shed counts, latency quantiles) is exposed in
      OpenMetrics text via a [Metrics_req] frame;
    - each request is correlated through the trace: the daemon emits
      [Request_stage] milestones (received / cache_hit / schedule /
      respond) carrying the request id, and each scheduling task runs
      inside a [Stage "request N"] span on its worker's ring, so a
      merged Chrome trace shows one connected track per request;
    - the supervisor's starvation watchdog stays armed ([--gap-ms]):
      a flagged run dumps the trace ring at shutdown, with gaps
      classified stall vs gc_pause by the runtime-events consumer. *)

module Pipeline = Grip.Pipeline
module Grip_error = Grip_robust.Grip_error
module Obs = Grip_obs
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics
module Hdr = Grip_obs.Hdr
module Pool = Grip_parallel.Pool
module Supervisor = Grip_parallel.Supervisor

type addr = Unix_sock of string | Tcp of int  (** TCP binds 127.0.0.1 *)

let pp_addr ppf = function
  | Unix_sock p -> Format.fprintf ppf "unix:%s" p
  | Tcp port -> Format.fprintf ppf "tcp:127.0.0.1:%d" port

type config = {
  addr : addr;
  jobs : int;
  queue_limit : int;  (** admission wave size for the supervisor *)
  deadline : float option;  (** per-attempt budget, seconds *)
  retries : int;
  cache_capacity : int;
  analysis_cache_mb : int;
      (** byte budget of the tier-2 analysis store ({!Store}); [0]
          disables tier 2 entirely (every tier-1 miss goes cold) *)
  gap_threshold : float option;  (** starvation watchdog, seconds *)
  trace_file : string option;
      (** write the merged request trace here at shutdown; a
          watchdog-flagged run without one dumps to
          [grip-serve.trace.json] *)
}

let default_config ~addr =
  {
    addr;
    jobs = 1;
    queue_limit = 64;
    deadline = None;
    retries = 1;
    cache_capacity = 256;
    analysis_cache_mb = 64;
    gap_threshold = None;
    trace_file = None;
  }

(* -- request resolution ----------------------------------------------------

   Serve-side twin of the CLI's kernel resolution, minus the
   filesystem: a request names a built-in workload or carries inline
   minic source; anything else is a protocol violation. *)

let rung_of_method_name = function
  | "grip" -> Ok Pipeline.R_grip
  | "grip-no-gap" -> Ok Pipeline.R_grip_no_gap
  | "post" -> Ok Pipeline.R_post
  | other -> Error (Printf.sprintf "unknown method %S" other)

let protocol_error msg =
  Grip_error.make Grip_error.Serve (Grip_error.Protocol_violation msg)

(** A memoizable frontend result: the lowered kernel and its data
    function (or the error the lowering produced — also memoized, so a
    hot malformed source does not re-parse either). *)
type resolved =
  (Grip.Kernel.t * (string -> int -> Vliw_ir.Value.t), Grip_error.t) result

let resolve_kernel (r : Protocol.request) : resolved =
  match (r.Protocol.kernel, r.Protocol.source) with
  | Some name, None -> (
      match Workloads.Livermore.find name with
      | Some e -> Ok (e.Workloads.Livermore.kernel, e.Workloads.Livermore.data)
      | None -> (
          match name with
          | "abc" -> Ok (Workloads.Paper_examples.abc, Grip.Kernel.default_data)
          | "abcdefg" ->
              Ok (Workloads.Paper_examples.abcdefg, Grip.Kernel.default_data)
          | _ -> Error (protocol_error (Printf.sprintf "unknown kernel %S" name))))
  | None, Some src -> (
      match Minic.Compile.kernel_of_string src with
      | Ok out -> Ok (out.Minic.Compile.kernel, out.Minic.Compile.data)
      | Error e -> Error e)
  | _ ->
      (* unreachable: Protocol.request_of_json enforces exactly one *)
      Error (protocol_error "malformed request")

let resolve ?memo ?registry (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* start = Result.map_error protocol_error (rung_of_method_name r.Protocol.method_) in
  if r.Protocol.fus < 1 || r.Protocol.fus > 64 then
    Error (protocol_error (Printf.sprintf "fus %d out of [1, 64]" r.Protocol.fus))
  else
    let* kern, data =
      match memo with
      | None -> resolve_kernel r
      | Some tbl -> (
          let mk = (r.Protocol.kernel, r.Protocol.source) in
          match Hashtbl.find_opt tbl mk with
          | Some res ->
              Option.iter
                (fun reg -> Metrics.incr reg "serve.resolve.memo_hits")
                registry;
              res
          | None ->
              let res = resolve_kernel r in
              (* bounded: a hostile client cycling unique sources must
                 not grow the memo without limit *)
              if Hashtbl.length tbl < 4096 then Hashtbl.replace tbl mk res;
              res)
    in
    Ok (kern, data, start)

(* Start rung [level] rungs below [start] on the degradation ladder
   (saturating at the sequential reference) — the load-shed map. *)
let descend_rung start level =
  let rec from = function
    | r :: rest when r <> start -> from rest
    | rungs -> rungs
  in
  let rec drop n = function
    | [ last ] -> last
    | x :: _ when n <= 0 -> x
    | _ :: tl -> drop (n - 1) tl
    | [] -> Pipeline.R_sequential
  in
  drop level (match from Pipeline.ladder with [] -> Pipeline.ladder | l -> l)

(* -- connections ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; mutable pending : string }

(* Extract every complete frame from the connection's pending bytes;
   the first malformed header poisons the connection (framing is
   lost), reported as [Error]. *)
let extract_frames conn =
  let rec go acc =
    let s = conn.pending in
    if String.length s < Protocol.header_len then Ok (List.rev acc)
    else
      match Protocol.decode_header s with
      | Error msg -> Error msg
      | Ok (kind, id, len) ->
          let total = Protocol.header_len + len in
          if String.length s < total then Ok (List.rev acc)
          else begin
            let payload = String.sub s Protocol.header_len len in
            conn.pending <-
              String.sub s total (String.length s - total);
            go ({ Protocol.id; kind; payload } :: acc)
          end
  in
  go []

let send conn frame =
  match Protocol.write_frame conn.fd frame with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* -- the daemon ------------------------------------------------------------- *)

type state = {
  config : config;
  registry : Metrics.t;
  hdr : Hdr.t;  (** service-time surface, microseconds *)
  hdr_cold : Hdr.t;
      (** latency of misses scheduled from scratch (no tier-2 seed) *)
  hdr_warm : Hdr.t;
      (** latency of warm misses — tier-1 miss, tier-2 seeded — the
          before/after surface of the analysis store *)
  ring : Trace.ring;
  tracer : Trace.t;
  cache : Cache.t;
  store : Store.t option;  (** tier-2 analysis store; [None] = disabled *)
  resolve_memo : (string option * string option, resolved) Hashtbl.t;
      (** frontend memo: request (kernel, source) -> lowered kernel;
          a tier-2 hit must not re-parse inline minic source *)
  rt : Obs.Runtime.t option;  (** GC-span consumer for gap_cause *)
  mutable worker_events : (int * (float * Trace.event) list) list;
      (** per-request worker rings collected for the shutdown trace *)
  mutable flagged : bool;
  mutable served : int;
  t0 : float;
}

let reply_frame id reply =
  {
    Protocol.id;
    kind = Protocol.Schedule_resp;
    payload = Grip_obs.Json.to_string (Protocol.reply_to_json reply);
  }

let error_frame id (e : Grip_error.t) =
  {
    Protocol.id;
    kind = Protocol.Error_resp;
    payload =
      Protocol.error_payload
        ~stage:(Grip_error.stage_name e.Grip_error.stage)
        (Grip_error.to_string e);
  }

let finish_request ?hdr2 st conn ~id ~recv_at frame_or_err =
  let frame =
    match frame_or_err with
    | Ok reply -> reply_frame id reply
    | Error e ->
        Metrics.incr st.registry "serve.errors";
        error_frame id e
  in
  Trace.emit st.tracer (Trace.Request_stage { id; stage = "respond" });
  ignore (send conn frame);
  st.served <- st.served + 1;
  let lat_us = int_of_float ((Unix.gettimeofday () -. recv_at) *. 1e6) in
  Hdr.record st.hdr lat_us;
  (* the cold / warm-miss split of the miss path *)
  Option.iter (fun h -> Hdr.record h lat_us) hdr2

(* A tier-1 miss scheduled through the pool, with whatever tier 2
   contributed: a full warm seed (exclusive slot checkout), just the
   analysis (rank), or nothing; plus, for a cold unwind, the capture
   slots a successful run fills for admission. *)
type task = {
  t_key : string;  (** tier-1 key (kernel + fus + method) *)
  t_kkey : string;  (** tier-2 key (kernel content alone) *)
  t_horizon : int;
  t_kern : Grip.Kernel.t;
  t_data : string -> int -> Vliw_ir.Value.t;
  t_start : Pipeline.rung;
  t_fus : int;
  t_rank : Grip.Rank.t option;  (** analysis-hit rank, cold graph *)
  t_warm : Pipeline.warm option;
      (** checked-out warm slot — must be checked in *)
  t_capture : Pipeline.captured option;  (** cold runs only *)
}

(* One select round's schedule requests, as one supervised admission
   wave: answer cache hits inline, coalesce duplicate problems, run
   the distinct misses through the pool, fill the cache, respond. *)
let process_wave st pool reqs =
  let now () = Unix.gettimeofday () in
  (* per distinct cache key: the task to run plus every (conn, id,
     recv_at, position) waiting on it *)
  let tasks = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (conn, (frame : Protocol.frame), recv_at) ->
      let id = frame.Protocol.id in
      Metrics.incr st.registry "serve.requests";
      Trace.emit st.tracer (Trace.Request_stage { id; stage = "received" });
      match Protocol.request_of_payload frame.Protocol.payload with
      | Error msg ->
          Metrics.incr st.registry "serve.errors.protocol";
          finish_request st conn ~id ~recv_at (Error (protocol_error msg))
      | Ok req -> (
          match resolve ~memo:st.resolve_memo ~registry:st.registry req with
          | Error e -> finish_request st conn ~id ~recv_at (Error e)
          | Ok (kern, data, start) -> (
              let key =
                Cache.key ~fus:req.Protocol.fus ~method_:req.Protocol.method_
                  kern
              in
              match Cache.find st.cache key with
              | Some e ->
                  Metrics.incr st.registry "serve.cache.hits";
                  Trace.emit st.tracer
                    (Trace.Request_stage { id; stage = "cache_hit" });
                  finish_request st conn ~id ~recv_at
                    (Ok
                       {
                         Protocol.rkernel = kern.Grip.Kernel.name;
                         rung = e.Cache.rung;
                         digest = e.Cache.digest;
                         cache = "hit";
                         speedup = e.Cache.speedup;
                         wall_ms = (now () -. recv_at) *. 1e3;
                       })
              | None -> (
                  match Hashtbl.find_opt tasks key with
                  | Some waiters ->
                      Metrics.incr st.registry "serve.cache.coalesced";
                      waiters := (conn, id, recv_at) :: !waiters
                  | None ->
                      Metrics.incr st.registry "serve.cache.misses";
                      let fus = req.Protocol.fus in
                      let kkey = Cache.kernel_key kern in
                      let horizon =
                        Pipeline.default_horizon
                          (Vliw_machine.Machine.homogeneous fus)
                      in
                      let rank, warm, capture =
                        match st.store with
                        | None -> (None, None, None)
                        | Some store -> (
                            (* a warm run restores a graph the store
                               already holds: only cold unwinds capture *)
                            let cold rank =
                              (rank, None, Some (Pipeline.fresh_capture ()))
                            in
                            match Store.checkout store kkey ~horizon with
                            | Some (Store.Warm w) ->
                                Metrics.incr st.registry "serve.cache.t2.hits";
                                Trace.emit st.tracer
                                  (Trace.Request_stage
                                     { id; stage = "t2_warm" });
                                (None, Some w, None)
                            | Some (Store.Analysis rank) ->
                                (* kernel known, graph not reusable at
                                   this horizon (or slot in flight):
                                   reuse the analysis, unwind cold *)
                                Metrics.incr st.registry
                                  "serve.cache.t2.analysis_hits";
                                cold (Some rank)
                            | None ->
                                Metrics.incr st.registry
                                  "serve.cache.t2.misses";
                                cold None)
                      in
                      Hashtbl.replace tasks key (ref [ (conn, id, recv_at) ]);
                      order :=
                        {
                          t_key = key;
                          t_kkey = kkey;
                          t_horizon = horizon;
                          t_kern = kern;
                          t_data = data;
                          t_start = start;
                          t_fus = fus;
                          t_rank = rank;
                          t_warm = warm;
                          t_capture = capture;
                        }
                        :: !order))))
    reqs;
  let items = List.rev !order in
  if items <> [] then begin
    let sup_config =
      {
        Supervisor.default_config with
        Supervisor.deadline = st.config.deadline;
        retries = st.config.retries;
        queue_limit = st.config.queue_limit;
        shed_grace = 1;
        gap_threshold = st.config.gap_threshold;
      }
    in
    let degrade ~level t =
      let start' = descend_rung t.t_start level in
      if start' = t.t_start then None
      else Some ({ t with t_start = start' }, Pipeline.rung_name start')
    in
    let gap_cause ~t0 ~t1 =
      match st.rt with
      | None -> "stall"
      | Some rt ->
          Obs.Runtime.poll rt;
          if Obs.Runtime.gc_overlap rt ~t0 ~t1 >= 0.5 *. (t1 -. t0) then
            "gc_pause"
          else "stall"
    in
    let want_trace = st.config.trace_file <> None in
    let f ~worker ~budget t =
      let machine = Vliw_machine.Machine.homogeneous t.t_fus in
      (* the wave's requests waiting on this problem, for the span tag *)
      let rid =
        match Hashtbl.find_opt tasks t.t_key with
        | Some ws -> (
            match List.rev !ws with (_, id, _) :: _ -> id | [] -> 0)
        | None -> 0
      in
      let ring, tracer =
        if want_trace then
          let r, t = Trace.ring ~capacity:4096 () in
          (Some r, t)
        else (None, Trace.null)
      in
      let obs = Obs.make ~trace:tracer ~metrics:(Metrics.create ()) () in
      let span = Trace.Stage (Printf.sprintf "request %d" rid) in
      Trace.emit tracer (Trace.Span_begin span);
      Trace.emit tracer (Trace.Request_stage { id = rid; stage = "schedule" });
      let result =
        Pipeline.run_robust ~obs ?deadline:st.config.deadline ~budget
          ~data:t.t_data ~start:t.t_start ?rank:t.t_rank ?warm:t.t_warm
          ?capture:t.t_capture t.t_kern ~machine
      in
      Trace.emit tracer (Trace.Span_end span);
      match result with
      | Error e -> raise (Grip_error.Error e)
      | Ok r ->
          let m = Pipeline.measure_robust ~data:t.t_data r in
          (* "warm" means the seed was actually restored into, not just
             offered (a request shed straight to a rolled rung never
             touches it) *)
          let warm_used =
            Metrics.counter obs.Obs.metrics "pipeline.warm_restores" > 0
          in
          ( Pipeline.rung_name r.Pipeline.rung,
            Cache.schedule_digest r.Pipeline.program,
            m.Grip.Speedup.speedup,
            worker,
            ring,
            obs,
            warm_used )
    in
    let sup_obs = Obs.make ~trace:st.tracer ~metrics:st.registry () in
    let results, stats =
      Supervisor.supervise_worker ~config:sup_config ~obs:sup_obs ~degrade
        ~gap_cause pool ~f items
    in
    if Supervisor.flagged stats then st.flagged <- true;
    List.iter2
      (fun t result ->
        (* release the warm slot first, success or not: the pristine
           snapshot survives whatever the run did to the graph *)
        (match (st.store, t.t_warm) with
        | Some store, Some _ ->
            Store.checkin store t.t_kkey ~horizon:t.t_horizon
        | _ -> ());
        let waiters = List.rev !(Hashtbl.find tasks t.t_key) in
        match result with
        | Error e ->
            Metrics.incr st.registry "serve.errors.schedule";
            List.iter
              (fun (conn, id, recv_at) ->
                finish_request st conn ~id ~recv_at (Error e))
              waiters
        | Ok (rung, digest, speedup, worker, ring, obs, warm_used) ->
            (* a malformed worker registry degrades (counted, dropped)
               instead of killing the daemon *)
            (match Grip_error.merge_metrics ~into:st.registry obs.Obs.metrics with
            | Ok () -> ()
            | Error _ -> Metrics.incr st.registry "serve.errors.obs_merge");
            Option.iter
              (fun r ->
                st.worker_events <-
                  (worker, Trace.ring_events r) :: st.worker_events)
              ring;
            (match st.store with
            | Some store ->
                Option.iter
                  (Store.admit store t.t_kkey ~now:(now ()))
                  t.t_capture;
                Metrics.gauge_set st.registry "serve.cache.t2.evictions"
                  (float_of_int (Store.evictions store))
            | None -> ());
            let evictions =
              Cache.add st.cache t.t_key ~rung ~digest ~speedup ~now:(now ())
            in
            Metrics.add st.registry "serve.cache.evictions" evictions;
            let hdr2 = if warm_used then st.hdr_warm else st.hdr_cold in
            List.iteri
              (fun i (conn, id, recv_at) ->
                finish_request ~hdr2 st conn ~id ~recv_at
                  (Ok
                     {
                       Protocol.rkernel = t.t_kern.Grip.Kernel.name;
                       rung;
                       digest;
                       cache =
                         (if i > 0 then "coalesced"
                          else if warm_used then "warm"
                          else "miss");
                       speedup;
                       wall_ms = (now () -. recv_at) *. 1e3;
                     }))
              waiters)
      items results
  end

let render_metrics st =
  let now = Unix.gettimeofday () in
  Metrics.gauge_set st.registry "serve.cache.size"
    (float_of_int (Cache.size st.cache));
  Metrics.gauge_set st.registry "serve.cache.bytes"
    (float_of_int (Cache.bytes st.cache));
  Metrics.gauge_set st.registry "serve.cache.age_seconds"
    (Cache.oldest_age st.cache ~now);
  (match st.store with
  | None -> ()
  | Some store ->
      Metrics.gauge_set st.registry "serve.cache.t2.size"
        (float_of_int (Store.size store));
      Metrics.gauge_set st.registry "serve.cache.t2.bytes"
        (float_of_int (Store.bytes store));
      Metrics.gauge_set st.registry "serve.cache.t2.age_seconds"
        (Store.oldest_age store ~now);
      Metrics.gauge_set st.registry "serve.cache.t2.evictions"
        (float_of_int (Store.evictions store)));
  Metrics.gauge_set st.registry "serve.uptime_seconds" (now -. st.t0);
  Grip_obs.Openmetrics.render
    ~hdrs:
      [
        ("serve.latency_us", st.hdr);
        ("serve.latency.cold_us", st.hdr_cold);
        ("serve.latency.warm_miss_us", st.hdr_warm);
      ]
    st.registry

let write_trace_file st path =
  let main =
    { Trace.tid = 0; label = "serve"; events = Trace.ring_events st.ring }
  in
  let worker_tracks =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (w, evs) ->
        let prev = Option.value (Hashtbl.find_opt tbl w) ~default:[] in
        Hashtbl.replace tbl w (evs :: prev))
      st.worker_events;
    Hashtbl.fold
      (fun w evss acc ->
        {
          Trace.tid = 1 + w;
          label =
            (if w = 0 then "worker 0 (main)" else Printf.sprintf "worker %d" w);
          events = Trace.merge_events evss;
        }
        :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.Trace.tid b.Trace.tid)
  in
  let runtime_tracks =
    match st.rt with
    | None -> []
    | Some rt ->
        List.map
          (fun d ->
            {
              Trace.tid = 100 + d;
              label = Printf.sprintf "gc domain %d" d;
              events = Obs.Runtime.trace_events ~domain:d rt;
            })
          (Obs.Runtime.domains rt)
  in
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Trace.chrome_tracks ~flows:false
             ((main :: worker_tracks) @ runtime_tracks));
        output_char oc '\n')
  with
  | () -> Format.eprintf "grip: serve trace written to %s@." path
  | exception Sys_error m -> Format.eprintf "grip: trace write failed: %s@." m

let listen_socket addr =
  match addr with
  | Unix_sock path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

(** [run config] — bind, serve until a [Shutdown_req] frame, then
    write the trace (if requested or the watchdog flagged the run) and
    return how many requests were served. *)
let run config =
  match listen_socket config.addr with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Grip_error.make Grip_error.Serve
           (Grip_error.Io_failure
              (Format.asprintf "cannot bind %a: %s" pp_addr config.addr
                 (Unix.error_message err))))
  | listen_fd ->
      let ring, tracer = Trace.ring ~capacity:65536 () in
      let st =
        {
          config;
          registry = Metrics.create ();
          hdr = Hdr.create ();
          hdr_cold = Hdr.create ();
          hdr_warm = Hdr.create ();
          ring;
          tracer;
          cache = Cache.create ~capacity:config.cache_capacity;
          store =
            (if config.analysis_cache_mb > 0 then
               Some
                 (Store.create
                    ~budget_bytes:(config.analysis_cache_mb * 1024 * 1024))
             else None);
          resolve_memo = Hashtbl.create 64;
          rt =
            (if config.gap_threshold <> None then Some (Obs.Runtime.start ())
             else None);
          worker_events = [];
          flagged = false;
          served = 0;
          t0 = Unix.gettimeofday ();
        }
      in
      Format.eprintf
        "grip: serving on %a (jobs=%d queue=%d cache=%d analysis-cache=%dMB)@."
        pp_addr config.addr config.jobs config.queue_limit
        config.cache_capacity config.analysis_cache_mb;
      let conns = ref [] in
      let shutdown = ref false in
      let close_conn conn =
        conns := List.filter (fun c -> c != conn) !conns;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      in
      Pool.with_pool ~jobs:config.jobs (fun pool ->
          while not !shutdown do
            let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
            let readable, _, _ =
              try Unix.select fds [] [] 0.25
              with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
            in
            if List.mem listen_fd readable then begin
              match Unix.accept listen_fd with
              | fd, _ -> conns := { fd; pending = "" } :: !conns
              | exception Unix.Unix_error _ -> ()
            end;
            let wave = ref [] in
            List.iter
              (fun conn ->
                if List.memq conn.fd readable then begin
                  let buf = Bytes.create 65536 in
                  match Unix.read conn.fd buf 0 65536 with
                  | 0 -> close_conn conn
                  | n -> (
                      conn.pending <-
                        conn.pending ^ Bytes.sub_string buf 0 n;
                      let recv_at = Unix.gettimeofday () in
                      match extract_frames conn with
                      | Error msg ->
                          (* framing lost: answer once, drop the
                             connection *)
                          Metrics.incr st.registry "serve.errors.protocol";
                          ignore
                            (send conn
                               (error_frame 0 (protocol_error msg)));
                          close_conn conn
                      | Ok frames ->
                          List.iter
                            (fun (frame : Protocol.frame) ->
                              match frame.Protocol.kind with
                              | Protocol.Schedule_req ->
                                  wave := (conn, frame, recv_at) :: !wave
                              | Protocol.Ping_req ->
                                  ignore
                                    (send conn
                                       {
                                         frame with
                                         Protocol.kind = Protocol.Pong_resp;
                                         payload = "";
                                       })
                              | Protocol.Metrics_req ->
                                  let text = render_metrics st in
                                  ignore
                                    (send conn
                                       {
                                         Protocol.id = frame.Protocol.id;
                                         kind = Protocol.Metrics_resp;
                                         payload =
                                           Grip_obs.Json.to_string
                                             (Grip_obs.Json.Obj
                                                [ ("text", Grip_obs.Json.Str text) ]);
                                       })
                              | Protocol.Shutdown_req ->
                                  ignore
                                    (send conn
                                       {
                                         Protocol.id = frame.Protocol.id;
                                         kind = Protocol.Shutdown_resp;
                                         payload = "";
                                       });
                                  shutdown := true
                              | _ ->
                                  Metrics.incr st.registry
                                    "serve.errors.protocol";
                                  ignore
                                    (send conn
                                       (error_frame frame.Protocol.id
                                          (protocol_error
                                             (Printf.sprintf
                                                "unexpected %s frame"
                                                (Protocol.kind_name
                                                   frame.Protocol.kind))))))
                            frames)
                  | exception Unix.Unix_error _ -> close_conn conn
                end)
              (List.rev !conns);
            (match List.rev !wave with
            | [] -> ()
            | reqs -> process_wave st pool reqs)
          done);
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match config.addr with
      | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
      | Tcp _ -> ());
      Option.iter Obs.Runtime.stop st.rt;
      (match (config.trace_file, st.flagged) with
      | Some path, _ -> write_trace_file st path
      | None, true ->
          Format.eprintf
            "grip: watchdog flagged the run — dumping trace ring@.";
          write_trace_file st "grip-serve.trace.json"
      | None, false -> ());
      Format.eprintf "grip: served %d request(s); latency %a@." st.served
        Hdr.pp st.hdr;
      Ok st.served
