(* Service observability plane: frame codec properties, HDR histogram
   error-bound and merge-law properties, OpenMetrics render/parse,
   cache LRU behaviour, the structured obs-merge degradation, the pure
   open-loop arrival schedule, and an in-process loopback smoke of the
   daemon itself. *)

module Protocol = Grip_serve.Protocol
module Cache = Grip_serve.Cache
module Server = Grip_serve.Server
module Client = Grip_serve.Client
module Loadgen = Grip_serve.Loadgen
module Hdr = Grip_obs.Hdr
module Metrics = Grip_obs.Metrics
module Openmetrics = Grip_obs.Openmetrics
module Grip_error = Grip_robust.Grip_error

(* -- frame codec ----------------------------------------------------------- *)

let kinds =
  [
    Protocol.Schedule_req; Protocol.Metrics_req; Protocol.Ping_req;
    Protocol.Shutdown_req; Protocol.Schedule_resp; Protocol.Metrics_resp;
    Protocol.Pong_resp; Protocol.Shutdown_resp; Protocol.Error_resp;
  ]

let frame_gen =
  QCheck2.Gen.(
    let* id = int_range 0 0xFFFFFFFF in
    let* kind = oneofl kinds in
    let* payload = string_size (int_range 0 200) in
    return { Protocol.id; kind; payload })

let print_frame (f : Protocol.frame) =
  Printf.sprintf "{id=%d; kind=%s; payload=%S}" f.Protocol.id
    (Protocol.kind_name f.Protocol.kind)
    f.Protocol.payload

let prop_frame_roundtrip =
  QCheck2.Test.make ~name:"frame encode/decode roundtrip" ~count:500
    ~print:print_frame frame_gen (fun f ->
      match Protocol.decode (Protocol.encode f) with
      | Ok f' -> f = f'
      | Error _ -> false)

let prop_frame_truncated =
  QCheck2.Test.make ~name:"truncated frames are rejected" ~count:200
    ~print:print_frame frame_gen (fun f ->
      let s = Protocol.encode f in
      (* every strict prefix must fail to decode as a whole frame *)
      List.for_all
        (fun cut -> Result.is_error (Protocol.decode (String.sub s 0 cut)))
        [ 0; 1; Protocol.header_len - 1; String.length s - 1 ]
      (* decode requires the exact frame: trailing garbage also fails *)
      && Result.is_error (Protocol.decode (s ^ "x")))

let oversized_rejected () =
  let s = Protocol.encode { Protocol.id = 7; kind = Protocol.Ping_req; payload = "" } in
  let b = Bytes.of_string s in
  Bytes.set_int32_be b 8 (Int32.of_int (Protocol.max_payload + 1));
  (match Protocol.decode_header (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length accepted");
  (* bad magic, bad version, unknown kind *)
  let patch i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Protocol.decode_header (Bytes.to_string b)
  in
  Alcotest.(check bool) "bad magic" true (Result.is_error (patch 0 'X'));
  Alcotest.(check bool) "bad version" true (Result.is_error (patch 2 '\007'));
  Alcotest.(check bool) "unknown kind" true (Result.is_error (patch 3 '\042'))

let request_roundtrip () =
  let r =
    { Protocol.kernel = Some "LL3"; source = None; fus = 8; method_ = "post" }
  in
  let back =
    Protocol.request_of_payload
      (Grip_obs.Json.to_string (Protocol.request_to_json r))
  in
  Alcotest.(check bool) "roundtrip" true (back = Ok r);
  let neither =
    Protocol.request_of_payload {|{"fus": 4, "method": "grip"}|}
  in
  Alcotest.(check bool) "neither kernel nor source rejected" true
    (Result.is_error neither);
  let both =
    Protocol.request_of_payload
      {|{"kernel": "LL1", "source": "x", "fus": 4, "method": "grip"}|}
  in
  Alcotest.(check bool) "both kernel and source rejected" true
    (Result.is_error both)

(* -- HDR histogram ---------------------------------------------------------- *)

let samples_gen =
  QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 (1 lsl 22)))

let print_samples l = QCheck2.Print.(list int) l

(* the estimate of the nearest-rank quantile must satisfy
   x <= est <= x * (1 + rel_error) *)
let prop_hdr_error_bound =
  QCheck2.Test.make ~name:"hdr quantile within relative error bound"
    ~count:300 ~print:print_samples samples_gen (fun samples ->
      let h = Hdr.create () in
      List.iter (Hdr.record h) samples;
      let sorted = Array.of_list (List.map float_of_int samples) in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          let exact = Hdr.nearest_rank sorted q in
          let est = float_of_int (Hdr.quantile h q) in
          exact <= est && est <= (exact *. (1.0 +. Hdr.rel_error h)) +. 1e-9)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ])

(* merging two histograms is indistinguishable from recording the
   concatenated multiset *)
let prop_hdr_merge_law =
  QCheck2.Test.make ~name:"hdr merge equals concatenated recording"
    ~count:200
    ~print:(QCheck2.Print.pair print_samples print_samples)
    QCheck2.Gen.(pair samples_gen samples_gen)
    (fun (a, b) ->
      let ha = Hdr.create () and hb = Hdr.create () and hab = Hdr.create () in
      List.iter (Hdr.record ha) a;
      List.iter (Hdr.record hb) b;
      List.iter (Hdr.record hab) (a @ b);
      Hdr.merge ~into:ha hb;
      Hdr.buckets ha = Hdr.buckets hab
      && Hdr.count ha = Hdr.count hab
      && Hdr.max_value ha = Hdr.max_value hab
      && Hdr.min_value ha = Hdr.min_value hab
      && List.for_all
           (fun q -> Hdr.quantile ha q = Hdr.quantile hab q)
           [ 0.5; 0.99; 0.999; 1.0 ])

let hdr_config_mismatch () =
  let a = Hdr.create ~precision:7 () and b = Hdr.create ~precision:8 () in
  match Hdr.merge ~into:a b with
  | () -> Alcotest.fail "mismatched configs merged"
  | exception Hdr.Config_mismatch _ -> ()

let nearest_rank_units () =
  let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
  Alcotest.(check (float 0.0)) "p25" 10.0 (Hdr.nearest_rank sorted 0.25);
  Alcotest.(check (float 0.0)) "p26 rounds up" 20.0 (Hdr.nearest_rank sorted 0.26);
  Alcotest.(check (float 0.0)) "p50" 20.0 (Hdr.nearest_rank sorted 0.50);
  Alcotest.(check (float 0.0)) "p100" 40.0 (Hdr.nearest_rank sorted 1.0);
  Alcotest.(check (float 0.0)) "q=0 clamps to rank 1" 10.0
    (Hdr.nearest_rank sorted 0.0);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Hdr.nearest_rank [||] 0.5)

(* -- structured obs-merge degradation -------------------------------------- *)

let metrics_merge_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.observe a ~bounds:[| 1; 2 |] "h" 1;
  Metrics.observe b ~bounds:[| 1; 2; 4 |] "h" 1;
  (match Metrics.merge ~into:a b with
  | () -> Alcotest.fail "mismatched bounds merged"
  | exception Metrics.Merge_mismatch { name } ->
      Alcotest.(check string) "histogram name" "h" name);
  match Grip_error.merge_metrics ~into:a b with
  | Ok () -> Alcotest.fail "merge_metrics accepted mismatch"
  | Error e -> (
      match e.Grip_error.cause with
      | Grip_error.Obs_merge { name } ->
          Alcotest.(check string) "structured name" "h" name
      | _ -> Alcotest.fail "wrong cause")

let metrics_merge_ok () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "c";
  Metrics.incr b "c";
  (match Grip_error.merge_metrics ~into:a b with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "clean merge rejected");
  Alcotest.(check int) "counters added" 2 (Metrics.counter a "c")

(* -- OpenMetrics ------------------------------------------------------------ *)

let openmetrics_roundtrip () =
  let m = Metrics.create () in
  Metrics.add m "serve.requests" 42;
  Metrics.add_time m "phase.schedule" 0.125;
  Metrics.gauge_set m "pool.queue_depth" 3.0;
  Metrics.observe m ~bounds:[| 1; 2; 4 |] "pool.task_ms" 3;
  Metrics.observe m ~bounds:[| 1; 2; 4 |] "pool.task_ms" 9 (* overflow *);
  let h = Hdr.create () in
  List.iter (Hdr.record h) [ 5; 50; 500; 5000 ];
  let text = Openmetrics.render ~hdrs:[ ("serve.latency_us", h) ] m in
  (match Openmetrics.parse text with
  | Ok families -> Alcotest.(check bool) "families" true (families <> [])
  | Error msg -> Alcotest.fail ("exposition does not parse: " ^ msg));
  Alcotest.(check (list string))
    "exposition covers the registry" []
    (Openmetrics.covers ~hdrs:[ "serve.latency_us" ] m text);
  (* missing EOF and junk samples are rejected *)
  Alcotest.(check bool) "missing EOF rejected" true
    (Result.is_error (Openmetrics.parse "# TYPE grip_x counter\ngrip_x_total 1\n"));
  Alcotest.(check bool) "orphan sample rejected" true
    (Result.is_error (Openmetrics.parse "nosuch_total 1\n# EOF\n"))

(* -- cache ------------------------------------------------------------------ *)

let cache_lru () =
  let c = Cache.create ~capacity:2 in
  let add k =
    ignore (Cache.add c k ~rung:"GRiP" ~digest:k ~speedup:1.0 ~now:0.0)
  in
  add "a";
  add "b";
  (* touch a so b is the LRU victim *)
  Alcotest.(check bool) "a hits" true (Cache.find c "a" <> None);
  let evicted = Cache.add c "c" ~rung:"GRiP" ~digest:"c" ~speedup:1.0 ~now:0.0 in
  Alcotest.(check int) "one eviction" 1 evicted;
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "a kept" true (Cache.find c "a" <> None);
  Alcotest.(check bool) "c resident" true (Cache.find c "c" <> None);
  Alcotest.(check int) "size bounded" 2 (Cache.size c)

let cache_key_content_addressed () =
  let e = List.hd Workloads.Livermore.all in
  let k = e.Workloads.Livermore.kernel in
  let renamed = { k with Grip.Kernel.name = "other-name" } in
  Alcotest.(check string) "rename does not change the key"
    (Cache.key ~fus:4 ~method_:"grip" k)
    (Cache.key ~fus:4 ~method_:"grip" renamed);
  Alcotest.(check bool) "fus changes the key" true
    (Cache.key ~fus:4 ~method_:"grip" k <> Cache.key ~fus:8 ~method_:"grip" k)

(* -- tier-2 analysis store -------------------------------------------------- *)

module Store = Grip_serve.Store

let store_horizon = 6

(* A fresh cold run's capture: every call unwinds its own graph, so
   captures never share a slot program. *)
let capture_of () =
  let c = Grip.Pipeline.fresh_capture () in
  (match
     Grip.Pipeline.run_robust ~capture:c ~horizon:store_horizon
       Workloads.Paper_examples.abc ~machine:(Vliw_machine.Machine.homogeneous 2)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Grip_error.to_string e));
  c

let big_budget = 1 lsl 40

let store_kind = function
  | None -> "miss"
  | Some (Store.Analysis _) -> "analysis"
  | Some (Store.Warm _) -> "warm"

let store_checkout_exclusive () =
  let s = Store.create ~budget_bytes:big_budget in
  Store.admit s "k" ~now:0.0 (capture_of ());
  let co () = store_kind (Store.checkout s "k" ~horizon:store_horizon) in
  Alcotest.(check string) "unknown key" "miss"
    (store_kind (Store.checkout s "nope" ~horizon:store_horizon));
  Alcotest.(check string) "other horizon" "analysis"
    (store_kind (Store.checkout s "k" ~horizon:(store_horizon + 1)));
  Alcotest.(check string) "first checkout" "warm" (co ());
  Alcotest.(check string) "slot busy" "analysis" (co ());
  Store.checkin s "k" ~horizon:store_horizon;
  Alcotest.(check string) "checked back in" "warm" (co ());
  Store.checkin s "k" ~horizon:store_horizon

let store_admit_needs_rank () =
  let s = Store.create ~budget_bytes:big_budget in
  Store.admit s "k" ~now:0.0 (Grip.Pipeline.fresh_capture ());
  Alcotest.(check int) "nothing admitted" 0 (Store.size s);
  Alcotest.(check int) "no bytes" 0 (Store.bytes s);
  Alcotest.(check string) "still a miss" "miss"
    (store_kind (Store.checkout s "k" ~horizon:store_horizon))

(* Resident bytes are the sum of the per-entry measurements. *)
let resident_sum (s : Store.t) =
  Hashtbl.fold
    (fun k e acc -> acc + Grip_serve.Cache.measure_bytes (k, e))
    s.Store.tbl 0

let store_lru_skips_busy () =
  let one = Store.create ~budget_bytes:big_budget in
  Store.admit one "a" ~now:0.0 (capture_of ());
  let entry = Store.bytes one in
  Alcotest.(check int) "bytes of one entry" (resident_sum one) entry;
  (* room for two entries, not three *)
  let s = Store.create ~budget_bytes:(entry * 5 / 2) in
  Store.admit s "a" ~now:0.0 (capture_of ());
  (* "a" is now the least recently used entry, and it is pinned *)
  Alcotest.(check string) "a checked out" "warm"
    (store_kind (Store.checkout s "a" ~horizon:store_horizon));
  Store.admit s "b" ~now:0.0 (capture_of ());
  Store.admit s "c" ~now:0.0 (capture_of ());
  Alcotest.(check int) "one eviction" 1 (Store.evictions s);
  Alcotest.(check (list string)) "busy LRU kept, next LRU evicted"
    [ "a"; "c" ]
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) s.Store.tbl []));
  Store.checkin s "a" ~horizon:store_horizon;
  Alcotest.(check int) "bytes match residents" (resident_sum s) (Store.bytes s);
  (* "c" was used after "a"'s checkout, so "a" is the victim now *)
  Store.admit s "d" ~now:0.0 (capture_of ());
  Alcotest.(check int) "two evictions" 2 (Store.evictions s);
  Alcotest.(check bool) "a evicted" true
    (Store.checkout s "a" ~horizon:store_horizon = None);
  Alcotest.(check int) "bytes match residents after eviction"
    (resident_sum s) (Store.bytes s)

let store_budget_accounting () =
  (* a budget smaller than any entry evicts every admission at once *)
  let s = Store.create ~budget_bytes:1 in
  Store.admit s "a" ~now:0.0 (capture_of ());
  Store.admit s "b" ~now:0.0 (capture_of ());
  Alcotest.(check int) "both evicted" 2 (Store.evictions s);
  Alcotest.(check int) "empty" 0 (Store.size s);
  Alcotest.(check int) "no resident bytes" 0 (Store.bytes s)

(* -- open-loop arrival schedule --------------------------------------------- *)

let arrivals_shape () =
  let a = Loadgen.arrivals ~rate:100.0 ~period:1.0 ~duty:0.5 250 in
  Alcotest.(check int) "n" 250 (Array.length a);
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 a.(0);
  (* 100 per cycle, packed into the first 0.5s of each 1s cycle *)
  Alcotest.(check (float 1e-9)) "last of cycle 0" (99.0 *. 0.005) a.(99);
  Alcotest.(check (float 1e-9)) "cycle 1 starts on the period" 1.0 a.(100);
  Alcotest.(check (float 1e-9)) "cycle 2" 2.0 a.(200);
  let nondecreasing = ref true in
  Array.iteri (fun i t -> if i > 0 && t < a.(i - 1) then nondecreasing := false) a;
  Alcotest.(check bool) "nondecreasing" true !nondecreasing

(* -- in-process loopback smoke ---------------------------------------------- *)

let loopback_smoke () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grip-test-%d.sock" (Unix.getpid ()))
  in
  let addr = Server.Unix_sock sock in
  let config =
    { (Server.default_config ~addr) with Server.jobs = 1; queue_limit = 8 }
  in
  let daemon = Domain.spawn (fun () -> Server.run config) in
  let client =
    match Client.connect addr with
    | Ok c -> c
    | Error msg -> Alcotest.fail ("connect: " ^ msg)
  in
  (match Client.ping client with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("ping: " ^ msg));
  let req =
    { Protocol.kernel = Some "LL1"; source = None; fus = 2; method_ = "grip" }
  in
  let r1 =
    match Client.schedule client req with
    | Ok r -> r
    | Error msg -> Alcotest.fail ("schedule: " ^ msg)
  in
  Alcotest.(check string) "first is a miss" "miss" r1.Protocol.cache;
  let r2 =
    match Client.schedule client req with
    | Ok r -> r
    | Error msg -> Alcotest.fail ("schedule: " ^ msg)
  in
  Alcotest.(check string) "repeat hits" "hit" r2.Protocol.cache;
  Alcotest.(check string) "hit digest matches" r1.Protocol.digest
    r2.Protocol.digest;
  (* served digest is byte-identical to the offline pipeline *)
  let e = List.hd Workloads.Livermore.all in
  let offline =
    match
      Grip.Pipeline.run_robust ~data:e.Workloads.Livermore.data
        e.Workloads.Livermore.kernel
        ~machine:(Vliw_machine.Machine.homogeneous 2)
    with
    | Ok r -> Cache.schedule_digest r.Grip.Pipeline.program
    | Error e -> Alcotest.fail (Grip_error.to_string e)
  in
  Alcotest.(check string) "served digest = offline digest" offline
    r1.Protocol.digest;
  (* a malformed request degrades to a structured error, not a closed
     connection *)
  (match
     Client.schedule client
       { Protocol.kernel = Some "nosuch"; source = None; fus = 2;
         method_ = "grip" }
   with
  | Ok _ -> Alcotest.fail "unknown kernel accepted"
  | Error _ -> ());
  (match Client.ping client with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("ping after error: " ^ msg));
  (* exposition: parses and carries the serve counters *)
  (match Client.metrics client with
  | Error msg -> Alcotest.fail ("metrics: " ^ msg)
  | Ok text -> (
      match Openmetrics.parse text with
      | Error msg -> Alcotest.fail ("metrics do not parse: " ^ msg)
      | Ok families ->
          let have name =
            List.exists (fun f -> f.Openmetrics.fname = name) families
          in
          List.iter
            (fun name ->
              Alcotest.(check bool) (name ^ " exposed") true (have name))
            [
              "grip_serve_requests"; "grip_serve_cache_hits";
              "grip_serve_cache_misses"; "grip_serve_latency_us";
            ]));
  (match Client.shutdown client with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("shutdown: " ^ msg));
  Client.close client;
  match Domain.join daemon with
  | Ok served ->
      (* miss + hit + unknown-kernel error = 3 schedule requests *)
      Alcotest.(check int) "served three requests" 3 served
  | Error e -> Alcotest.fail (Grip_error.to_string e)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        List.map QCheck_alcotest.to_alcotest
          [ prop_frame_roundtrip; prop_frame_truncated ]
        @ [
            Alcotest.test_case "oversized/bad header rejected" `Quick
              oversized_rejected;
            Alcotest.test_case "request json roundtrip" `Quick
              request_roundtrip;
          ] );
      ( "hdr",
        List.map QCheck_alcotest.to_alcotest
          [ prop_hdr_error_bound; prop_hdr_merge_law ]
        @ [
            Alcotest.test_case "config mismatch raises" `Quick
              hdr_config_mismatch;
            Alcotest.test_case "nearest-rank units" `Quick nearest_rank_units;
          ] );
      ( "metrics",
        [
          Alcotest.test_case "merge mismatch is structured" `Quick
            metrics_merge_mismatch;
          Alcotest.test_case "clean merge" `Quick metrics_merge_ok;
          Alcotest.test_case "openmetrics roundtrip" `Quick
            openmetrics_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick cache_lru;
          Alcotest.test_case "content addressing" `Quick
            cache_key_content_addressed;
        ] );
      ( "store",
        [
          Alcotest.test_case "checkout is exclusive" `Quick
            store_checkout_exclusive;
          Alcotest.test_case "admit needs a rank" `Quick store_admit_needs_rank;
          Alcotest.test_case "lru skips busy entries" `Quick
            store_lru_skips_busy;
          Alcotest.test_case "budget accounting" `Quick store_budget_accounting;
        ] );
      ( "loadgen",
        [ Alcotest.test_case "arrival schedule shape" `Quick arrivals_shape ] );
      ( "loopback",
        [ Alcotest.test_case "daemon smoke" `Quick loopback_smoke ] );
    ]
