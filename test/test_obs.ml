(* Observability subsystem: JSON encoding/parsing, metrics, trace
   sinks, and the invariant that ties them to the schedulers — the
   migration events recorded during the Schedule phase replay exactly
   to the scheduler's own counters. *)

module Obs = Grip_obs
module Json = Grip_obs.Json
module Trace = Grip_obs.Trace
module Metrics = Grip_obs.Metrics
module Pipeline = Grip.Pipeline
module Scheduler = Grip.Scheduler
module Post = Grip.Post
module Kernel = Grip.Kernel
module Machine = Vliw_machine.Machine
module Livermore = Workloads.Livermore

let kernel name = (Option.get (Livermore.find name)).Livermore.kernel

(* -- Json ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.Str "x\"y\\z\n\t");
        ("c", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("empty", Json.Obj []);
        ("unicode", Json.Str "caf\xc3\xa9");
        ("neg", Json.int (-42));
      ]
  in
  List.iter
    (fun pretty ->
      match Json.parse (Json.to_string ~pretty v) with
      | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
      | Error e -> Alcotest.failf "roundtrip parse failed: %s" e)
    [ false; true ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "[1] trailing" ]

let test_json_escapes () =
  match Json.parse {|"aAé😀b"|} with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "unicode escapes" "aA\xc3\xa9\xf0\x9f\x98\x80b" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* Documented failure modes of the string-escape parser: a truncated
   [\u] escape (fewer than four hex digits before the closing quote)
   and an escape character outside JSON's repertoire. *)
let test_json_escape_failures () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid escape %S" s
      | Error _ -> ())
    [ {|"\u12"|}; {|"\u123"|}; {|"\uzzzz"|}; {|"\x41"|}; {|"\q"|} ]

(* Round-trip property: any value the renderer can represent exactly
   parses back to itself, pretty or compact.  The generator sticks to
   numbers with exact decimal renderings — integers and dyadic
   fractions k/2^m — because [Num] carries a float and %.12g is only
   guaranteed lossless for those; strings draw from the full byte
   range, so control characters exercise the \u escape path and high
   bytes the raw UTF-8 pass-through. *)
let json_gen =
  QCheck2.Gen.(
    let scalar =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map Json.int (int_range (-1_000_000) 1_000_000);
          map
            (fun (k, m) -> Json.Num (float_of_int k /. float_of_int (1 lsl m)))
            (pair (int_range (-4096) 4096) (int_range 0 8));
          map (fun s -> Json.Str s) (string_size ~gen:char (int_bound 12));
        ]
    in
    sized
    @@ fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 ( 1,
                   map
                     (fun xs -> Json.List xs)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4)
                        (pair (string_size ~gen:char (int_bound 8)) (self (n / 2))))
                 );
               ]))

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"parse (to_string v) = v" ~count:200
    ~print:(fun v -> Json.to_string ~pretty:true v)
    json_gen
    (fun v ->
      List.for_all
        (fun pretty -> Json.parse (Json.to_string ~pretty v) = Ok v)
        [ false; true ])

(* -- Metrics -------------------------------------------------------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Metrics.add m "x" 4;
  Metrics.incr m "y";
  Alcotest.(check int) "x" 5 (Metrics.counter m "x");
  Alcotest.(check int) "y" 1 (Metrics.counter m "y");
  Alcotest.(check int) "absent" 0 (Metrics.counter m "z");
  (* disabled registry records nothing *)
  Metrics.incr Metrics.disabled "x";
  Alcotest.(check int) "disabled" 0 (Metrics.counter Metrics.disabled "x")

let test_metrics_histogram () =
  let m = Metrics.create () in
  List.iter
    (fun v -> Metrics.observe m ~bounds:[| 0; 1; 2; 4 |] "h" v)
    [ 0; 1; 1; 3; 100 ];
  match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "n" 5 h.Metrics.n;
      Alcotest.(check int) "sum" 105 h.Metrics.sum;
      Alcotest.(check int) "max" 100 h.Metrics.vmax;
      (* buckets: <=0, <=1, <=2, <=4, overflow *)
      Alcotest.(check (array int)) "counts" [| 1; 2; 0; 1; 1 |] h.Metrics.counts

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.observe m "h" 3;
  Metrics.add_time m "t" 0.25;
  let j = Metrics.to_json m in
  let member path =
    List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some j) path
  in
  Alcotest.(check (option (float 1e-9)))
    "counter" (Some 1.0)
    (Option.bind (member [ "counters"; "c" ]) Json.to_float);
  Alcotest.(check (option (float 1e-9)))
    "time" (Some 0.25)
    (Option.bind (member [ "times"; "t" ]) Json.to_float);
  Alcotest.(check bool)
    "histogram present" true
    (member [ "histograms"; "h" ] <> None);
  (* and the dump itself is valid JSON text *)
  match Json.parse (Json.to_string ~pretty:true j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics dump unparseable: %s" e

(* -- Metrics.merge laws --------------------------------------------------- *)

(* Distinct per-seed registries with overlapping and disjoint names.
   Times use power-of-two fractions so float addition is exact and the
   associativity check is not at the mercy of rounding. *)
let sample_registry seed =
  let m = Metrics.create () in
  Metrics.add m "shared" seed;
  Metrics.incr m (Printf.sprintf "only.%d" seed);
  Metrics.add_time m "t.shared" (0.25 *. float_of_int seed);
  Metrics.add_time m (Printf.sprintf "t.%d" seed) 0.5;
  Metrics.gauge_set m "g.shared" (float_of_int seed);
  Metrics.gauge_max m (Printf.sprintf "g.%d" seed) 1.0;
  List.iter
    (fun v -> Metrics.observe m ~bounds:[| 0; 1; 2; 4 |] "h" v)
    [ seed; seed * 2; 7 ];
  m

let dump m = Json.to_string ~pretty:true (Metrics.to_json m)

(* [merged rs] — a fresh registry with [rs] folded in left to right. *)
let merged rs =
  let m = Metrics.create () in
  List.iter (fun r -> Metrics.merge ~into:m r) rs;
  m

let test_metrics_merge_commutative () =
  let a = sample_registry 1 and b = sample_registry 2 in
  Alcotest.(check string) "a+b = b+a" (dump (merged [ a; b ])) (dump (merged [ b; a ]));
  (* and the combination is an actual sum, not a replacement *)
  let ab = merged [ a; b ] in
  Alcotest.(check int) "counters add" 3 (Metrics.counter ab "shared");
  Alcotest.(check (float 1e-12)) "times add" 0.75 (Metrics.time ab "t.shared");
  Alcotest.(check (float 0.0)) "gauges keep the max" 2.0
    (Metrics.gauge ab "g.shared");
  match Metrics.histogram ab "h" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
      Alcotest.(check int) "hist n adds" 6 h.Metrics.n;
      Alcotest.(check int) "hist max" 7 h.Metrics.vmax

let test_metrics_merge_associative () =
  let a = sample_registry 1 and b = sample_registry 2 and c = sample_registry 3 in
  Alcotest.(check string) "(a+b)+c = a+(b+c)"
    (dump (merged [ merged [ a; b ]; c ]))
    (dump (merged [ a; merged [ b; c ] ]))

let test_metrics_merge_bounds_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.observe a ~bounds:[| 0; 1 |] "h" 1;
  Metrics.observe b ~bounds:[| 0; 2 |] "h" 1;
  match Metrics.merge ~into:a b with
  | () -> Alcotest.fail "expected Merge_mismatch"
  | exception Metrics.Merge_mismatch { name; _ } ->
      Alcotest.(check string) "offending histogram named" "h" name

(* Gauge semantics: [gauge_set] is last-write-wins within a registry,
   [gauge_max] a high-water mark, merge keeps the max across
   registries, the disabled registry records nothing, and the JSON
   dump carries a gauges object. *)
let test_metrics_gauges () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.0)) "unset gauge reads 0" 0.0 (Metrics.gauge m "g");
  Metrics.gauge_set m "g" 5.0;
  Metrics.gauge_set m "g" 3.0;
  Alcotest.(check (float 0.0)) "set replaces" 3.0 (Metrics.gauge m "g");
  Metrics.gauge_max m "g" 2.0;
  Alcotest.(check (float 0.0)) "max keeps higher reading" 3.0
    (Metrics.gauge m "g");
  Metrics.gauge_max m "g" 7.0;
  Alcotest.(check (float 0.0)) "max advances" 7.0 (Metrics.gauge m "g");
  Metrics.gauge_set Metrics.disabled "g" 9.0;
  Alcotest.(check (float 0.0)) "disabled registry records nothing" 0.0
    (Metrics.gauge Metrics.disabled "g");
  let other = Metrics.create () in
  Metrics.gauge_set other "g" 4.0;
  Metrics.merge ~into:other m;
  Alcotest.(check (float 0.0)) "merge keeps max" 7.0 (Metrics.gauge other "g");
  match Json.member "gauges" (Metrics.to_json m) with
  | Some (Json.Obj [ ("g", Json.Num v) ]) ->
      Alcotest.(check (float 0.0)) "json gauge value" 7.0 v
  | _ -> Alcotest.fail "gauges object missing from metrics dump"

let test_metrics_merge_disabled () =
  let a = sample_registry 1 in
  let before = dump a in
  Metrics.merge ~into:a Metrics.disabled;
  Alcotest.(check string) "disabled source is a no-op" before (dump a);
  Metrics.merge ~into:Metrics.disabled a;
  Alcotest.(check int) "disabled sink records nothing" 0
    (Metrics.counter Metrics.disabled "shared")

(* -- trace replay invariant ----------------------------------------------- *)

(* Events recorded between the Schedule span's begin and end. *)
let schedule_events events =
  let rec skip = function
    | (_, Trace.Span_begin Trace.Schedule) :: rest -> take [] rest
    | _ :: rest -> skip rest
    | [] -> []
  and take acc = function
    | (_, Trace.Span_end Trace.Schedule) :: _ -> List.rev acc
    | e :: rest -> take (e :: acc) rest
    | [] -> List.rev acc
  in
  skip events

type replay = { attempts : int; hops : int; suspends : int; barriers : int }

let tally events =
  List.fold_left
    (fun r (_, ev) ->
      match ev with
      | Trace.Migrate_attempt _ -> { r with attempts = r.attempts + 1 }
      | Trace.Migrate_hop _ -> { r with hops = r.hops + 1 }
      | Trace.Migrate_suspend _ -> { r with suspends = r.suspends + 1 }
      | Trace.Migrate_barrier _ -> { r with barriers = r.barriers + 1 }
      | _ -> r)
    { attempts = 0; hops = 0; suspends = 0; barriers = 0 }
    events

let replay_of events = tally (schedule_events events)

(* Scheduling a kernel while recording to a ring buffer, then replaying
   the migration events, must reconstruct the scheduler's own counters:
   the trace is a faithful, lossless account of what the scheduler did.
   POST's phase 2 (break/repair) moves operations directly rather than
   through Migrate, so its replay matches the phase-1 counters. *)
let check_replay name method_ fu =
  let ring, tracer = Trace.ring () in
  let obs = Obs.make ~trace:tracer () in
  let o =
    Pipeline.run ~obs (kernel name) ~machine:(Machine.homogeneous fu) ~method_
  in
  Alcotest.(check int) "ring did not overflow" 0 (Trace.ring_dropped ring);
  let r = replay_of (Trace.ring_events ring) in
  let ctx = Printf.sprintf "%s/%s/%dFU" name (Pipeline.method_name method_) fu in
  let expect (s : Scheduler.stats) =
    Alcotest.(check int) (ctx ^ " migrations") s.Scheduler.migrations r.attempts;
    Alcotest.(check int) (ctx ^ " hops") s.Scheduler.hops r.hops;
    Alcotest.(check int) (ctx ^ " suspensions") s.Scheduler.suspensions
      r.suspends;
    Alcotest.(check int)
      (ctx ^ " barriers") s.Scheduler.resource_barrier_events r.barriers;
    Alcotest.(check bool) (ctx ^ " did work") true (s.Scheduler.migrations > 0)
  in
  match o.Pipeline.stats with
  | Pipeline.Grip_stats s -> expect s
  | Pipeline.Post_stats s -> expect s.Post.phase1
  | Pipeline.Unifiable_stats _ -> Alcotest.fail "unexpected Unifiable stats"

let replay_cases =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun fu ->
          List.map
            (fun m ->
              let label =
                Printf.sprintf "replay %s %s %dFU" name
                  (Pipeline.method_name m) fu
              in
              Alcotest.test_case label `Slow (fun () -> check_replay name m fu))
            [ Pipeline.Grip; Pipeline.Grip_no_gap; Pipeline.Post ])
        [ 2; 4 ])
    [ "LL1"; "LL5" ]

(* -- provenance journals --------------------------------------------------- *)

module Provenance = Obs.Provenance

(* Recorder mechanics, in isolation: renames carry the journal to the
   new identity, views come back oldest-first, and the blocker ranking
   counts Dep rejections per blamed operation. *)
let test_provenance_rename_follows () =
  let p = Provenance.create () in
  Provenance.record_hop p ~op:5 ~op':5 ~from_:1 ~to_:2 ~rule:Provenance.Move_op;
  Provenance.record_hop p ~op:5 ~op':9 ~from_:2 ~to_:3 ~rule:Provenance.Move_cj;
  Provenance.record_reject p ~op:9 ~node:3 (Provenance.Dep 4);
  Provenance.record_reject p ~op:9 ~node:3 (Provenance.Dep 4);
  Provenance.record_reject p ~op:9 ~node:3 (Provenance.Dep 2);
  Alcotest.(check bool) "old id unbound" true (Provenance.journal p 5 = None);
  (match Provenance.journal p 9 with
  | None -> Alcotest.fail "journal lost across rename"
  | Some j ->
      Alcotest.(check int) "origin" 1 j.Provenance.origin;
      Alcotest.(check (list int)) "aliases" [ 5 ] j.Provenance.aliases;
      (match Provenance.journey j with
      | [ h1; h2 ] ->
          Alcotest.(check int) "first hop source" 1 h1.Provenance.from_;
          Alcotest.(check bool)
            "rules recorded" true
            (h1.Provenance.rule = Provenance.Move_op
            && h2.Provenance.rule = Provenance.Move_cj)
      | hops -> Alcotest.failf "expected 2 hops, got %d" (List.length hops)));
  Alcotest.(check int) "total hops" 2 (Provenance.total_hops p);
  Alcotest.(check int) "total deps" 3 (Provenance.total_deps p);
  Alcotest.(check (list (pair int int)))
    "blockers ranked" [ (4, 2); (2, 1) ] (Provenance.blockers p)

let test_provenance_null_inert () =
  Provenance.record_hop Provenance.null ~op:1 ~op':1 ~from_:0 ~to_:1
    ~rule:Provenance.Move_op;
  Provenance.record_reject Provenance.null ~op:1 ~node:0 Provenance.Fuel;
  Alcotest.(check bool) "disabled" false (Provenance.enabled Provenance.null);
  Alcotest.(check int) "no journals" 0
    (List.length (Provenance.journals Provenance.null));
  Alcotest.(check int) "no hops" 0 (Provenance.total_hops Provenance.null);
  Alcotest.(check bool) "no fuel" false (Provenance.fuel_hit Provenance.null)

(* The replay invariant, journal edition: scheduling with provenance
   and metrics enabled, the journal-derived totals must equal both the
   scheduler's own counters and the metrics registry — hops,
   suspensions and resource barriers are recorded at the very sites
   that bump the counters, so any divergence is a lost or duplicated
   record.  POST's phase 2 moves operations outside Migrate, so its
   journals account for phase 1 exactly like the trace replay. *)
let check_prov_replay name method_ fu =
  let prov = Provenance.create () in
  let m = Metrics.create () in
  let obs = Obs.make ~metrics:m ~prov () in
  let o =
    Pipeline.run ~obs (kernel name) ~machine:(Machine.homogeneous fu) ~method_
  in
  let ctx = Printf.sprintf "%s/%s/%dFU" name (Pipeline.method_name method_) fu in
  let expect (s : Scheduler.stats) =
    Alcotest.(check int) (ctx ^ " hops") s.Scheduler.hops
      (Provenance.total_hops prov);
    Alcotest.(check int)
      (ctx ^ " suspensions") s.Scheduler.suspensions
      (Provenance.total_suspensions prov);
    Alcotest.(check int)
      (ctx ^ " barriers") s.Scheduler.resource_barrier_events
      (Provenance.total_barriers prov);
    Alcotest.(check int)
      (ctx ^ " hops = metrics")
      (Metrics.counter m "scheduler.hops")
      (Provenance.total_hops prov);
    Alcotest.(check int)
      (ctx ^ " suspensions = metrics")
      (Metrics.counter m "scheduler.suspensions")
      (Provenance.total_suspensions prov);
    Alcotest.(check int)
      (ctx ^ " barriers = metrics")
      (Metrics.counter m "scheduler.barriers")
      (Provenance.total_barriers prov);
    Alcotest.(check bool) (ctx ^ " journaled work") true
      (Provenance.total_hops prov > 0)
  in
  (match o.Pipeline.stats with
  | Pipeline.Grip_stats s -> expect s
  | Pipeline.Post_stats s -> expect s.Post.phase1
  | Pipeline.Unifiable_stats _ -> Alcotest.fail "unexpected Unifiable stats");
  Alcotest.(check bool)
    (ctx ^ " fuel agrees") o.Pipeline.fuel_exhausted
    (Provenance.fuel_hit prov)

let prov_replay_cases =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun fu ->
          List.map
            (fun m ->
              let label =
                Printf.sprintf "journal replay %s %s %dFU" name
                  (Pipeline.method_name m) fu
              in
              Alcotest.test_case label `Slow (fun () ->
                  check_prov_replay name m fu))
            [ Pipeline.Grip; Pipeline.Grip_no_gap; Pipeline.Post ])
        [ 2; 4 ])
    [ "LL1"; "LL5" ]

(* -- merged-trace replay (the parallel-harness invariant) ------------------ *)

(* Each task of a parallel batch records into a private ring buffer;
   the harness concatenates and time-sorts them.  The merged timeline
   must still be a lossless account: tallying every migration event in
   it reconstructs the sum of the individual schedulers' counters. *)
let test_merged_trace_replay () =
  let run name =
    let ring, tracer = Trace.ring () in
    let obs = Obs.make ~trace:tracer () in
    let o =
      Pipeline.run ~obs (kernel name) ~machine:(Machine.homogeneous 2)
        ~method_:Pipeline.Grip
    in
    Alcotest.(check int) "ring did not overflow" 0 (Trace.ring_dropped ring);
    match o.Pipeline.stats with
    | Pipeline.Grip_stats s -> (Trace.ring_events ring, s)
    | _ -> Alcotest.fail "expected Grip stats"
  in
  let e1, s1 = run "LL1" in
  let e2, s2 = run "LL5" in
  let merged = Trace.merge_events [ e1; e2 ] in
  Alcotest.(check int)
    "merge loses nothing"
    (List.length e1 + List.length e2)
    (List.length merged);
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "merged timeline is time-ordered" true (sorted merged);
  let r = tally merged in
  let sum f = f s1 + f s2 in
  Alcotest.(check int) "migrations"
    (sum (fun s -> s.Scheduler.migrations))
    r.attempts;
  Alcotest.(check int) "hops" (sum (fun s -> s.Scheduler.hops)) r.hops;
  Alcotest.(check int) "suspensions"
    (sum (fun s -> s.Scheduler.suspensions))
    r.suspends;
  Alcotest.(check int) "barriers"
    (sum (fun s -> s.Scheduler.resource_barrier_events))
    r.barriers

(* -- null sink changes nothing -------------------------------------------- *)

let test_null_sink_purity () =
  let run obs =
    let o =
      Pipeline.run ~obs (kernel "LL1") ~machine:(Machine.homogeneous 2)
        ~method_:Pipeline.Grip
    in
    let m = Pipeline.measure ~obs o in
    (Grip.Schedule_table.render o.Pipeline.program, m.Grip.Speedup.speedup)
  in
  let table_null, speedup_null = run Obs.null in
  let _, tracer = Trace.ring () in
  let table_traced, speedup_traced =
    run (Obs.make ~trace:tracer ~metrics:(Metrics.create ()) ())
  in
  Alcotest.(check string) "same schedule" table_null table_traced;
  Alcotest.(check (float 1e-9)) "same speedup" speedup_null speedup_traced;
  (* provenance journaling must be just as pure an observer *)
  let table_prov, speedup_prov =
    run (Obs.make ~prov:(Provenance.create ()) ())
  in
  Alcotest.(check string) "same schedule with journals" table_null table_prov;
  Alcotest.(check (float 1e-9))
    "same speedup with journals" speedup_null speedup_prov;
  (* the Table 1 artifact digests prov+metrics runs: every input of the
     pinned digest (rendered program, static CPI, convergence) must
     match the null-observer run, whatever the technique *)
  List.iter
    (fun (name, method_) ->
      let pinned obs =
        let o =
          Pipeline.run ~obs (kernel name) ~machine:(Machine.homogeneous 2) ~method_
        in
        ( Format.asprintf "%a" Vliw_ir.Program.pp o.Pipeline.program,
          o.Pipeline.static_cpi,
          o.Pipeline.pattern <> None )
      in
      Alcotest.(check (triple string (option (float 0.)) bool))
        (name ^ " " ^ Pipeline.method_name method_ ^ " digest inputs")
        (pinned Obs.null)
        (pinned (Obs.make ~prov:(Provenance.create ()) ~metrics:(Metrics.create ()) ())))
    (List.concat_map
       (fun m -> [ ("LL1", m); ("LL5", m) ])
       [ Pipeline.Grip; Pipeline.Grip_no_gap; Pipeline.Post ])

(* -- Chrome sink ---------------------------------------------------------- *)

let test_chrome_sink_valid () =
  let buf = Buffer.create 1024 in
  let tracer = Trace.chrome buf in
  let obs = Obs.make ~trace:tracer () in
  let o =
    Pipeline.run ~obs (kernel "LL1") ~machine:(Machine.homogeneous 2)
      ~method_:Pipeline.Grip
  in
  ignore (Pipeline.measure ~obs o);
  Trace.flush tracer;
  match Json.parse (Buffer.contents buf) with
  | Error e -> Alcotest.failf "chrome trace unparseable: %s" e
  | Ok (Json.List records) ->
      Alcotest.(check bool) "non-empty" true (records <> []);
      let phases = Hashtbl.create 8 in
      List.iter
        (fun r ->
          (match Option.bind (Json.member "ph" r) Json.to_str with
          | Some ph -> Hashtbl.replace phases ph ()
          | None -> Alcotest.fail "record without ph");
          if Json.member "name" r = None then
            Alcotest.fail "record without name";
          if Option.bind (Json.member "ts" r) Json.to_float = None then
            Alcotest.fail "record without numeric ts")
        records;
      List.iter
        (fun ph ->
          Alcotest.(check bool) ("has ph=" ^ ph) true (Hashtbl.mem phases ph))
        [ "B"; "E" ]
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"

(* -- ring truncation is observable ----------------------------------------- *)

(* A ring past capacity must say how much it overwrote (the CLI turns
   this into a truncation warning) and keep exactly the newest
   [capacity] events, oldest-first. *)
let test_ring_truncation () =
  let r, tracer = Trace.ring ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit tracer (Trace.Note (string_of_int i))
  done;
  Alcotest.(check int) "dropped" 6 (Trace.ring_dropped r);
  let survivors =
    List.filter_map
      (function _, Trace.Note s -> Some s | _ -> None)
      (Trace.ring_events r)
  in
  Alcotest.(check (list string)) "newest kept, oldest-first"
    [ "7"; "8"; "9"; "10" ] survivors;
  (* and an un-overflowed ring reports zero *)
  let r2, tracer2 = Trace.ring ~capacity:4 () in
  Trace.emit tracer2 (Trace.Note "only");
  Alcotest.(check int) "no overflow" 0 (Trace.ring_dropped r2)

(* -- Chrome flow chains ---------------------------------------------------- *)

(* Flow enrichment: an operation with >= 2 hops yields an s/t*/f chain
   sharing its id; single-hop operations yield nothing.  The enriched
   document must still be valid JSON. *)
let test_chrome_flows () =
  let hop op from_ to_ ts = (ts, Trace.Migrate_hop { op; from_; to_ }) in
  let events = [ hop 7 1 2 0.0; hop 9 1 4 0.5; hop 7 2 3 1.0; hop 7 3 5 1.5 ] in
  match Json.parse (Trace.chrome_string ~flows:true events) with
  | Error e -> Alcotest.failf "flow-enriched trace unparseable: %s" e
  | Ok (Json.List records) ->
      let flows =
        List.filter
          (fun r ->
            Option.bind (Json.member "cat" r) Json.to_str = Some "grip.flow")
          records
      in
      Alcotest.(check int) "base + flow records" (4 + 3) (List.length records);
      Alcotest.(check (list string))
        "flow phases"
        [ "s"; "t"; "f" ]
        (List.filter_map
           (fun r -> Option.bind (Json.member "ph" r) Json.to_str)
           flows);
      List.iter
        (fun r ->
          Alcotest.(check (option (float 1e-9)))
            "flow id is the multi-hop op" (Some 7.0)
            (Option.bind (Json.member "id" r) Json.to_float))
        flows
  | Ok _ -> Alcotest.fail "trace is not a JSON array"

(* -- bench diff ------------------------------------------------------------ *)

module Bench_diff = Obs.Bench_diff

let artifact ?(schema = "grip.bench.table1/3") loops =
  Printf.sprintf {|{"schema":%S,"loops":[%s]}|} schema
    (String.concat "," loops)

let ll1 ?(grip = 2.5) ?(post = 2.0) () =
  Printf.sprintf
    {|{"name":"LL1","fu2":{"grip":{"speedup":%g},"post":{"speedup":%g}}}|}
    grip post

let ll5 ?(grip = 3.0) () =
  Printf.sprintf {|{"name":"LL5","fu4":{"grip":{"speedup":%g}}}|} grip

let diff_ok ~old_ ~new_ =
  match Bench_diff.diff ~old_ ~new_ with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_bench_diff_self_clean () =
  let a = artifact [ ll1 (); ll5 () ] in
  let r = diff_ok ~old_:a ~new_:a in
  Alcotest.(check int) "cells" 3 (List.length r.Bench_diff.cells);
  Alcotest.(check (list string)) "only_old" [] r.Bench_diff.only_old;
  Alcotest.(check (list string)) "only_new" [] r.Bench_diff.only_new;
  Alcotest.(check int) "no regressions" 0
    (List.length (Bench_diff.regressions r))

let test_bench_diff_regression () =
  let old_ = artifact [ ll1 (); ll5 () ] in
  (* the GRiP drop regresses; the larger POST drop must not *)
  let new_ = artifact [ ll1 ~grip:2.4 ~post:1.0 (); ll5 () ] in
  match Bench_diff.regressions (diff_ok ~old_ ~new_) with
  | [ c ] ->
      Alcotest.(check string) "culprit" "LL1/fu2/grip" (Bench_diff.cell_label c);
      Alcotest.(check (float 1e-9)) "delta" (-0.1) (Bench_diff.delta c)
  | cs -> Alcotest.failf "expected 1 regression, got %d" (List.length cs)

let test_bench_diff_tolerance () =
  let old_ = artifact [ ll1 () ] in
  let new_ = artifact [ ll1 ~grip:2.45 () ] in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check int) "within tolerance" 0
    (List.length (Bench_diff.regressions ~tolerance:0.1 r));
  Alcotest.(check int) "beyond tolerance" 1
    (List.length (Bench_diff.regressions ~tolerance:0.01 r))

(* The cell layout has been stable since schema /1, so artifacts from
   before the bottleneck block stay comparable. *)
let test_bench_diff_cross_schema () =
  let old_ = artifact ~schema:"grip.bench.table1/1" [ ll1 () ] in
  let new_ = artifact [ ll1 () ] in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check int) "cells" 2 (List.length r.Bench_diff.cells)

(* A schema /6 artifact's per-cell gc block is extra data the diff
   never reads: a /6-vs-/5 comparison stays clean even though only
   one side carries it. *)
let test_bench_diff_tolerates_gc_block () =
  let ll1_gc =
    {|{"name":"LL1","fu2":{"grip":{"speedup":2.5,
        "gc":{"alloc_bytes":1048576,"minor_collections":3,
              "major_collections":1,"promoted_bytes":4096}},
      "post":{"speedup":2}}}|}
  in
  let old_ = artifact ~schema:"grip.bench.table1/5" [ ll1 () ] in
  let new_ = artifact ~schema:"grip.bench.table1/6" [ ll1_gc ] in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check int) "cells" 2 (List.length r.Bench_diff.cells);
  Alcotest.(check int) "no regressions" 0
    (List.length (Bench_diff.regressions r))

(* Schema /7 carried a per-cell cache block that /8 dropped: a /7
   artifact that still has it diffs cleanly against a /8 one. *)
let test_bench_diff_tolerates_dropped_cache_block () =
  let ll1_cache =
    {|{"name":"LL1","fu2":{"grip":{"speedup":2.5,
        "cache":{"memo_captured":0,"memo_seeded":0,"memo_reused":0,
                 "memo_invalidated":0,"warm_restores":0}},
      "post":{"speedup":2}}}|}
  in
  let old_ = artifact ~schema:"grip.bench.table1/7" [ ll1_cache ] in
  let new_ = artifact ~schema:"grip.bench.table1/8" [ ll1 () ] in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check int) "cells" 2 (List.length r.Bench_diff.cells);
  Alcotest.(check (list string)) "only_old" [] r.Bench_diff.only_old;
  Alcotest.(check int) "no regressions" 0
    (List.length (Bench_diff.regressions r))

(* Schema /9 added no-gap cells: against a /8 artifact they are
   new-only; once both sides carry them they are compared, never gated. *)
let test_bench_diff_no_gap_cells () =
  let ll1_no_gap x =
    Printf.sprintf
      {|{"name":"LL1","fu2":{"grip":{"speedup":2.5},"no-gap":{"speedup":%g},"post":{"speedup":2}}}|}
      x
  in
  let v9 = artifact ~schema:"grip.bench.table1/9" [ ll1_no_gap 1.5 ] in
  let r = diff_ok ~old_:(artifact ~schema:"grip.bench.table1/8" [ ll1 () ]) ~new_:v9 in
  Alcotest.(check (list string)) "only_new" [ "LL1/fu2/no-gap" ] r.Bench_diff.only_new;
  Alcotest.(check int) "cells" 2 (List.length r.Bench_diff.cells);
  let r = diff_ok ~old_:v9 ~new_:(artifact [ ll1_no_gap 1.0 ]) in
  Alcotest.(check (list string)) "no-gap compared"
    [ "LL1/fu2/grip"; "LL1/fu2/no-gap"; "LL1/fu2/post" ]
    (List.map Bench_diff.cell_label r.Bench_diff.cells);
  Alcotest.(check int) "no gate" 0 (List.length (Bench_diff.regressions r))

let test_bench_diff_asymmetric_cells () =
  let old_ = artifact [ ll1 (); ll5 () ] in
  let new_ =
    artifact [ ll1 (); {|{"name":"LL9","fu8":{"grip":{"speedup":4}}}|} ]
  in
  let r = diff_ok ~old_ ~new_ in
  Alcotest.(check (list string)) "only_old" [ "LL5/fu4/grip" ]
    r.Bench_diff.only_old;
  Alcotest.(check (list string)) "only_new" [ "LL9/fu8/grip" ]
    r.Bench_diff.only_new;
  Alcotest.(check int) "lopsided cells never regress" 0
    (List.length (Bench_diff.regressions r))

let test_bench_diff_rejects () =
  let good = artifact [ ll1 () ] in
  List.iter
    (fun (label, bad) ->
      match Bench_diff.diff ~old_:bad ~new_:good with
      | Ok _ -> Alcotest.failf "accepted %s" label
      | Error _ -> ())
    [
      ("unversioned schema", {|{"schema":"something.else","loops":[]}|});
      ("pre-/1 schema", artifact ~schema:"grip.bench.table1/0" []);
      ("no schema", {|{"loops":[]}|});
      ("invalid JSON", "{");
    ]

(* -- Unifiable stats and fuel (the Pipeline.run fix) ----------------------- *)

let test_unifiable_stats_surfaced () =
  let o =
    Pipeline.run Workloads.Paper_examples.abc ~machine:Machine.unlimited
      ~method_:Pipeline.Unifiable ~horizon:4
  in
  (match o.Pipeline.stats with
  | Pipeline.Unifiable_stats s ->
      Alcotest.(check bool)
        "did migrations" true
        (s.Grip.Unifiable.migrations > 0)
  | _ -> Alcotest.fail "expected Unifiable stats");
  Alcotest.(check bool) "budget not exhausted" false o.Pipeline.fuel_exhausted

let test_unifiable_fuel_exhausted () =
  let o =
    Pipeline.run Workloads.Paper_examples.abc ~machine:Machine.unlimited
      ~method_:Pipeline.Unifiable ~horizon:4 ~max_migrations:1
  in
  Alcotest.(check bool) "budget exhausted" true o.Pipeline.fuel_exhausted

(* -- rpo cache (per-program-version caching in schedule_node) -------------- *)

let test_rpo_cache_effective () =
  let m = Metrics.create () in
  let obs = Obs.make ~metrics:m () in
  ignore
    (Pipeline.run ~obs (kernel "LL1") ~machine:(Machine.homogeneous 2)
       ~method_:Pipeline.Grip);
  let saved = Metrics.counter m "scheduler.rpo_rebuilds_saved" in
  let rebuilt = Metrics.counter m "scheduler.rpo_rebuilds" in
  Alcotest.(check bool) "cache hits happen" true (saved > 0);
  Alcotest.(check bool) "cache invalidates on mutation" true (rebuilt > 1)

(* The dominator cache in Unifiable.set: one real [Dom.compute] per
   program-version change, every other set computation served from the
   per-context cache. *)
let test_dom_cache_effective () =
  let o =
    Pipeline.run Workloads.Paper_examples.abc ~machine:Machine.unlimited
      ~method_:Pipeline.Unifiable ~horizon:4
  in
  match o.Pipeline.stats with
  | Pipeline.Unifiable_stats s ->
      Alcotest.(check int)
        "every set computation accounted for"
        s.Grip.Unifiable.set_computations
        (s.Grip.Unifiable.dom_recomputations + s.Grip.Unifiable.dom_reuses);
      Alcotest.(check bool)
        "cache serves repeat queries" true
        (s.Grip.Unifiable.dom_reuses > 0)
  | _ -> Alcotest.fail "expected Unifiable stats"

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "escape failures" `Quick test_json_escape_failures;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "json dump" `Quick test_metrics_json;
          Alcotest.test_case "merge commutative" `Quick
            test_metrics_merge_commutative;
          Alcotest.test_case "merge associative" `Quick
            test_metrics_merge_associative;
          Alcotest.test_case "merge bounds mismatch" `Quick
            test_metrics_merge_bounds_mismatch;
          Alcotest.test_case "merge disabled" `Quick
            test_metrics_merge_disabled;
          Alcotest.test_case "gauges" `Quick test_metrics_gauges;
        ] );
      ("replay", replay_cases);
      ( "provenance",
        Alcotest.test_case "rename follows identity" `Quick
          test_provenance_rename_follows
        :: Alcotest.test_case "null recorder is inert" `Quick
             test_provenance_null_inert
        :: prov_replay_cases );
      ( "merged-trace",
        [
          Alcotest.test_case "merged replay reconstructs counters" `Slow
            test_merged_trace_replay;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null sink purity" `Quick test_null_sink_purity;
          Alcotest.test_case "chrome JSON valid" `Quick test_chrome_sink_valid;
          Alcotest.test_case "ring truncation observable" `Quick
            test_ring_truncation;
          Alcotest.test_case "chrome flow chains" `Quick test_chrome_flows;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "self diff clean" `Quick test_bench_diff_self_clean;
          Alcotest.test_case "regression detected" `Quick
            test_bench_diff_regression;
          Alcotest.test_case "tolerance respected" `Quick
            test_bench_diff_tolerance;
          Alcotest.test_case "cross-schema comparable" `Quick
            test_bench_diff_cross_schema;
          Alcotest.test_case "gc block tolerated" `Quick
            test_bench_diff_tolerates_gc_block;
          Alcotest.test_case "dropped cache block tolerated" `Quick
            test_bench_diff_tolerates_dropped_cache_block;
          Alcotest.test_case "asymmetric cells reported" `Quick
            test_bench_diff_asymmetric_cells;
          Alcotest.test_case "no-gap cells new-only" `Quick
            test_bench_diff_no_gap_cells;
          Alcotest.test_case "malformed artifacts rejected" `Quick
            test_bench_diff_rejects;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "unifiable stats surfaced" `Quick
            test_unifiable_stats_surfaced;
          Alcotest.test_case "unifiable fuel exhausted" `Quick
            test_unifiable_fuel_exhausted;
          Alcotest.test_case "rpo cache effective" `Quick
            test_rpo_cache_effective;
          Alcotest.test_case "dom cache effective" `Quick
            test_dom_cache_effective;
        ] );
    ]
