(** Observability for the GRiP stack: typed tracing ({!Trace}),
    counters / histograms / timings ({!Metrics}), per-operation
    provenance journals ({!Provenance}), the post-schedule bottleneck
    analyzer ({!Bottleneck}), bench-artifact diffing ({!Bench_diff}),
    and the minimal JSON layer they all share ({!Json}).

    A {!t} bundles one tracer and one metrics registry, and is threaded
    through the percolation context ([Vliw_percolation.Ctx]) and the
    pipeline drivers.  Provenance journals are a trace sink
    ([Provenance.tracer]), and the scheduler's counters are published
    into the registry from its stats at the end of a run.  {!null} —
    the default everywhere — disables both: instrumented hot paths
    guard on [enabled] so an unobserved run pays a boolean test per
    site and nothing else. *)

module Json = Json
module Trace = Trace
module Metrics = Metrics
module Provenance = Provenance
module Bottleneck = Bottleneck
module Bench_diff = Bench_diff
module Runtime = Runtime
module Profile = Profile
module Hdr = Hdr
module Openmetrics = Openmetrics

type t = { trace : Trace.t; metrics : Metrics.t }

let null = { trace = Trace.null; metrics = Metrics.disabled }

let make ?(trace = Trace.null) ?(metrics = Metrics.disabled) () =
  { trace; metrics }

let enabled t = Trace.enabled t.trace || Metrics.enabled t.metrics

(** [timed t phase f] — run [f] inside a [phase] span, accumulate its
    wall time under [phase.<name>], and return (result, seconds).  The
    timing pair is returned even when [t] is {!null}, so drivers can
    report per-phase seconds without enabling observability.

    When metrics are enabled, the span boundaries also sample the
    domain-local GC ([Gc.allocated_bytes] / [Gc.quick_stat]) and
    accumulate the deltas under [gc.alloc_bytes.phase.<name>],
    [gc.minor.phase.<name>] and [gc.major.phase.<name>], plus the
    [gc.top_heap_words] high-water gauge.  Valid per phase because a
    task runs entirely on one domain; on the null registry the extra
    cost is the existing boolean test. *)
let timed t phase f =
  Trace.emit t.trace (Trace.Span_begin phase);
  let sample = Metrics.enabled t.metrics in
  let a0 = if sample then Gc.allocated_bytes () else 0.0 in
  let q0 = if sample then Some (Gc.quick_stat ()) else None in
  let t0 = Unix.gettimeofday () in
  let finish () = Unix.gettimeofday () -. t0 in
  let record dt =
    Trace.emit t.trace (Trace.Span_end phase);
    let name = Trace.phase_name phase in
    Metrics.add_time t.metrics ("phase." ^ name) dt;
    match q0 with
    | None -> ()
    | Some q0 ->
        let a1 = Gc.allocated_bytes () in
        let q1 = Gc.quick_stat () in
        Metrics.add t.metrics ("gc.alloc_bytes.phase." ^ name)
          (int_of_float (a1 -. a0));
        Metrics.add t.metrics ("gc.minor.phase." ^ name)
          (q1.Gc.minor_collections - q0.Gc.minor_collections);
        Metrics.add t.metrics ("gc.major.phase." ^ name)
          (q1.Gc.major_collections - q0.Gc.major_collections);
        Metrics.gauge_max t.metrics "gc.top_heap_words"
          (float_of_int q1.Gc.top_heap_words)
  in
  match f () with
  | v ->
      let dt = finish () in
      record dt;
      (v, dt)
  | exception e ->
      let dt = finish () in
      record dt;
      raise e
