(* Order statistics and summaries shared by the workloads. *)

(** [percentile xs q] — nearest-rank [q]-quantile ([q] in [0, 1]) of
    [xs]; [nan] when [xs] is empty. *)
let percentile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 0.5

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

(** [ratio a b] — [a / b], 0 when [b] is 0. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let now = Unix.gettimeofday

(** [cpu ()] — CPU seconds the calling domain has run so far. *)
external cpu : unit -> float = "perfbench_thread_cputime"

(** [allocated_bytes ()] — bytes this domain has allocated so far:
    [Gc.minor_words] plus direct major-heap allocations.  On OCaml 5.1
    the minor count inside [Gc.counters] (and so [Gc.allocated_bytes])
    moves in minor-heap-sized steps, while [Gc.minor_words] and the
    major-minus-promoted difference are exact, so per-cell deltas
    repeat from run to run. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(** [peak_rss_mb pid] — peak resident set (VmHWM) of process [pid], or
    of this process when [pid] is 0. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  In_channel.with_open_text path (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
            else find ()
      in
      find ())
