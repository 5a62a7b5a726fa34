(* One run's result: the metrics it measured, how many operations it
   attempted and how many failed a check, and why.  [print] writes a
   human-readable block and then, as the last line of standard output,
   the machine-readable JSON object. *)

module Json = Grip_obs.Json

type t = {
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let create () = { metrics = []; attempted = 0; failed = 0; problems = [] }

(** [problem t fmt] — record a failed check; it makes the run
    incorrect whether or not an operation is counted as failed. *)
let problem t fmt =
  Printf.ksprintf (fun s -> t.problems <- s :: t.problems) fmt

(* A metric with no samples behind it (nan) would also be invalid
   JSON: it fails the run instead. *)
let add t name ~unit_ value =
  if Float.is_finite value then t.metrics <- (name, value, unit_) :: t.metrics
  else begin
    problem t "%s has no finite value" name;
    t.metrics <- (name, 0.0, unit_) :: t.metrics
  end

let attempt t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let correct t = t.problems = [] && t.failed = 0 && t.attempted > 0

let print ~stamp t =
  Printf.printf "stamp %s\n" (Json.to_string stamp);
  List.iter
    (fun (name, v, u) -> Printf.printf "  %-26s %14.6g %s\n" name v u)
    (List.rev t.metrics);
  Printf.printf "  %-26s %14.6g ratio (%d failed of %d attempted)\n" "fail_frac"
    (Stats.ratio (float_of_int t.failed) (float_of_int t.attempted))
    t.failed t.attempted;
  List.iter (Printf.printf "FAILED CHECK: %s\n") (List.rev t.problems);
  let metrics =
    List.rev_map
      (fun (name, v, u) ->
        (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
      t.metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct t));
            ("attempted", Json.int t.attempted);
            ("failed", Json.int t.failed);
            ("metrics", Json.Obj metrics);
          ]))
