(* The `grip serve` daemon as a child process: start it on a Unix
   socket under perfbench/.run, talk to it over one connection, scrape
   its OpenMetrics exposition, and stop it.  Its log is kept only when
   something went wrong. *)

module Client = Grip_serve.Client

let run_dir = "perfbench/.run"

type t = { pid : int; client : Client.t; socket : string; log : string }

let live : t list ref = ref []

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill t =
  live := List.filter (fun d -> d.pid <> t.pid) !live;
  Client.close t.client;
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t.pid;
  try Sys.remove t.socket with Sys_error _ -> ()

(* Whatever happens to the benchmark, no daemon outlives it. *)
let () = at_exit (fun () -> List.iter kill !live)

let log_tail log =
  match In_channel.with_open_text log In_channel.input_all with
  | s ->
      let n = String.length s in
      if n > 2000 then String.sub s (n - 2000) 2000 else s
  | exception Sys_error _ -> ""

let fail log fmt =
  Printf.ksprintf (fun msg -> failwith (Printf.sprintf "%s; daemon log %s:\n%s" msg log (log_tail log))) fmt

(** [start ~grip ~name flags] — spawn [grip serve] with [flags],
    connect, and wait for a ping reply. *)
let start ~grip ~name flags =
  mkdir_p run_dir;
  let socket = Printf.sprintf "%s/%s-%d.sock" run_dir name (Unix.getpid ()) in
  let log = Printf.sprintf "%s/%s-%d.log" run_dir name (Unix.getpid ()) in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list ((grip :: "serve" :: "--socket" :: socket :: flags)) in
  let pid = Unix.create_process grip argv Unix.stdin log_fd log_fd in
  Unix.close log_fd;
  match Client.connect ~attempts:200 ~delay:0.025 (Grip_serve.Server.Unix_sock socket) with
  | Error msg ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid;
      fail log "cannot reach grip serve: %s" msg
  | Ok client ->
      let t = { pid; client; socket; log } in
      live := t :: !live;
      (match Client.ping client with
      | Ok () -> ()
      | Error msg ->
          kill t;
          fail log "grip serve did not answer a ping: %s" msg);
      t

(** [stop t] — ask the daemon to drain and exit, and wait for it. *)
let stop t =
  match Client.shutdown t.client with
  | Ok () ->
      live := List.filter (fun d -> d.pid <> t.pid) !live;
      Client.close t.client;
      reap t.pid;
      (try Sys.remove t.log with Sys_error _ -> ())
  | Error msg ->
      kill t;
      fail t.log "grip serve did not shut down cleanly: %s" msg

(** [scrape t] — the daemon's exposition as sample name -> value. *)
let scrape t =
  match Client.metrics t.client with
  | Error msg -> failwith ("metrics scrape failed: " ^ msg)
  | Ok text -> (
      match Grip_obs.Openmetrics.parse text with
      | Error msg -> failwith ("unparseable exposition: " ^ msg)
      | Ok families ->
          let tbl = Hashtbl.create 128 in
          List.iter
            (fun (f : Grip_obs.Openmetrics.family) ->
              List.iter (fun (name, v) -> Hashtbl.replace tbl name v) f.Grip_obs.Openmetrics.samples)
            families;
          tbl)

(** [delta before after name] — growth of a counter sample between two
    scrapes; a sample the daemon has not created yet reads as 0. *)
let delta before after name =
  let get tbl = Option.value (Hashtbl.find_opt tbl name) ~default:0.0 in
  get after -. get before
