(* Open-loop benchmark client on one connection.

   Requests go out at their scheduled arrival times whatever the
   daemon is doing: the socket is non-blocking, frames the kernel will
   not take yet wait in a user-space queue, and every pass of the loop
   both writes what it can and reads every reply that has arrived.  A
   daemon that stops reading therefore shows up as send lateness and
   latency, never as a client blocked in write() with the daemon
   blocked writing replies nobody reads.  Latency runs from the
   scheduled arrival, so a stall is charged to every request it
   delays.  Requests still unanswered at the deadline are reported as
   such. *)

module Protocol = Grip_serve.Protocol
module Client = Grip_serve.Client

type reply = {
  latency : float;  (** seconds from scheduled arrival to reply *)
  outcome : (Protocol.reply, string) result;
}

type result = {
  replies : reply option array;  (** [None]: unanswered at the deadline *)
  late : float array;  (** seconds from scheduled arrival to the last byte sent *)
  outstanding_max : int;
  wall : float;  (** first scheduled arrival to last reply, seconds *)
}

let would_block = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

(** [run client ~arrivals ~requests ~deadline] — send [requests.(i)]
    at [arrivals.(i)] seconds after the start (nondecreasing) and
    collect replies until all are in or [deadline] seconds have passed
    since the start. *)
let run (client : Client.t) ~arrivals ~requests ~deadline =
  let n = Array.length requests in
  let fd = client.Client.fd in
  let replies = Array.make n None in
  let late = Array.make n nan in
  let slot_of_id = Hashtbl.create 1024 in
  (* frames not yet fully written: (request index, frame, bytes done) *)
  let outq = Queue.create () in
  let inbuf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let next = ref 0 and outstanding = ref 0 and outstanding_max = ref 0 in
  let answered = ref 0 and closed = ref false and last_reply = ref 0.0 in
  Unix.set_nonblock fd;
  let t0 = Stats.now () in
  let flush () =
    let rec go () =
      match Queue.peek_opt outq with
      | None -> ()
      | Some (i, frame, off) -> (
          let len = String.length frame - !off in
          match Unix.write_substring fd frame !off len with
          | k when k = len ->
              ignore (Queue.pop outq);
              late.(i) <- Stats.now () -. (t0 +. arrivals.(i));
              go ()
          | k -> off := !off + k
          | exception Unix.Unix_error (e, _, _) when would_block e -> ()
          | exception Unix.Unix_error _ -> closed := true)
    in
    go ()
  in
  let on_frame (f : Protocol.frame) =
    match Hashtbl.find_opt slot_of_id f.Protocol.id with
    | None -> ()
    | Some i ->
        Hashtbl.remove slot_of_id f.Protocol.id;
        let now = Stats.now () in
        last_reply := now;
        let outcome =
          match f.Protocol.kind with
          | Protocol.Schedule_resp -> Protocol.reply_of_payload f.Protocol.payload
          | Protocol.Error_resp ->
              let stage, msg = Protocol.error_of_payload f.Protocol.payload in
              Error (stage ^ ": " ^ msg)
          | k -> Error ("unexpected " ^ Protocol.kind_name k)
        in
        replies.(i) <- Some { latency = now -. (t0 +. arrivals.(i)); outcome };
        decr outstanding;
        incr answered
  in
  (* every complete frame in [inbuf]; a partial one stays buffered *)
  let parse () =
    let s = Buffer.contents inbuf in
    let rec go pos =
      if String.length s - pos < Protocol.header_len then pos
      else
        match Protocol.decode_header (String.sub s pos Protocol.header_len) with
        | Error _ ->
            closed := true;
            String.length s
        | Ok (kind, id, len) ->
            let total = Protocol.header_len + len in
            if String.length s - pos < total then pos
            else begin
              on_frame
                { Protocol.id; kind; payload = String.sub s (pos + Protocol.header_len) len };
              go (pos + total)
            end
    in
    let pos = go 0 in
    Buffer.clear inbuf;
    Buffer.add_substring inbuf s pos (String.length s - pos)
  in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> closed := true
    | k ->
        Buffer.add_subbytes inbuf chunk 0 k;
        drain ()
    | exception Unix.Unix_error (e, _, _) when would_block e -> ()
    | exception Unix.Unix_error _ -> closed := true
  in
  let finished () =
    !closed || (!next = n && !answered = n) || Stats.now () -. t0 > deadline
  in
  while not (finished ()) do
    let now = Stats.now () in
    while !next < n && t0 +. arrivals.(!next) <= now do
      let i = !next in
      let id = Client.fresh_id client in
      Hashtbl.replace slot_of_id id i;
      let payload = Grip_obs.Json.to_string (Protocol.request_to_json requests.(i)) in
      Queue.push (i, Protocol.encode { Protocol.id; kind = Protocol.Schedule_req; payload }, ref 0) outq;
      incr next;
      incr outstanding;
      outstanding_max := max !outstanding_max !outstanding
    done;
    flush ();
    let wake =
      if !next < n then t0 +. arrivals.(!next) else t0 +. deadline
    in
    let timeout = Float.max 0.0 (Float.min 0.05 (wake -. Stats.now ())) in
    let writers = if Queue.is_empty outq then [] else [ fd ] in
    (match Unix.select [ fd ] writers [] timeout with
    | readable, _, _ ->
        if readable <> [] then begin
          drain ();
          parse ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  Unix.clear_nonblock fd;
  {
    replies;
    late;
    outstanding_max = !outstanding_max;
    wall = (if !answered > 0 then !last_reply -. t0 else Stats.now () -. t0);
  }
