(* Connection handlers run inside the broker's select loop; they must
   never block (all fds are non-blocking, EAGAIN is a normal return).
   The attribute makes this module's definitions roots of the
   blocking-taint pass. *)
[@@@problint.event_loop]

module Codec = Probsub_store_log.Codec

type entry = { cls : Wire.cls; bytes : string }

type t = {
  fd : Unix.file_descr;
  decoder : Codec.Decoder.t;
  (* [Unix.read fd], applied once: each [recv] hands it to the decoder,
     which reads straight into its own free tail. *)
  read : bytes -> int -> int -> int;
  max_queue_bytes : int;
  (* Write queue as a two-list deque, oldest first in [front]; the
     head entry may be partially written ([head_off] bytes gone). *)
  mutable front : entry list;
  mutable back : entry list;
  mutable head_off : int;
  mutable queued_bytes : int;
  mutable shed_total : int;
  mutable closed : bool;
  mutable fd_closed : bool;
}

let create ?(max_queue_bytes = 1 lsl 20) fd =
  if max_queue_bytes < 1 then
    invalid_arg "Conn.create: max_queue_bytes must be positive";
  Unix.set_nonblock fd;
  {
    fd;
    decoder = Codec.Decoder.create ();
    read = Unix.read fd;
    max_queue_bytes;
    front = [];
    back = [];
    head_off = 0;
    queued_bytes = 0;
    shed_total = 0;
    closed = false;
    fd_closed = false;
  }

let fd t = t.fd
let closed t = t.closed
let queued_bytes t = t.queued_bytes
let shed_total t = t.shed_total
let wants_write t = (not t.closed) && (t.front <> [] || t.back <> [])

let close t =
  t.closed <- true;
  if not t.fd_closed then begin
    t.fd_closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Drop the oldest sheddable entries until the queue fits, never
   touching control traffic or a partially-written head (removing a
   half-sent frame would corrupt the byte stream). *)
let shed t =
  if t.queued_bytes <= t.max_queue_bytes then 0
  else begin
    let entries = t.front @ List.rev t.back in
    let protected, candidates =
      match entries with
      | e :: tl when t.head_off > 0 -> ([ e ], tl)
      | _ -> ([], entries)
    in
    let dropped = ref 0 in
    let rec go kept total = function
      | [] -> (List.rev kept, total)
      | e :: tl ->
          if total > t.max_queue_bytes && e.cls = Wire.Sheddable then begin
            incr dropped;
            go kept (total - String.length e.bytes) tl
          end
          else go (e :: kept) total tl
    in
    let kept, total = go [] t.queued_bytes candidates in
    t.front <- protected @ kept;
    t.back <- [];
    t.queued_bytes <- total;
    t.shed_total <- t.shed_total + !dropped;
    !dropped
  end

let send t ~cls bytes =
  if t.closed then 0
  else begin
    t.back <- { cls; bytes } :: t.back;
    t.queued_bytes <- t.queued_bytes + String.length bytes;
    shed t
  end

let send_msg t ~seq msg = send t ~cls:(Wire.class_of msg) (Wire.frame ~seq msg)

let normalize t =
  match t.front with
  | [] ->
      t.front <- List.rev t.back;
      t.back <- []
  | _ :: _ -> ()

let rec flush t =
  if t.closed then `Closed
  else begin
    normalize t;
    match t.front with
    | [] -> `Ok
    | e :: tl -> (
        let remaining = String.length e.bytes - t.head_off in
        match Unix.write_substring t.fd e.bytes t.head_off remaining with
        | n ->
            if n = remaining then begin
              t.front <- tl;
              t.head_off <- 0;
              t.queued_bytes <- t.queued_bytes - String.length e.bytes;
              flush t
            end
            else begin
              (* Short write: the kernel buffer is full; select will
                 tell us when to come back. *)
              t.head_off <- t.head_off + n;
              `Ok
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            `Ok
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush t
        | exception Unix.Unix_error (_, _, _) ->
            close t;
            `Closed)
  end

let recv t =
  if t.closed then `Eof
  else
    match Codec.Decoder.read_into t.decoder ~read:t.read with
    | 0 -> `Eof
    | n -> `Data n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Blocked
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Blocked
    | exception Unix.Unix_error (_, _, _) -> `Eof

let next t =
  match Codec.Decoder.next t.decoder with
  | Codec.Decoder.D_frame { lsn; payload } -> (
      match Wire.decode payload with
      | Ok msg -> `Msg (lsn, msg)
      | Error reason -> `Corrupt reason)
  | Codec.Decoder.D_need_more -> `Pending
  | Codec.Decoder.D_corrupt reason -> `Corrupt reason
