(* The generator: forks the broker, then drives it over at most two
   sockets from one select loop — the client connection that carries
   every subscribe, unsubscribe and publish in order, and (when the
   workload has a neighbour) the broker's own link to broker 1, which
   the generator answers as that peer. No fixed sleeps: the loop blocks
   in select until the next arrival is due or bytes arrive. *)

module Wire = Probsub_server.Wire
module Conn = Probsub_server.Conn
module Broker_server = Probsub_server.Broker_server
module Broker_node = Probsub_broker.Broker_node
module Message = Probsub_broker.Message

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let client_id = 7
let peer_id = 1

let rec select_eintr r w timeout =
  match Unix.select r w [] timeout with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr r w 0.0

(* ------------------------------------------------------------------ *)
(* The broker child: Broker_server.create plus its step loop. SIGUSR1
   marks the start of the measured phase, SIGTERM ends it; the child
   then writes the deltas of its own CPU time and server counters, and
   the node's absolute state, as "name value" lines. *)

type usage = {
  cpu : float;
  wall : float;
  frames_in : int;
  frames_out : int;
  sheds : int;
  retransmits : int;
}

let usage t =
  let tm = Unix.times () in
  let s = Broker_server.stats t in
  {
    cpu = tm.Unix.tms_utime +. tm.Unix.tms_stime;
    wall = now ();
    frames_in = s.Broker_server.frames_in;
    frames_out = s.Broker_server.frames_out;
    sheds = s.Broker_server.sheds;
    retransmits = s.Broker_server.retransmits;
  }

(* The generator runs with a larger minor heap so its own collections
   do not make it send late; the broker child gets the runtime's
   defaults back, so the system under test runs as it would alone. *)
let default_gc = Gc.get ()

let child_main cfg ~ready ~report =
  Gc.set default_gc;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false and mark = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> mark := true));
  let t = Broker_server.create cfg in
  ignore (Unix.write ready (Bytes.make 1 'r') 0 1);
  Unix.close ready;
  let base = ref None in
  while not !stop do
    if !mark then begin
      mark := false;
      base := Some (usage t)
    end;
    Broker_server.step t
  done;
  let fin = usage t in
  let b = Option.value !base ~default:fin in
  let node = Broker_server.node t in
  let towards f =
    match cfg.Broker_server.neighbors with n :: _ -> f node ~neighbor:n | [] -> 0
  in
  let oc = open_out report in
  List.iter
    (fun (k, v) -> Printf.fprintf oc "%s %.17g\n" k v)
    [
      ("cpu_s", fin.cpu -. b.cpu);
      ("wall_s", fin.wall -. b.wall);
      ("frames_in", float_of_int (fin.frames_in - b.frames_in));
      ("frames_out", float_of_int (fin.frames_out - b.frames_out));
      ("sheds", float_of_int (fin.sheds - b.sheds));
      ("retransmits", float_of_int (fin.retransmits - b.retransmits));
      ("top_heap_words", float_of_int (Gc.quick_stat ()).Gc.top_heap_words);
      ("live_words", (Gc.full_major (); float_of_int (Gc.stat ()).Gc.live_words));
      ("routing_size", float_of_int (Broker_node.routing_table_size node));
      ("active_towards", float_of_int (towards Broker_node.active_towards));
      ("suppressed_towards", float_of_int (towards Broker_node.suppressed_towards));
    ];
  close_out oc;
  Broker_server.shutdown t

type broker = { pid : int; report : string }

let spawn cfg ~report =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (try child_main cfg ~ready:w ~report with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ok =
        match select_eintr [ r ] [] 30.0 with
        | [], _ -> false
        | _ -> ( try Unix.read r (Bytes.create 1) 0 1 = 1 with Unix.Unix_error _ -> false)
      in
      Unix.close r;
      if not ok then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        fail "broker process failed to come up"
      end;
      { pid; report }

let kill b =
  (try Unix.kill b.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] b.pid) with Unix.Unix_error _ -> ()

(* SIGTERM, wait, and read the child's report. *)
let stop b =
  (try Unix.kill b.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] b.pid);
  let ic = open_in b.report in
  let rec lines acc =
    match input_line ic with
    | l -> (
        match String.split_on_char ' ' l with
        | [ k; v ] -> lines ((k, float_of_string v) :: acc)
        | _ -> lines acc)
    | exception End_of_file -> acc
  in
  let kv = lines [] in
  close_in ic;
  fun k -> match List.assoc_opt k kv with Some v -> v | None -> fail "broker report lacks %s" k

let mark b = Unix.kill b.pid Sys.sigusr1

(* ------------------------------------------------------------------ *)
(* Sessions: what one broker instance was sent and what came back. *)

type session = {
  client : Conn.t;
  mutable peer : Conn.t option;
  mutable peer_out : int;  (* our frame numbering on the peer link *)
  mutable seq : int;  (* next client frame sequence number *)
  log : Buffer.t;  (* the exact client bytes sent, in order *)
  mutable due_at : float array;  (* by client seq *)
  mutable sent_at : float array;
  mutable ack_at : float array;
  (* Every Notify as it arrived: pub id, key, arrival time. *)
  mutable n_pub : int array;
  mutable n_key : int array;
  mutable n_at : float array;
  mutable n_len : int;
  mutable forwards : Message.payload list;  (* newest first *)
  mutable welcomed : bool;
}

let ensure s seq =
  let n = Array.length s.due_at in
  if seq >= n then begin
    let grow a = Array.append a (Array.make (max (seq + 1 - n) (max n 1024)) 0.0) in
    s.due_at <- grow s.due_at;
    s.sent_at <- grow s.sent_at;
    s.ack_at <- grow s.ack_at
  end

let read_client s =
  let rec drain stamp =
    match Conn.next s.client with
    | `Msg (_, Wire.Frame_ack { seq }) ->
        if seq < Array.length s.ack_at && s.ack_at.(seq) = 0.0 then s.ack_at.(seq) <- stamp;
        drain stamp
    | `Msg (_, Wire.Notify { key; pub_id; client = _ }) ->
        let i = s.n_len in
        if i = Array.length s.n_pub then begin
          s.n_pub <- Array.append s.n_pub s.n_pub;
          s.n_key <- Array.append s.n_key s.n_key;
          s.n_at <- Array.append s.n_at s.n_at
        end;
        s.n_pub.(i) <- pub_id;
        s.n_key.(i) <- key;
        s.n_at.(i) <- stamp;
        s.n_len <- i + 1;
        drain stamp
    | `Msg (_, Wire.Welcome _) ->
        s.welcomed <- true;
        drain stamp
    | `Msg (_, Wire.Bye) -> fail "broker said Bye on the client connection"
    | `Msg (_, (Wire.Hello _ | Wire.Payload _ | Wire.Repl_stream _)) -> drain stamp
    | `Pending -> ()
    | `Corrupt reason -> fail "corrupt client stream: %s" reason
  in
  let rec go budget =
    if budget > 0 then
      match Conn.recv s.client with
      | `Data _ ->
          drain (now ());
          go (budget - 1)
      | `Blocked -> ()
      | `Eof -> fail "broker closed the client connection"
  in
  go 16

let send_peer s c msg =
  let seq = s.peer_out in
  s.peer_out <- seq + 1;
  ignore (Conn.send_msg c ~seq msg)

let read_peer s c =
  let rec drain () =
    match Conn.next c with
    | `Msg (_, Wire.Hello _) ->
        send_peer s c (Wire.Welcome { session = 1; last_seen = 0; epoch = 0 });
        drain ()
    | `Msg (seq, Wire.Payload p) ->
        s.forwards <- p :: s.forwards;
        if Message.is_control p then send_peer s c (Wire.Frame_ack { seq });
        drain ()
    | `Msg _ -> drain ()
    | `Pending -> ()
    | `Corrupt reason -> fail "corrupt peer stream: %s" reason
  in
  let rec go budget =
    if budget > 0 then
      match Conn.recv c with
      | `Data _ ->
          drain ();
          go (budget - 1)
      | `Blocked -> ()
      | `Eof -> fail "broker closed its link to the emulated neighbour"
  in
  go 16;
  ignore (Conn.flush c)

let conns s = s.client :: Option.to_list s.peer

(* One select round: flush what is queued, read what arrived. *)
let pump s ~timeout =
  let cs = conns s in
  let wr = List.filter_map (fun c -> if Conn.wants_write c then Some (Conn.fd c) else None) cs in
  let readable, writable = select_eintr (List.map Conn.fd cs) wr timeout in
  List.iter
    (fun c ->
      if List.mem (Conn.fd c) writable && Conn.flush c = `Closed then
        fail "socket closed while writing")
    cs;
  if List.mem (Conn.fd s.client) readable then read_client s;
  match s.peer with
  | Some p when List.mem (Conn.fd p) readable -> read_peer s p
  | Some _ | None -> ()

let until s ~deadline ~what cond =
  while not (cond ()) do
    if now () > deadline then fail "timed out waiting for %s" what;
    pump s ~timeout:0.05
  done

(* [ops]: how many client frames the session will carry, to size its
   records up front rather than grow them while timing. *)
let connect ~sock_dir ~session ~ops =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX (Broker_server.socket_path ~sock_dir 0))
   with e ->
     Unix.close fd;
     raise e);
  let client = Conn.create ~max_queue_bytes:(1 lsl 30) fd in
  ignore
    (Conn.send_msg client ~seq:0
       (Wire.Hello { role = Wire.Client_role client_id; session; last_seen = 0; epoch = 0 }));
  let s =
    {
      client;
      peer = None;
      peer_out = 0;
      seq = 1;
      log = Buffer.create (96 * ops);
      due_at = Array.make (ops + 1) 0.0;
      sent_at = Array.make (ops + 1) 0.0;
      ack_at = Array.make (ops + 1) 0.0;
      n_pub = Array.make (8 * ops) 0;
      n_key = Array.make (8 * ops) 0;
      n_at = Array.make (8 * ops) 0.0;
      n_len = 0;
      forwards = [];
      welcomed = false;
    }
  in
  until s ~deadline:(now () +. 10.0) ~what:"Welcome" (fun () -> s.welcomed);
  s

(* The broker dials broker 1 from Broker_server.create, so its connect
   is already queued on our listener when the child reports ready. *)
let accept_peer s listener =
  match select_eintr [ listener ] [] 10.0 with
  | [], _ -> fail "broker never dialled the emulated neighbour"
  | _ ->
      let fd, _ = Unix.accept ~cloexec:true listener in
      s.peer <- Some (Conn.create ~max_queue_bytes:(1 lsl 30) fd)

let close s = List.iter Conn.close (conns s)

(* pub id -> (key, arrival) for every Notify received. *)
let notifications s =
  let t = Hashtbl.create 4096 in
  for i = s.n_len - 1 downto 0 do
    let prev = Option.value (Hashtbl.find_opt t s.n_pub.(i)) ~default:[] in
    Hashtbl.replace t s.n_pub.(i) ((s.n_key.(i), s.n_at.(i)) :: prev)
  done;
  t

let send s (op : Plan.op) ~due =
  let seq = s.seq in
  s.seq <- seq + 1;
  ensure s seq;
  let bytes = Wire.frame ~seq (Wire.Payload op.Plan.payload) in
  Buffer.add_string s.log bytes;
  ignore (Conn.send s.client ~cls:Wire.Control bytes);
  s.due_at.(seq) <- due;
  s.sent_at.(seq) <- now ()

type phase = {
  first : int;  (* client seq of the first op *)
  ops : Plan.op array;  (* as sent, barrier included *)
  start : float;
  finish : float;  (* the barrier's ack *)
}

(* Offer [ops] plus a closing barrier. Open loop: each op is sent when
   due, whatever the broker is doing. Burst: everything is queued at
   once and the socket drains as fast as the broker reads. The phase
   ends when the barrier is acked — every earlier reply on the client
   connection precedes it. *)
let run_phase s (ops : Plan.op array) ~open_loop ~budget =
  let last_due = if Array.length ops = 0 then 0.0 else ops.(Array.length ops - 1).Plan.due in
  let ops = Array.append ops [| { Plan.ping with due = last_due } |] in
  let n = Array.length ops in
  let first = s.seq in
  let barrier = first + n - 1 in
  ensure s barrier;
  let start = now () in
  let deadline = start +. budget in
  let due i = if open_loop then start +. ops.(i).Plan.due else start in
  let next = ref 0 in
  let rec loop () =
    let t = now () in
    if !next < n && due !next <= t then begin
      while !next < n && due !next <= t do
        send s ops.(!next) ~due:(due !next);
        incr next
      done;
      if Conn.flush s.client = `Closed then fail "client socket closed"
    end;
    if s.ack_at.(barrier) = 0.0 then begin
      if t > deadline then fail "phase did not finish within %.0f s" budget;
      let wait = if !next < n then Float.max 0.0 (due !next -. now ()) else 0.05 in
      pump s ~timeout:(Float.min wait 0.05);
      loop ()
    end
  in
  loop ();
  { first; ops; start; finish = s.ack_at.(barrier) }

(* Let trailing forwards on the peer link land before the broker is
   stopped: they are queued in the same broker step as the client's
   last ack but travel on another socket. *)
let settle s ~expect_quiet =
  let quiet_until = ref (now () +. expect_quiet) in
  let seen = ref (List.length s.forwards) in
  while now () < !quiet_until do
    pump s ~timeout:0.01;
    let n = List.length s.forwards in
    if n <> !seen then begin
      seen := n;
      quiet_until := now () +. expect_quiet
    end
  done
