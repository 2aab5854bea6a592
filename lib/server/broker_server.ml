(* Everything a broker process does runs on the single select loop in
   [run]/[step]: any blocking call anywhere below stalls every
   connection. The attribute makes this module's definitions roots of
   the blocking-taint pass. *)
[@@@problint.event_loop]

open Probsub_core
module Message = Probsub_broker.Message
module Broker_node = Probsub_broker.Broker_node
module Reliable_link = Probsub_broker.Reliable_link
module Event_queue = Probsub_broker.Event_queue
module Device = Probsub_store_log.Device

type config = {
  id : int;
  neighbors : int list;
  sock_dir : string;
  wal_dir : string option;
  arity : int;
  seed : int;
  policy : Subscription_store.policy;
  lease_ttl : float;
  refresh_interval : float;
  rto : float;
  max_retries : int;
  max_queue_bytes : int;
  backoff_base : float;
  backoff_cap : float;
  standby_of : string option;
      (* socket path of the primary this process shadows; None = primary *)
  repl_hb_interval : float;
  repl_hb_timeout : float;
}

let config ?(wal_dir = None) ?(policy = Subscription_store.Pairwise_policy)
    ?(lease_ttl = 30.0) ?(refresh_interval = 10.0) ?(rto = 4.0)
    ?(max_retries = 6) ?(max_queue_bytes = 1 lsl 20) ?(backoff_base = 0.05)
    ?(backoff_cap = 2.0) ?(standby_of = None) ?(repl_hb_interval = 0.5)
    ?(repl_hb_timeout = 2.0) ~id ~neighbors ~sock_dir ~arity ~seed () =
  if id < 0 then invalid_arg "Broker_server.config: negative broker id";
  if List.mem id neighbors then
    invalid_arg "Broker_server.config: broker cannot neighbor itself";
  if
    not
      (lease_ttl > 0.0
      && refresh_interval > 0.0
      && refresh_interval < lease_ttl
      && rto > 0.0 && max_retries >= 0)
  then invalid_arg "Broker_server.config: bad recovery parameters";
  if not (repl_hb_interval > 0.0 && repl_hb_timeout > repl_hb_interval) then
    invalid_arg "Broker_server.config: bad replication heartbeat parameters";
  if standby_of <> None && wal_dir = None then
    invalid_arg "Broker_server.config: a standby needs a wal_dir to replicate into";
  {
    id;
    neighbors;
    sock_dir;
    wal_dir;
    arity;
    seed;
    policy;
    lease_ttl;
    refresh_interval;
    rto;
    max_retries;
    max_queue_bytes;
    backoff_base;
    backoff_cap;
    standby_of;
    repl_hb_interval;
    repl_hb_timeout;
  }

let socket_path ~sock_dir id =
  Filename.concat sock_dir (Printf.sprintf "broker-%d.sock" id)

let now = Clock.now

type timer =
  | T_retransmit of int * int  (* peer id, sequence number *)
  | T_refresh  (* drive a lease-refresh wave for local client subs *)
  | T_sweep  (* lease expiry + WAL compaction tick *)
  | T_reconnect of int  (* peer id whose backoff delay elapsed *)
  | T_repl_hb  (* primary → standby replication heartbeat *)
  | T_standby_check  (* standby watchdog: redial and failover detection *)

(* The failover role state machine. A broker starts [Primary] (possibly
   after finding its socket free) or [Standby] (configured with
   [standby_of]); a standby that stops hearing heartbeats promotes
   itself to [Primary]; a primary greeted with a higher epoch for its
   own identity demotes to [Fenced] and never acks a write again. *)
type role = Primary | Standby | Fenced

(* Outgoing link to one neighbour. The Reliable_link sender and the
   sequence counter belong to our process session and survive
   reconnects; the link dies and is remade under backoff. *)
type peer = {
  p_id : int;
  backoff : Backoff.t;
  sender : (Message.payload, Event_queue.handle) Reliable_link.sender;
  mutable p_link : link option;
  mutable welcomed : bool;  (* Welcome received: resume done, may send *)
  mutable next_seq : int;
  mutable reconnect_armed : bool;
}

(* Who is at the far end: accepted connections start [Unknown] until
   their Hello; [To_peer] is a link we dialed to a neighbour (its
   Welcome and acks come back on it), [Uplink] the standby's link to
   its primary. *)
and who =
  | Unknown
  | From_peer of int
  | From_client of int
  | From_standby
  | To_peer of peer
  | Uplink

(* Every connection the loop services. *)
and link = {
  conn : Conn.t;
  mutable who : who;
  mutable seq : int;  (* our next outbound seq on this connection *)
}

(* Receive-side state per remote identity — NOT per connection: the
   dedup window and high-water mark must survive the remote's
   reconnects within one remote session, and reset when its session
   changes. *)
type recv_state = {
  mutable r_session : int;
  r_window : Reliable_link.receiver;
  mutable r_last_seen : int;
}

type stats = {
  mutable frames_in : int;
  mutable frames_out : int;
  mutable retransmits : int;
  mutable sheds : int;
}

(* The listening socket and the inode its path named right after
   [bind]: a successor that rebinds the path makes a new one. *)
type listener = { l_fd : Unix.file_descr; l_dev : int; l_ino : int }

type t = {
  cfg : config;
  mutable node : Broker_node.t;
  session : int;
  mutable listener : listener option;
  timers : timer Event_queue.t;
  peers : peer array;
  mutable inbound : link list;
  peer_recv : (int, recv_state) Hashtbl.t;
  client_recv : (int, recv_state) Hashtbl.t;
  client_conn : (int, link) Hashtbl.t;
  stats : stats;
  (* Failover state. [epoch] is this identity's fencing epoch as this
     process believes it; [raw_device] is the untapped durable device
     (the standby applies into it, and promotion recovers from it). *)
  mutable role : role;
  mutable epoch : int;
  raw_device : Device.t option;
  (* Primary side: the WAL shipper and the attached standby. *)
  mutable ship : Repl.Ship.t option;
  mutable standby : link option;
  mutable standby_synced : bool;
  (* Standby side: the dialed link to the primary and the applier. *)
  mutable up : link option;
  mutable apply : Repl.Apply.t option;
  mutable last_contact : float;
}

let find_peer t id =
  let rec go i =
    if i >= Array.length t.peers then None
    else if t.peers.(i).p_id = id then Some t.peers.(i)
    else go (i + 1)
  in
  go 0

let recv_state_for table id =
  match Hashtbl.find_opt table id with
  | Some rs -> rs
  | None ->
      let rs =
        {
          r_session = -1;
          r_window = Reliable_link.receiver ~capacity:1024 ();
          r_last_seen = 0;
        }
      in
      Hashtbl.replace table id rs;
      rs

let arm t ~delay timer = Event_queue.push t.timers ~time:(now () +. delay) timer

let arm_cancelable t ~delay timer =
  Event_queue.push_cancelable t.timers ~time:(now () +. delay) timer

(* Every frame the server queues goes through [emit], which counts it
   ([frames] > 1 for a Notify batch) and the sheds it caused. *)
let emit t c ~cls ~frames bytes =
  t.stats.frames_out <- t.stats.frames_out + frames;
  t.stats.sheds <- t.stats.sheds + Conn.send c ~cls bytes

let emit_msg t c ~seq msg =
  emit t c ~cls:(Wire.class_of msg) ~frames:1 (Wire.frame ~seq msg)

(* Send one message to a peer. Acked messages are tracked for
   retransmission whether or not the link is up — if it is down, the
   retry budget burns against the outage and the refresh waves repair
   whatever gives up, exactly the simulator's semantics. *)
let send_peer t peer msg =
  let seq = peer.next_seq in
  peer.next_seq <- seq + 1;
  if Wire.acked msg then begin
    let payload =
      match msg with
      | Wire.Payload p -> p
      | Wire.Hello _ | Wire.Welcome _ | Wire.Notify _ | Wire.Frame_ack _
      | Wire.Repl_stream _ | Wire.Bye ->
          invalid_arg "Broker_server.send_peer: only payloads are acked"
    in
    Reliable_link.track peer.sender ~seq ~item:payload
      ~timer:(arm_cancelable t ~delay:t.cfg.rto (T_retransmit (peer.p_id, seq)))
  end;
  match peer.p_link with
  | Some l when peer.welcomed || not (Wire.acked msg) ->
      emit_msg t l.conn ~seq msg
  | Some _ | None -> ()

(* Send on a connection's own sequence. *)
let send t l msg =
  let seq = l.seq in
  l.seq <- seq + 1;
  emit_msg t l.conn ~seq msg

(* Notify fan-out is batched per connection: one matched publication
   can notify many subscriptions of the same client, and queuing each
   frame separately costs one write-queue append + shed pass per
   subscriber. Frames are coalesced into a per-client buffer (seqs
   assigned at collection time, so the numbering is identical to the
   unbatched path) and appended as a single sheddable write-queue
   entry per connection. Forwards keep their per-peer path — they ride
   the reliable link and must be tracked frame-by-frame. *)
let apply_actions t actions =
  let batches = ref [] in
  (* (client, conn, frames, count), first-seen order, reversed. *)
  List.iter
    (fun action ->
      match action with
      | Broker_node.Forward { to_; payload } -> (
          match find_peer t to_ with
          | Some peer -> send_peer t peer (Wire.Payload payload)
          | None -> () (* topology drift: drop rather than crash *))
      | Broker_node.Notify { client; key; pub_id } -> (
          match Hashtbl.find_opt t.client_conn client with
          | Some ic ->
              let _, _, buf, count =
                match
                  List.find_opt (fun (c, _, _, _) -> c = client) !batches
                with
                | Some b -> b
                | None ->
                    let b = (client, ic, Buffer.create 256, ref 0) in
                    batches := b :: !batches;
                    b
              in
              let seq = ic.seq in
              ic.seq <- seq + 1;
              Buffer.add_string buf
                (Wire.frame ~seq (Wire.Notify { client; key; pub_id }));
              incr count
          | None -> () (* client not connected; notification is lost *)))
    actions;
  List.iter
    (fun (_, ic, buf, count) ->
      emit t ic.conn ~cls:Wire.Sheddable ~frames:!count (Buffer.contents buf))
    (List.rev !batches)

let handle_payload t ~origin payload =
  apply_actions t (Broker_node.handle t.node ~now:(now ()) ~origin payload)

(* One UNIX-domain connect attempt, shared by peer links, the standby's
   uplink, and the startup socket probe. *)
let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    (Unix.connect fd (Unix.ADDR_UNIX path)
    [@problint.allow blocking
      "UNIX-domain connects either succeed or fail immediately against \
       the listener backlog; there is no TCP-style in-progress window to \
       wait out"])
  with
  | () -> Some fd
  | exception Unix.Unix_error (_, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

(* Connect attempt to one neighbour; failure re-arms the backoff
   timer. Unix-domain connects either succeed immediately or fail —
   there is no long in-progress window to track. *)
let try_connect t peer =
  peer.reconnect_armed <- false;
  let path = socket_path ~sock_dir:t.cfg.sock_dir peer.p_id in
  match connect_unix path with
  | Some fd ->
      let c = Conn.create ~max_queue_bytes:t.cfg.max_queue_bytes fd in
      peer.p_link <- Some { conn = c; who = To_peer peer; seq = 0 };
      peer.welcomed <- false;
      (* Hello rides seq 0 outside the acked space. *)
      emit_msg t c ~seq:0
        (Wire.Hello
           {
             role = Wire.Peer_role t.cfg.id;
             session = t.session;
             last_seen = 0;
             epoch = 0;
           })
  | None -> (
      match Backoff.next_delay peer.backoff with
      | Some delay ->
          peer.reconnect_armed <- true;
          arm t ~delay (T_reconnect peer.p_id)
      | None -> () (* budget exhausted: the peer stays down *))

let drop_peer_conn t peer =
  (match peer.p_link with Some l -> Conn.close l.conn | None -> ());
  peer.p_link <- None;
  peer.welcomed <- false;
  if not peer.reconnect_armed then begin
    match Backoff.next_delay peer.backoff with
    | Some delay ->
        peer.reconnect_armed <- true;
        arm t ~delay (T_reconnect peer.p_id)
    | None -> ()
  end

(* Welcome on an outgoing link: the peer told us the highest seq it
   processed from our current session. Everything at or below it is
   as-good-as-acked; everything above must go out again, in order. *)
let handle_welcome t peer ~last_seen =
  peer.welcomed <- true;
  Backoff.reset peer.backoff;
  List.iter
    (fun (seq, payload) ->
      if seq <= last_seen then begin
        match Reliable_link.ack peer.sender ~seq with
        | Some h -> ignore (Event_queue.cancel t.timers h)
        | None -> ()
      end
      else
        match peer.p_link with
        | Some l -> emit_msg t l.conn ~seq (Wire.Payload payload)
        | None -> ())
    (Reliable_link.unacked peer.sender)

(* An acked frame arriving on an inbound connection: always re-ack
   (the previous ack may have been lost with the old connection), then
   dedup against the sender's session window. *)
let admit_acked t ic rs ~seq =
  send t ic (Wire.Frame_ack { seq });
  match Reliable_link.admit rs.r_window ~seq with
  | `Duplicate -> false
  | `Fresh ->
      if seq > rs.r_last_seen then rs.r_last_seen <- seq;
      true

(* A Hello or heartbeat carrying a higher epoch for OUR identity means
   a standby of ours was promoted while we were (presumed) dead: we are
   the stale half of a split brain. Persist the fence, stop listening,
   drop every connection, and never ack a write again. The successor
   owns the socket path now (or is about to take it), so the path is
   not unlinked here. *)
let demote t ~epoch =
  Broker_node.raise_fence t.node ~epoch;
  t.epoch <- epoch;
  t.role <- Fenced;
  (match t.listener with
  | Some l -> ( try Unix.close l.l_fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.listener <- None;
  Array.iter
    (fun peer ->
      (match peer.p_link with Some l -> Conn.close l.conn | None -> ());
      peer.p_link <- None;
      peer.welcomed <- false)
    t.peers;
  List.iter (fun ic -> Conn.close ic.conn) t.inbound;
  t.inbound <- [];
  Hashtbl.reset t.client_conn;
  t.standby <- None;
  t.standby_synced <- false

let event_to_msg = function
  | Repl.E_frames bytes -> Wire.Repl_stream (Wire.R_frames { bytes })
  | Repl.E_snapshot { snap; wal; next_lsn } ->
      Wire.Repl_stream (Wire.R_snapshot { snap; wal; next_lsn })

(* Replication traffic arriving on an accepted standby connection
   (primary side): the opening resume request and the applied acks. *)
let handle_standby_repl t ic repl =
  match (t.ship, repl) with
  | Some ship, Wire.R_hello { from_lsn } ->
      List.iter
        (fun ev -> send t ic (event_to_msg ev))
        (Repl.Ship.resume ship ~from_lsn);
      t.standby <- Some ic;
      t.standby_synced <- true;
      send t ic
        (Wire.Repl_stream
           (Wire.R_heartbeat
              { epoch = t.epoch; next_lsn = Repl.Ship.next_lsn ship }))
  | _, Wire.R_ack _ -> () (* on the wire for a future lease or semi-sync ack *)
  | None, Wire.R_hello _
  | _, (Wire.R_frames _ | Wire.R_snapshot _ | Wire.R_heartbeat _) ->
      () (* no shipper (no wal_dir), or stream traffic sent the wrong way *)

(* ---- standby side: uplink to the primary, and promotion ---- *)

let drop_up t =
  (match t.up with Some l -> Conn.close l.conn | None -> ());
  t.up <- None

let dial_primary t path =
  match connect_unix path with
  | Some fd ->
      let c = Conn.create ~max_queue_bytes:t.cfg.max_queue_bytes fd in
      let l = { conn = c; who = Uplink; seq = 0 } in
      t.up <- Some l;
      send t l
        (Wire.Hello
           {
             role = Wire.Standby_role t.cfg.id;
             session = t.session;
             last_seen = 0;
             epoch = t.epoch;
           })
  | None -> () (* primary down; the watchdog tick redials *)

(* Feed one replication event into the standby's device; ack progress,
   or tear the uplink down on stream-position disagreement so the
   re-handshake resumes from our durable position. *)
let apply_up_event t event =
  match t.apply with
  | None -> ()
  | Some apply -> (
      match Repl.Apply.apply apply event with
      | Ok applied_lsn -> (
          t.last_contact <- now ();
          match t.up with
          | Some l -> send t l (Wire.Repl_stream (Wire.R_ack { applied_lsn }))
          | None -> ())
      | Error _ -> drop_up t)

(* Everything the standby hears on its uplink: the Welcome that opens
   the stream, then frames/rebases to apply and heartbeats to feed the
   failover detector. *)
let handle_up_msg t msg =
  match msg with
  | Wire.Welcome { epoch; _ } -> (
      t.last_contact <- now ();
      if epoch > t.epoch then t.epoch <- epoch;
      match (t.up, t.apply) with
      | Some l, Some apply ->
          send t l
            (Wire.Repl_stream
               (Wire.R_hello { from_lsn = Repl.Apply.next_lsn apply }))
      | _ -> ())
  | Wire.Repl_stream (Wire.R_heartbeat { epoch; next_lsn = _ }) ->
      t.last_contact <- now ();
      if epoch > t.epoch then t.epoch <- epoch
  | Wire.Repl_stream (Wire.R_frames { bytes }) ->
      apply_up_event t (Repl.E_frames bytes)
  | Wire.Repl_stream (Wire.R_snapshot { snap; wal; next_lsn }) ->
      apply_up_event t (Repl.E_snapshot { snap; wal; next_lsn })
  | Wire.Bye -> drop_up t
  | Wire.Hello _ | Wire.Payload _ | Wire.Notify _ | Wire.Frame_ack _
  | Wire.Repl_stream (Wire.R_hello _ | Wire.R_ack _) ->
      () (* not primary→standby traffic *)

(* Every frame the pump hands the server, on any connection. *)
let handle_msg t ic seq msg =
  t.stats.frames_in <- t.stats.frames_in + 1;
  match (ic.who, msg) with
  | Uplink, _ -> handle_up_msg t msg
  | Unknown, Wire.Hello { role; session; last_seen = _; epoch } -> (
      (* The fence: any same-identity greeter (standby probe or client)
         that has seen a higher epoch proves we were superseded. Peer
         epochs belong to other broker identities and are ignored. *)
      match role with
      | (Wire.Client_role _ | Wire.Standby_role _) when epoch > t.epoch ->
          demote t ~epoch
      | Wire.Standby_role sid ->
          if sid = t.cfg.id && t.role = Primary then begin
            ic.who <- From_standby;
            send t ic
              (Wire.Welcome
                 { session = t.session; last_seen = 0; epoch = t.epoch })
          end
          else Conn.close ic.conn (* a standby for someone else: refuse *)
      | Wire.Peer_role _ | Wire.Client_role _ ->
          let table, id =
            match role with
            | Wire.Peer_role p -> (t.peer_recv, p)
            | Wire.Client_role c | Wire.Standby_role c -> (t.client_recv, c)
          in
          let rs = recv_state_for table id in
          if rs.r_session <> session then begin
            (* New remote session: its numbering restarts, so stale seqs
               must not suppress fresh frames. *)
            rs.r_session <- session;
            rs.r_last_seen <- 0;
            Reliable_link.reset_receiver rs.r_window
          end;
          (match role with
          | Wire.Peer_role p -> ic.who <- From_peer p
          | Wire.Client_role c ->
              ic.who <- From_client c;
              Hashtbl.replace t.client_conn c ic
          | Wire.Standby_role _ -> ());
          send t ic
            (Wire.Welcome
               { session = t.session; last_seen = rs.r_last_seen;
                 epoch = t.epoch }))
  | Unknown, _ -> () (* pre-handshake noise: ignore until Hello *)
  | From_standby, Wire.Repl_stream repl -> handle_standby_repl t ic repl
  | From_standby, _ -> () (* only replication traffic on a standby conn *)
  | From_peer p, Wire.Payload payload ->
      let process =
        if Wire.acked msg then
          admit_acked t ic (recv_state_for t.peer_recv p) ~seq
        else true
      in
      if process then handle_payload t ~origin:(Message.Link p) payload
  | From_client c, Wire.Payload payload ->
      let process =
        if Wire.acked msg then
          admit_acked t ic (recv_state_for t.client_recv c) ~seq
        else true
      in
      if process then handle_payload t ~origin:(Message.Client c) payload
  | To_peer peer, Wire.Frame_ack { seq = acked } -> (
      (* The remote acks what we sent on OUR outgoing link to it. *)
      match Reliable_link.ack peer.sender ~seq:acked with
      | Some h -> ignore (Event_queue.cancel t.timers h)
      | None -> ())
  | To_peer peer, Wire.Welcome { last_seen; session = _; epoch = _ } ->
      (* The peer's epoch belongs to its own identity and is not
         compared with ours. *)
      handle_welcome t peer ~last_seen
  | _, Wire.Bye -> Conn.close ic.conn
  | To_peer _, Wire.Payload _
  | ( _,
      ( Wire.Hello _ | Wire.Welcome _ | Wire.Notify _ | Wire.Frame_ack _
      | Wire.Repl_stream _ ) ) ->
      () (* role mismatch or client-bound traffic: drop *)

let bind_listen path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    let st = Unix.stat path in
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    st
  with
  | st -> { l_fd = fd; l_dev = st.Unix.st_dev; l_ino = st.Unix.st_ino }
  | exception e ->
      (* EADDRINUSE / permission failures must not leak the socket:
         create is retried by the harness after a crashed broker. *)
      Unix.close fd;
      raise e

(* The standby stopped hearing from its primary: take over. Recover a
   full broker from the replicated device, commit to a strictly higher
   epoch (journalled before anything is served), bind the primary's
   socket path so clients and peers reconnect transparently, and start
   acting as the primary — including accepting a future standby. *)
let promote t =
  drop_up t;
  t.apply <- None;
  (match t.raw_device with
  | None -> () (* unreachable: standby config requires a wal_dir *)
  | Some raw ->
      let ship, wrapped = Repl.Ship.tap raw in
      let node =
        Broker_node.create ~device:wrapped ~recover:true
          ~lease_ttl:t.cfg.lease_ttl ~id:t.cfg.id ~neighbors:t.cfg.neighbors
          ~policy:t.cfg.policy ~arity:t.cfg.arity ~seed:t.cfg.seed ()
      in
      let epoch = max t.epoch (Broker_node.fence_epoch node) + 1 in
      Broker_node.raise_fence node ~epoch;
      (* Recovery-time rewrites and the fence append are local history,
         not stream traffic for a (not yet attached) next standby. *)
      ignore (Repl.Ship.drain ship);
      t.node <- node;
      t.ship <- Some ship;
      t.epoch <- epoch);
  t.listener <- Some (bind_listen (socket_path ~sock_dir:t.cfg.sock_dir t.cfg.id));
  t.role <- Primary;
  Array.iter (fun peer -> try_connect t peer) t.peers;
  arm t ~delay:t.cfg.refresh_interval T_refresh;
  arm t ~delay:t.cfg.refresh_interval T_sweep;
  arm t ~delay:t.cfg.repl_hb_interval T_repl_hb

let fire_timer t timer =
  match timer with
  | T_retransmit (pid, seq) -> (
      match find_peer t pid with
      | None -> ()
      | Some peer -> (
          match Reliable_link.on_timeout peer.sender ~seq with
          | Reliable_link.Not_tracked | Reliable_link.Give_up -> ()
          | Reliable_link.Retransmit { item; rto } ->
              t.stats.retransmits <- t.stats.retransmits + 1;
              (match peer.p_link with
              | Some l when peer.welcomed ->
                  emit_msg t l.conn ~seq (Wire.Payload item)
              | Some _ | None -> ());
              Reliable_link.set_timer peer.sender ~seq
                (arm_cancelable t ~delay:rto (T_retransmit (pid, seq)))))
  | T_refresh ->
      if t.role = Primary then begin
        List.iter
          (fun (key, client, sub) ->
            let epoch = Broker_node.subscription_epoch t.node ~key + 1 in
            handle_payload t ~origin:(Message.Client client)
              (Message.Subscribe { key; sub; epoch }))
          (Broker_node.client_subscriptions t.node);
        arm t ~delay:t.cfg.refresh_interval T_refresh
      end
  | T_sweep ->
      if t.role = Primary then begin
        let _expired, actions = Broker_node.sweep t.node ~now:(now ()) in
        apply_actions t actions;
        ignore (Broker_node.maybe_compact t.node);
        arm t ~delay:t.cfg.refresh_interval T_sweep
      end
  | T_reconnect pid -> (
      if t.role = Primary then
        match find_peer t pid with
        | Some peer when peer.p_link = None -> try_connect t peer
        | Some _ | None -> ())
  | T_repl_hb ->
      if t.role = Primary then begin
        (match (t.ship, t.standby) with
        | Some ship, Some ic when t.standby_synced ->
            send t ic
              (Wire.Repl_stream
                 (Wire.R_heartbeat
                    { epoch = t.epoch; next_lsn = Repl.Ship.next_lsn ship }))
        | _ -> ());
        arm t ~delay:t.cfg.repl_hb_interval T_repl_hb
      end
  | T_standby_check ->
      if t.role = Standby then begin
        (match (t.up, t.cfg.standby_of) with
        | None, Some path -> dial_primary t path
        | _ -> ());
        if now () -. t.last_contact > t.cfg.repl_hb_timeout then promote t
        else arm t ~delay:t.cfg.repl_hb_interval T_standby_check
      end

let fire_due_timers t =
  let rec go () =
    match Event_queue.peek_time t.timers with
    | Some time when time <= now () -> (
        match Event_queue.pop t.timers with
        | Some (_, timer) ->
            fire_timer t timer;
            go ()
        | None -> ())
    | Some _ | None -> ()
  in
  go ()

(* Pre-bind probe: does a live same-identity broker already serve our
   socket path? The probe speaks the ordinary handshake as a standby of
   that identity carrying our recovered fence epoch, so the two
   processes compare epochs through the normal fencing rule: a live
   owner at our epoch or above answers Welcome (we must fence
   ourselves); an owner at a lower epoch demotes itself on our Hello
   and hangs up (the path is ours to take). *)
let probe_socket ~path ~id ~session ~epoch =
  match connect_unix path with
  | None -> `Free (* no socket file, or nobody listening behind it *)
  | Some fd -> (
      let c = Conn.create fd in
      ignore
        (Conn.send_msg c ~seq:0
           (Wire.Hello
              {
                role = Wire.Standby_role id;
                session;
                last_seen = 0;
                epoch;
              }));
      let deadline = now () +. 1.0 in
      let rec await () =
        if Conn.closed c || now () > deadline then `Free
        else begin
          (match Conn.flush c with `Ok | `Closed -> ());
          match Unix.select [ fd ] [] [] 0.05 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> `Free
          | [], _, _ -> await ()
          | _ :: _, _, _ -> (
              match Conn.recv c with
              | `Eof -> `Free
              | `Blocked | `Data _ -> (
                  match Conn.next c with
                  | `Msg (_, Wire.Welcome { epoch = e; _ }) -> `Owned e
                  | `Msg _ | `Pending -> await ()
                  | `Corrupt _ -> `Free))
        end
      in
      match await () with
      | verdict ->
          Conn.close c;
          verdict)

let create cfg =
  let raw_device = Option.map (fun dir -> Device.fs ~dir) cfg.wal_dir in
  let is_standby = cfg.standby_of <> None in
  let ship, node_device =
    if is_standby then (None, None)
    else
      match raw_device with
      | None -> (None, None)
      | Some raw ->
          let s, wrapped = Repl.Ship.tap raw in
          (Some s, Some wrapped)
  in
  let node =
    if is_standby then
      (* Placeholder until promotion: a standby must not open the
         replicated device with a broker of its own — creating one
         would wipe it. The real node is recovered when we take over. *)
      Broker_node.create ~lease_ttl:cfg.lease_ttl ~id:cfg.id
        ~neighbors:cfg.neighbors ~policy:cfg.policy ~arity:cfg.arity
        ~seed:cfg.seed ()
    else
      Broker_node.create ?device:node_device ~recover:true
        ~lease_ttl:cfg.lease_ttl ~id:cfg.id ~neighbors:cfg.neighbors
        ~policy:cfg.policy ~arity:cfg.arity ~seed:cfg.seed ()
  in
  (* Startup journal writes (genesis or recovery repair) are local
     history, not stream traffic. *)
  (match ship with Some s -> ignore (Repl.Ship.drain s) | None -> ());
  let session = Clock.session_id () in
  let t =
    {
      cfg;
      node;
      session;
      listener = None;
      timers = Event_queue.create ();
      role = (if is_standby then Standby else Primary);
      epoch = (if is_standby then 0 else Broker_node.fence_epoch node);
      raw_device;
      ship;
      standby = None;
      standby_synced = false;
      up = None;
      apply =
        (if is_standby then
           Option.map (fun d -> Repl.Apply.create ~device:d) raw_device
         else None);
      last_contact = now ();
      peers =
        Array.of_list
          (List.map
             (fun p_id ->
               {
                 p_id;
                 backoff =
                   Backoff.create ~base:cfg.backoff_base ~cap:cfg.backoff_cap
                     ~seed:(cfg.seed + (cfg.id * 65599) + p_id)
                     ();
                 sender =
                   Reliable_link.sender
                     { Reliable_link.rto = cfg.rto;
                       max_retries = cfg.max_retries };
                 p_link = None;
                 welcomed = false;
                 next_seq = 1;
                 reconnect_armed = false;
               })
             cfg.neighbors);
      inbound = [];
      peer_recv = Hashtbl.create 8;
      client_recv = Hashtbl.create 64;
      client_conn = Hashtbl.create 64;
      stats = { frames_in = 0; frames_out = 0; retransmits = 0; sheds = 0 };
    }
  in
  (match cfg.standby_of with
  | Some primary_path ->
      dial_primary t primary_path;
      arm t ~delay:cfg.repl_hb_interval T_standby_check
  | None -> (
      let path = socket_path ~sock_dir:cfg.sock_dir cfg.id in
      match probe_socket ~path ~id:cfg.id ~session ~epoch:t.epoch with
      | `Owned e ->
          (* A live owner with our identity answered: we are the stale
             twin. Remember the highest epoch and refuse to serve. *)
          let e = max e t.epoch in
          Broker_node.raise_fence t.node ~epoch:e;
          t.epoch <- e;
          t.role <- Fenced
      | `Free ->
          t.listener <- Some (bind_listen path);
          Array.iter (fun peer -> try_connect t peer) t.peers;
          arm t ~delay:cfg.refresh_interval T_refresh;
          arm t ~delay:cfg.refresh_interval T_sweep;
          arm t ~delay:cfg.repl_hb_interval T_repl_hb));
  t

let accept_ready t listen_fd =
  let rec go () =
    match Unix.accept listen_fd with
    | fd, _ ->
        let c = Conn.create ~max_queue_bytes:t.cfg.max_queue_bytes fd in
        t.inbound <- { conn = c; who = Unknown; seq = 0 } :: t.inbound;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

(* Forget a dead inbound connection; receive state stays for resume. *)
let reap_inbound t ic =
  Conn.close ic.conn;
  (match t.standby with
  | Some s
    when (s == ic)
         [@problint.allow
           unsafe
             "identity, not structure: detach the standby only if the \
              registered replication connection is this very one — a \
              reconnected standby may already own the slot"] ->
      t.standby <- None;
      t.standby_synced <- false
  | Some _ | None -> ());
  (match ic.who with
  | From_client c -> (
      match Hashtbl.find_opt t.client_conn c with
      | Some cur
        when (cur == ic)
             [@problint.allow
               unsafe
                 "identity, not structure: unregister the client only if \
                  the registered connection is this very one — a \
                  reconnected client may already own the slot"] ->
          Hashtbl.remove t.client_conn c
      | Some _ | None -> ())
  | From_peer _ | From_standby | Unknown | To_peer _ | Uplink -> ());
  t.inbound <-
    List.filter
      (fun other ->
        not
          ((other == ic)
          [@problint.allow
            unsafe
              "identity, not structure: drop exactly this connection \
               record from the inbound list"]))
      t.inbound

(* Stream everything the node's journal produced since the last step to
   the attached standby; without one, drop it (the standby's R_hello
   resume replays whatever it missed from the WAL itself). *)
let pump_repl t =
  match t.ship with
  | None -> ()
  | Some ship ->
      let events = Repl.Ship.drain ship in
      (match t.standby with
      | Some ic when t.standby_synced && not (Conn.closed ic.conn) ->
          List.iter (fun ev -> send t ic (event_to_msg ev)) events
      | Some _ | None -> ())

(* Drop a connection the pump gave up on. A handler may have dropped
   it already (Bye, demotion); every arm is idempotent then. *)
let drop_link t l =
  match l.who with
  | Uplink -> drop_up t
  | To_peer peer -> drop_peer_conn t peer
  | Unknown | From_peer _ | From_client _ | From_standby -> reap_inbound t l

let step t =
  fire_due_timers t;
  pump_repl t;
  (* Serviced in this order: uplink, dialed peers, accepted. *)
  let links =
    Option.to_list t.up
    @ Array.fold_right
        (fun peer acc ->
          match peer.p_link with Some l -> l :: acc | None -> acc)
        t.peers t.inbound
  in
  let read_fds =
    List.fold_left
      (fun fds l -> Conn.fd l.conn :: fds)
      (match t.listener with Some l -> [ l.l_fd ] | None -> [])
      links
  in
  let write_fds =
    List.filter_map
      (fun l -> if Conn.wants_write l.conn then Some (Conn.fd l.conn) else None)
      links
  in
  let timeout =
    let horizon =
      match Event_queue.peek_time t.timers with
      | Some time -> Float.max 0.0 (time -. now ())
      | None -> 0.25
    in
    Float.min horizon 0.25
  in
  let readable, writable =
    match Unix.select read_fds write_fds [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [])
  in
  (match t.listener with
  | Some l when List.mem l.l_fd readable -> accept_ready t l.l_fd
  | Some _ | None -> ());
  let handle = handle_msg t in
  List.iter
    (fun l ->
      let fd = Conn.fd l.conn in
      if
        not
          (Conn.pump l.conn ~readable:(List.mem fd readable)
             ~writable:(List.mem fd writable) handle l)
      then drop_link t l)
    links;
  (* Flush what handling queued. *)
  pump_repl t;
  List.iter
    (fun l ->
      if Conn.wants_write l.conn && Conn.flush l.conn = `Closed then
        drop_link t l)
    links

let shutdown t =
  Array.iter
    (fun peer ->
      match peer.p_link with Some l -> Conn.close l.conn | None -> ())
    t.peers;
  List.iter (fun ic -> Conn.close ic.conn) t.inbound;
  drop_up t;
  match t.listener with
  | None -> () (* never bound (standby) or fenced: the path is not ours *)
  | Some l -> (
      (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
      (* A standby promoted while this process was presumed dead has
         rebound the path: it names another inode, and stays. *)
      let path = socket_path ~sock_dir:t.cfg.sock_dir t.cfg.id in
      match Unix.stat path with
      | st when st.Unix.st_dev = l.l_dev && st.Unix.st_ino = l.l_ino -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ | (exception Unix.Unix_error _) -> ())

let run ?(on_ready = fun () -> ()) ?(should_stop = fun () -> false) cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = create cfg in
  on_ready ();
  let rec loop () = if should_stop () then shutdown t else (step t; loop ()) in
  loop ()

let node t = t.node
let session t = t.session
let stats t = t.stats
let role t = t.role
let epoch t = t.epoch
