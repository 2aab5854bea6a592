open Probsub_core
module Message = Probsub_broker.Message
module Reliable_link = Probsub_broker.Reliable_link
module Event_queue = Probsub_broker.Event_queue
module Audit = Probsub_broker.Audit

(* ------------------------------------------------------------------ *)
(* Client runtime: one subscriber/publisher endpoint speaking the wire
   protocol to its home broker, with the same Reliable_link sender the
   brokers use for its control traffic. Entirely non-blocking: [poll]
   pumps reconnect, writes, reads and retransmissions. *)

type notification = { n_pub : int; n_key : int; n_at : float }

type client = {
  home : int;
  client_id : int;
  session : int;
  sock_dir : string;
  rto : float;
  backoff : Backoff.t;
  sender : (Message.payload, Event_queue.handle) Reliable_link.sender;
  timers : int Event_queue.t;  (* seq whose retransmission timer is due *)
  mutable conn : Conn.t option;
  mutable welcomed : bool;
  mutable next_seq : int;
  mutable reconnect_at : float;
  mutable received : notification list;  (* newest first *)
  mutable epoch_seen : int;  (* highest fence epoch welcomed at; -1 = never *)
  mutable failover_reconnects : int;
}

let connect_client ?(rto = 0.5) ?(max_retries = 10) ~sock_dir ~broker ~client
    ~seed () =
  {
    home = broker;
    client_id = client;
    session = Clock.session_id ();
    sock_dir;
    rto;
    backoff = Backoff.create ~base:0.02 ~cap:0.5 ~seed:(seed + client) ();
    sender = Reliable_link.sender { Reliable_link.rto; max_retries };
    timers = Event_queue.create ();
    conn = None;
    welcomed = false;
    next_seq = 1;
    reconnect_at = 0.0;
    received = [];
    epoch_seen = -1;
    failover_reconnects = 0;
  }

(* [per_broker] clients homed at each of brokers [0 .. brokers - 1];
   client [j] of broker [b] has id [100 b + j + 1]. *)
let connect_clients ~sock_dir ~brokers ~per_broker ~seed =
  List.concat
    (List.init brokers (fun b ->
         List.init per_broker (fun j ->
             connect_client ~sock_dir ~broker:b
               ~client:((b * 100) + j + 1)
               ~seed:((seed * 7919) + (b * 100) + j)
               ())))

let connected t = t.conn <> None && t.welcomed
let in_flight t = Reliable_link.in_flight t.sender
let notifications t = List.rev t.received
let home t = t.home
let client_id t = t.client_id
let backoff_attempts t = Backoff.attempts t.backoff
let epoch_seen t = max t.epoch_seen 0
let failover_reconnects t = t.failover_reconnects

let drop_conn t =
  (match t.conn with Some c -> Conn.close c | None -> ());
  t.conn <- None;
  t.welcomed <- false;
  let delay =
    match Backoff.next_delay t.backoff with Some d -> d | None -> 1.0
  in
  t.reconnect_at <- Clock.now () +. delay

let try_connect t =
  let path = Broker_server.socket_path ~sock_dir:t.sock_dir t.home in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      let c = Conn.create fd in
      t.conn <- Some c;
      t.welcomed <- false;
      ignore
        (Conn.send_msg c ~seq:0
           (Wire.Hello
              {
                role = Wire.Client_role t.client_id;
                session = t.session;
                last_seen = 0;
                epoch = max t.epoch_seen 0;
              }))
  | exception Unix.Unix_error (_, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let delay =
        match Backoff.next_delay t.backoff with Some d -> d | None -> 1.0
      in
      t.reconnect_at <- Clock.now () +. delay

let send_now t ~seq payload =
  match t.conn with
  | Some c when t.welcomed ->
      ignore (Conn.send_msg c ~seq (Wire.Payload payload))
  | Some _ | None -> ()

let send_control t payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Reliable_link.track t.sender ~seq ~item:payload
    ~timer:(Event_queue.push_cancelable t.timers ~time:(Clock.now () +. t.rto) seq);
  send_now t ~seq payload

let subscribe t ~key sub =
  send_control t (Message.Subscribe { key; sub; epoch = 0 })

let unsubscribe t ~key = send_control t (Message.Unsubscribe { key })

let publish t ~id pub =
  match t.conn with
  | Some c when t.welcomed ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      ignore (Conn.send_msg c ~seq (Wire.Payload (Message.Publish { id; pub })));
      true
  | Some _ | None -> false

let handle_client_msg t _seq msg =
  match msg with
  | Wire.Welcome { last_seen = _; session = _; epoch }
    when epoch < t.epoch_seen ->
      (* A stale primary (about to be fenced — our Hello carried the
         higher epoch): hang up and redial, landing on the successor. *)
      drop_conn t
  | Wire.Welcome { last_seen; session = _; epoch } ->
      if t.epoch_seen >= 0 && epoch > t.epoch_seen then
        t.failover_reconnects <- t.failover_reconnects + 1;
      t.epoch_seen <- epoch;
      t.welcomed <- true;
      Backoff.reset t.backoff;
      List.iter
        (fun (seq, payload) ->
          if seq <= last_seen then begin
            match Reliable_link.ack t.sender ~seq with
            | Some h -> ignore (Event_queue.cancel t.timers h)
            | None -> ()
          end
          else send_now t ~seq payload)
        (Reliable_link.unacked t.sender)
  | Wire.Frame_ack { seq } -> (
      match Reliable_link.ack t.sender ~seq with
      | Some h -> ignore (Event_queue.cancel t.timers h)
      | None -> ())
  | Wire.Notify { client = _; key; pub_id } ->
      t.received <-
        { n_pub = pub_id; n_key = key; n_at = Clock.now () } :: t.received
  | Wire.Bye -> drop_conn t
  | Wire.Hello _ | Wire.Payload _ | Wire.Repl_stream _ -> ()

let poll t =
  let now = Clock.now () in
  (match t.conn with
  | None -> if now >= t.reconnect_at then try_connect t
  | Some c ->
      (* A handler that hung up has dropped the connection already;
         dropping it again would burn a second backoff attempt. *)
      if
        (not (Conn.pump c ~readable:true ~writable:true handle_client_msg t))
        && t.conn <> None
      then drop_conn t);
  (* Retransmissions due. *)
  let rec fire () =
    match Event_queue.peek_time t.timers with
    | Some time when time <= now -> (
        match Event_queue.pop t.timers with
        | Some (_, seq) ->
            (match Reliable_link.on_timeout t.sender ~seq with
            | Reliable_link.Not_tracked | Reliable_link.Give_up -> ()
            | Reliable_link.Retransmit { item; rto } ->
                send_now t ~seq item;
                Reliable_link.set_timer t.sender ~seq
                  (Event_queue.push_cancelable t.timers ~time:(now +. rto) seq));
            fire ()
        | None -> ())
    | Some _ | None -> ()
  in
  fire ()

let close_client t =
  (match t.conn with
  | Some c ->
      ignore (Conn.send_msg c ~seq:0 Wire.Bye);
      ignore (Conn.flush c);
      Conn.close c
  | None -> ());
  t.conn <- None;
  t.welcomed <- false

(* ------------------------------------------------------------------ *)
(* Closed-loop workload driver. *)

type result = {
  clients : int;
  subscriptions : int;
  pubs : int;
  expected : int;
  delivered : int;
  pubs_per_sec : float;
  p50_ms : float;
  p99_ms : float;
  verdicts_match : bool;
      (* loadgen's delivered verdicts byte-identical to the in-process
         engine's expected verdicts *)
  audit : Audit.report;
}

let poll_all clients = List.iter poll clients

let pump_until ~deadline ~done_ clients =
  let rec go () =
    poll_all clients;
    if done_ () then true
    else if Clock.now () >= deadline then false
    else begin
      (* Tiny sleep keeps the closed loop from busy-spinning. *)
      (try ignore (Unix.select [] [] [] 0.002)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

let wait_connected ?(timeout = 10.0) clients =
  let deadline = Clock.now () +. timeout in
  pump_until ~deadline
    ~done_:(fun () -> List.for_all connected clients)
    clients

let wait_acked ?(timeout = 10.0) clients =
  let deadline = Clock.now () +. timeout in
  pump_until ~deadline
    ~done_:(fun () -> List.for_all (fun c -> in_flight c = 0) clients)
    clients

(* Canonical verdict serialization: one line per publication, the
   sorted (broker, client, key) recipient triples. Byte-identical
   between the socket transport's deliveries and the in-process
   matching engine iff the real fleet delivered exactly the matches. *)
let verdict_string per_pub =
  String.concat "\n"
    (List.map
       (fun (pub_id, recipients) ->
         Printf.sprintf "pub %d -> %s" pub_id
           (String.concat ","
              (List.map
                 (fun (b, c, k) -> Printf.sprintf "%d:%d:%d" b c k)
                 (List.sort_uniq compare recipients))))
       (List.sort compare per_pub))

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let idx = int_of_float (p *. float_of_int (n - 1)) in
      sorted.(max 0 (min (n - 1) idx))

type workload = {
  w_clients : client list;
  (* client -> its subscriptions: (key, sub) *)
  w_subs : (client * (int * Subscription.t) list) list;
}

(* Install [subs_per_client] random box subscriptions per client, keys
   globally unique, and wait until every Subscribe is acked. *)
let install ~rng ~arity ~subs_per_client clients =
  let next_key = ref 1 in
  let w_subs =
    List.map
      (fun c ->
        let subs =
          List.init subs_per_client (fun _ ->
              let key = !next_key in
              incr next_key;
              let ranges =
                Array.init arity (fun _ ->
                    let lo = Prng.int_in rng ~lo:0 ~hi:70 in
                    let w = Prng.int_in rng ~lo:5 ~hi:30 in
                    (lo, lo + w))
              in
              (key, Subscription.of_bounds (Array.to_list ranges)))
        in
        List.iter (fun (key, sub) -> subscribe c ~key sub) subs;
        (c, subs))
      clients
  in
  { w_clients = clients; w_subs }

let random_publication ~rng ~arity =
  Publication.point (Array.init arity (fun _ -> Prng.int_in rng ~lo:0 ~hi:100))

(* Ground truth for one publication, from the loadgen's own table via
   the in-process matcher. *)
let expected_recipients w pub =
  List.concat_map
    (fun (c, subs) ->
      List.filter_map
        (fun (key, sub) ->
          if Publication.matches sub pub then Some (home c, client_id c, key)
          else None)
        subs)
    w.w_subs
  |> List.sort compare

let delivered_for w pub_id =
  List.concat_map
    (fun (c, _) ->
      List.filter_map
        (fun n ->
          if n.n_pub = pub_id then Some (home c, client_id c, n.n_key)
          else None)
        (notifications c))
    w.w_subs

(* Closed loop: publish one publication at a time from a rotating home
   broker, wait for its full expected recipient set (or the per-pub
   deadline), measure the last-arrival latency. *)
let workload_table w =
  List.map (fun (c, subs) -> (home c, client_id c, subs)) w.w_subs

let drive ?(pub_base = 1_000_000) ~rng ~arity ~pubs ~per_pub_timeout w =
  let audit = Audit.create () in
  let latencies = ref [] in
  let published = ref [] in
  let started = Clock.now () in
  let publishers = Array.of_list w.w_clients in
  if Array.length publishers = 0 then
    invalid_arg "Loadgen.drive: no clients";
  for i = 0 to pubs - 1 do
    let pub_id = pub_base + i in
    let pub = random_publication ~rng ~arity in
    let expected = expected_recipients w pub in
    Audit.expect_recipients audit ~pub_id expected;
    published := (pub_id, expected) :: !published;
    let publisher = publishers.(i mod Array.length publishers) in
    let t0 = Clock.now () in
    let sent = publish publisher ~id:pub_id pub in
    if sent then begin
      let expected_set = List.sort_uniq compare expected in
      let arrived () =
        List.sort_uniq compare (delivered_for w pub_id) = expected_set
      in
      let ok =
        pump_until
          ~deadline:(t0 +. per_pub_timeout)
          ~done_:arrived w.w_clients
      in
      if ok && expected <> [] then
        latencies := (Clock.now () -. t0) *. 1000.0 :: !latencies
    end
  done;
  let elapsed = Clock.now () -. started in
  (* Let straggler duplicates surface before auditing. *)
  let settle = Clock.now () +. 0.2 in
  ignore (pump_until ~deadline:settle ~done_:(fun () -> false) w.w_clients);
  let deliveries =
    List.concat_map
      (fun (pub_id, _) ->
        List.map (fun d -> (pub_id, d)) (delivered_for w pub_id))
      !published
  in
  let report = Audit.report_delivered audit deliveries in
  let expected_verdicts = verdict_string !published in
  let delivered_verdicts =
    verdict_string
      (List.map (fun (pub_id, _) -> (pub_id, delivered_for w pub_id)) !published)
  in
  let sorted =
    let a = Array.of_list !latencies in
    Array.sort compare a;
    a
  in
  {
    clients = List.length w.w_clients;
    subscriptions = List.fold_left (fun n (_, s) -> n + List.length s) 0 w.w_subs;
    pubs;
    expected = report.Audit.expected;
    delivered = report.Audit.delivered;
    pubs_per_sec = (if elapsed > 0.0 then float_of_int pubs /. elapsed else 0.0);
    p50_ms = percentile sorted 0.50;
    p99_ms = percentile sorted 0.99;
    verdicts_match = String.equal expected_verdicts delivered_verdicts;
    audit = report;
  }
