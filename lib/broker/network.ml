open Probsub_core

type notification = {
  time : float;
  broker : Topology.broker;
  client : int;
  sub_key : int;
  pub_id : int;
}

type recovery = {
  lease_ttl : float;
  refresh_interval : float;
  rto : float;
  max_retries : int;
}

let default_recovery =
  { lease_ttl = 30.0; refresh_interval = 10.0; rto = 4.0; max_retries = 6 }

(* The simulator's event algebra, split over two queues. Deliver and
   Retransmit are "real" work and live in [real_q]; [run] drains that
   queue alone, so it terminates (retransmissions are capped and acks
   settle). Refresh, Sweep, Crash and Restart are scheduled maintenance
   — periodic or clock-driven — parked in [maint_q]; only [run_until]
   advances through them, merging the two queues in time order. Without
   the split, a refresh wave whose ack/retransmit tail outlasts the
   refresh interval would re-arm itself forever and a draining run
   would never go quiescent. *)
type event =
  | Deliver of {
      dst : Topology.broker;
      origin : Message.origin;
      payload : Message.payload;
      seq : int option; (* link sequence number on the acked channel *)
    }
  | Retransmit of int (* pending link seq whose ack timed out *)
  | Refresh of int (* subscription key due for a lease refresh *)
  | Sweep of Topology.broker (* periodic lease expiry at a broker *)
  | Crash of Topology.broker
  | Restart of Topology.broker

(* What one unacked link transmission must remember to be resendable;
   retry counts, backoff and timers live in [Reliable_link]. *)
type link_item = {
  li_src : Topology.broker;
  li_dst : Topology.broker;
  li_payload : Message.payload;
}

type t = {
  topology : Topology.t;
  brokers : Broker_node.t array;
  real_q : event Event_queue.t;
  maint_q : event Event_queue.t;
  metrics : Metrics.t;
  link_latency : float;
  fault_plan : Fault_plan.t;
  recovery : recovery option;
  down : bool array;
  mutable clock : float;
  mutable next_sub_key : int;
  mutable next_adv_key : int;
  mutable next_pub_id : int;
  mutable notifications : notification list; (* newest first *)
  (* key -> (broker, client, sub); removed on unsubscribe. *)
  client_subs : (int, Topology.broker * int * Subscription.t) Hashtbl.t;
  mutable next_link_seq : int;
  link_sender : (link_item, Event_queue.handle) Reliable_link.sender;
  (* Receiver-side (src, dst) link dedup of the acked channel. *)
  link_seen : (Topology.broker * Topology.broker, Reliable_link.receiver) Hashtbl.t;
  refresh_timers : (int, Event_queue.handle) Hashtbl.t;
  next_epoch : (int, int) Hashtbl.t;
}

let push_real t ~time ev = Event_queue.push t.real_q ~time ev
let push_maintenance t ~time ev = Event_queue.push t.maint_q ~time ev

let push_retransmit t ~time seq =
  Event_queue.push_cancelable t.real_q ~time (Retransmit seq)

let cancel_retransmit t h = ignore (Event_queue.cancel t.real_q h)

let create ?(policy = Subscription_store.Pairwise_policy) ?(link_latency = 1.0)
    ?(use_advertisements = false) ?(fault_plan = Fault_plan.zero) ?recovery
    ?dedup_capacity ?devices ~topology ~arity ~seed () =
  if not (link_latency > 0.0) then
    invalid_arg "Network.create: latency must be positive";
  (match devices with
  | Some d when Array.length d <> Topology.size topology ->
      invalid_arg "Network.create: one device per broker required"
  | Some _ | None -> ());
  (match recovery with
  | Some r ->
      if
        not
          (r.lease_ttl > 0.0
          && r.refresh_interval > 0.0
          && r.refresh_interval < r.lease_ttl
          && r.rto > 0.0 && r.max_retries >= 0)
      then invalid_arg "Network.create: bad recovery parameters"
  | None -> ());
  let lease_ttl = Option.map (fun r -> r.lease_ttl) recovery in
  let brokers =
    Array.init (Topology.size topology) (fun id ->
        Broker_node.create ~use_advertisements ?lease_ttl ?dedup_capacity
          ?device:(Option.map (fun d -> d.(id)) devices)
          ~id
          ~neighbors:(Topology.neighbors topology id)
          ~policy ~arity ~seed ())
  in
  let t =
    {
      topology;
      brokers;
      real_q = Event_queue.create ();
      maint_q = Event_queue.create ();
      metrics = Metrics.create ();
      link_latency;
      fault_plan;
      recovery;
      down = Array.make (Topology.size topology) false;
      clock = 0.0;
      next_sub_key = 0;
      next_adv_key = 0;
      next_pub_id = 0;
      notifications = [];
      client_subs = Hashtbl.create 64;
      next_link_seq = 0;
      link_sender =
        Reliable_link.sender
          (match recovery with
          | Some r ->
              { Reliable_link.rto = r.rto; max_retries = r.max_retries }
          | None -> Reliable_link.default_config);
      link_seen = Hashtbl.create 16;
      refresh_timers = Hashtbl.create 64;
      next_epoch = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (b, start, stop) ->
      if b >= Topology.size topology then
        invalid_arg "Network.create: crash window names an unknown broker";
      push_maintenance t ~time:start (Crash b);
      push_maintenance t ~time:stop (Restart b))
    (Fault_plan.crash_windows fault_plan);
  (match recovery with
  | Some r ->
      Array.iteri
        (fun b _ -> push_maintenance t ~time:r.refresh_interval (Sweep b))
        brokers
  | None -> ());
  t

let topology t = t.topology
let now t = t.clock
let metrics t = t.metrics

let broker t b =
  if b < 0 || b >= Array.length t.brokers then
    invalid_arg "Network.broker: unknown broker";
  t.brokers.(b)

let broker_down t b =
  ignore (broker t b);
  t.down.(b)

let count_link_message t payload =
  match payload with
  | Message.Subscribe _ ->
      t.metrics.Metrics.subscribe_msgs <- t.metrics.Metrics.subscribe_msgs + 1
  | Message.Unsubscribe _ ->
      t.metrics.Metrics.unsubscribe_msgs <-
        t.metrics.Metrics.unsubscribe_msgs + 1
  | Message.Advertise _ | Message.Unadvertise _ ->
      t.metrics.Metrics.advertise_msgs <- t.metrics.Metrics.advertise_msgs + 1
  | Message.Publish _ ->
      t.metrics.Metrics.publish_msgs <- t.metrics.Metrics.publish_msgs + 1
  | Message.Ack _ ->
      t.metrics.Metrics.ack_msgs <- t.metrics.Metrics.ack_msgs + 1

(* One fault-plan-mediated traversal of [src -> dst]: each returned
   offset is a delivered copy; none means the message is lost. *)
let transmit_link t ~time ~src ~dst ~payload ~seq =
  match Fault_plan.transmit t.fault_plan ~src ~dst ~now:time with
  | [] -> t.metrics.Metrics.dropped_msgs <- t.metrics.Metrics.dropped_msgs + 1
  | offsets ->
      List.iteri
        (fun i offset ->
          if i > 0 then
            t.metrics.Metrics.duplicated_msgs <-
              t.metrics.Metrics.duplicated_msgs + 1;
          push_real t
            ~time:(time +. t.link_latency +. offset)
            (Deliver { dst; origin = Message.Link src; payload; seq }))
        offsets

(* Send one link message. Control messages on a recovery-enabled
   network get a sequence number, an entry in the retransmission
   buffer, and an ack timeout. *)
let send_link t ~time ~src ~dst payload =
  count_link_message t payload;
  let seq =
    match t.recovery with
    | Some r when Message.is_control payload ->
        let s = t.next_link_seq in
        t.next_link_seq <- s + 1;
        let timer = push_retransmit t ~time:(time +. r.rto) s in
        Reliable_link.track t.link_sender ~seq:s
          ~item:{ li_src = src; li_dst = dst; li_payload = payload }
          ~timer;
        Some s
    | Some _ | None -> None
  in
  transmit_link t ~time ~src ~dst ~payload ~seq

let apply_actions t ~time ~at actions =
  List.iter
    (fun action ->
      match action with
      | Broker_node.Forward { to_; payload } ->
          send_link t ~time ~src:at ~dst:to_ payload
      | Broker_node.Notify { client; key; pub_id } ->
          t.metrics.Metrics.notifications <-
            t.metrics.Metrics.notifications + 1;
          t.notifications <-
            { time; broker = at; client; sub_key = key; pub_id }
            :: t.notifications)
    actions

(* Track coverage suppressions: a Subscribe processed at a broker with
   f out-neighbours that emits s < f subscribe forwards withheld f - s
   of them (duplicates emit nothing and are counted separately). *)
let process_broker t ~time ~dst ~origin ~payload =
  let node = t.brokers.(dst) in
  let duplicate =
    match payload with
    | Message.Subscribe { key; epoch; _ } ->
        Broker_node.knows_subscription node ~key
        && epoch <= Broker_node.subscription_epoch node ~key
    | Message.Publish _ | Message.Unsubscribe _ | Message.Advertise _
    | Message.Unadvertise _ | Message.Ack _ ->
        false
  in
  let scans0, hits0 = Broker_node.match_counters node in
  let actions = Broker_node.handle node ~now:time ~origin payload in
  let scans1, hits1 = Broker_node.match_counters node in
  t.metrics.Metrics.match_scans <-
    t.metrics.Metrics.match_scans + (scans1 - scans0);
  t.metrics.Metrics.match_index_hits <-
    t.metrics.Metrics.match_index_hits + (hits1 - hits0);
  (match payload with
  | Message.Subscribe _ when duplicate ->
      t.metrics.Metrics.duplicate_drops <- t.metrics.Metrics.duplicate_drops + 1
  | Message.Subscribe _ ->
      let out =
        List.length
          (List.filter
             (fun n ->
               match origin with
               | Message.Link l -> l <> n
               | Message.Client _ | Message.Publisher -> true)
             (Topology.neighbors t.topology dst))
      in
      let sent =
        List.length
          (List.filter
             (function
               | Broker_node.Forward { payload = Message.Subscribe _; _ } -> true
               | Broker_node.Forward _ | Broker_node.Notify _ -> false)
             actions)
      in
      t.metrics.Metrics.suppressed_subscriptions <-
        t.metrics.Metrics.suppressed_subscriptions + (out - sent)
  | Message.Unsubscribe _ | Message.Publish _ | Message.Advertise _
  | Message.Unadvertise _ | Message.Ack _ ->
      ());
  apply_actions t ~time ~at:dst actions

let handle_ack t seq =
  match Reliable_link.ack t.link_sender ~seq with
  | None -> () (* late duplicate ack *)
  | Some timer -> cancel_retransmit t timer

let link_seen_window t ~src ~dst =
  match Hashtbl.find_opt t.link_seen (src, dst) with
  | Some w -> w
  | None ->
      let w = Reliable_link.receiver ~capacity:1024 () in
      Hashtbl.replace t.link_seen (src, dst) w;
      w

let process_deliver t ~time ~dst ~origin ~payload ~seq =
  if t.down.(dst) then
    (* A crashed broker discards everything addressed to it — and
       cannot ack, so the sender's retransmissions keep trying. *)
    t.metrics.Metrics.dropped_msgs <- t.metrics.Metrics.dropped_msgs + 1
  else begin
    let fresh =
      match (seq, origin) with
      | Some s, Message.Link src ->
          (* Always re-ack: the previous ack may have been the lost
             copy. Then dedup — retransmits and fault-injected
             duplicates must not be processed twice. *)
          send_link t ~time ~src:dst ~dst:src (Message.Ack { seq = s });
          let win = link_seen_window t ~src ~dst in
          (match Reliable_link.admit win ~seq:s with
          | `Duplicate ->
              t.metrics.Metrics.duplicate_drops <-
                t.metrics.Metrics.duplicate_drops + 1;
              false
          | `Fresh -> true)
      | _ -> true
    in
    if fresh then
      match payload with
      | Message.Ack { seq = acked } -> handle_ack t acked
      | _ -> process_broker t ~time ~dst ~origin ~payload
  end

(* Events generated during a draining [run] can be scheduled earlier
   than maintenance the clock already passed; clamping keeps the clock
   monotone. *)
let process t ~time ev =
  let time = Float.max time t.clock in
  t.clock <- time;
  match ev with
  | Deliver { dst; origin; payload; seq } ->
      process_deliver t ~time ~dst ~origin ~payload ~seq
  | Retransmit seq -> (
      match t.recovery with
      | None -> ()
      | Some _ -> (
          match Reliable_link.on_timeout t.link_sender ~seq with
          | Reliable_link.Not_tracked | Reliable_link.Give_up ->
              (* Acked meanwhile, or retry budget exhausted; in the
                 latter case lease refresh (or expiry) repairs whatever
                 this message would have installed (or removed). *)
              ()
          | Reliable_link.Retransmit { item; rto } ->
              t.metrics.Metrics.retransmissions <-
                t.metrics.Metrics.retransmissions + 1;
              count_link_message t item.li_payload;
              transmit_link t ~time ~src:item.li_src ~dst:item.li_dst
                ~payload:item.li_payload ~seq:(Some seq);
              Reliable_link.set_timer t.link_sender ~seq
                (push_retransmit t ~time:(time +. rto) seq)))
  | Refresh key -> (
      match (Hashtbl.find_opt t.client_subs key, t.recovery) with
      | Some (home, client, sub), Some r ->
          let epoch =
            Option.value ~default:1 (Hashtbl.find_opt t.next_epoch key)
          in
          Hashtbl.replace t.next_epoch key (epoch + 1);
          t.metrics.Metrics.lease_renewals <-
            t.metrics.Metrics.lease_renewals + 1;
          push_real t ~time
            (Deliver
               {
                 dst = home;
                 origin = Message.Client client;
                 payload = Message.Subscribe { key; sub; epoch };
                 seq = None;
               });
          let h =
            Event_queue.push_cancelable t.maint_q
              ~time:(time +. r.refresh_interval)
              (Refresh key)
          in
          Hashtbl.replace t.refresh_timers key h
      | _ -> Hashtbl.remove t.refresh_timers key)
  | Sweep b -> (
      match t.recovery with
      | None -> ()
      | Some r ->
          if not t.down.(b) then begin
            let expired, actions = Broker_node.sweep t.brokers.(b) ~now:time in
            t.metrics.Metrics.lease_expiries <-
              t.metrics.Metrics.lease_expiries + expired;
            apply_actions t ~time ~at:b actions;
            (* The sweep tick doubles as the compaction tick. *)
            ignore (Broker_node.maybe_compact t.brokers.(b))
          end;
          push_maintenance t ~time:(time +. r.refresh_interval) (Sweep b))
  | Crash b ->
      t.down.(b) <- true;
      t.metrics.Metrics.crashes <- t.metrics.Metrics.crashes + 1;
      (* The broker's unacked send state dies with it. *)
      List.iter
        (fun (_, timer) -> cancel_retransmit t timer)
        (Reliable_link.drop_where t.link_sender (fun i -> i.li_src = b))
  | Restart b ->
      t.down.(b) <- false;
      (* Durable brokers recover their routing table from the WAL;
         plain brokers come back empty. *)
      Broker_node.restart t.brokers.(b)

let rec run t =
  match Event_queue.pop t.real_q with
  | None -> ()
  | Some (time, ev) ->
      process t ~time ev;
      run t

(* Merge the two queues in time order up to the bound; a time tie goes
   to maintenance (a refresh fires before the deliveries it causes). *)
let run_until t ~time =
  if Float.is_nan time then invalid_arg "Network.run_until: NaN time";
  let continue = ref true in
  while !continue do
    let next_real = Event_queue.peek_time t.real_q in
    let next_maint = Event_queue.peek_time t.maint_q in
    let pop_from q =
      match Event_queue.pop q with
      | Some (et, ev) -> process t ~time:et ev
      | None ->
          (* Only reachable if Event_queue.peek_time returned a time for
             a queue that then popped empty — a broken queue invariant,
             not a caller error. *)
          invalid_arg
            "Network.run_until: event queue drained between peek and pop"
    in
    match (next_real, next_maint) with
    | Some r, Some m when r <= time && m <= time ->
        pop_from (if m <= r then t.maint_q else t.real_q)
    | Some r, _ when r <= time -> pop_from t.real_q
    | _, Some m when m <= time -> pop_from t.maint_q
    | _ -> continue := false
  done;
  if time > t.clock then t.clock <- time

let subscribe t ~broker:b ~client sub =
  ignore (broker t b);
  let key = t.next_sub_key in
  t.next_sub_key <- key + 1;
  Hashtbl.replace t.client_subs key (b, client, sub);
  push_real t ~time:t.clock
    (Deliver
       {
         dst = b;
         origin = Message.Client client;
         payload = Message.Subscribe { key; sub; epoch = 0 };
         seq = None;
       });
  (match t.recovery with
  | Some r ->
      Hashtbl.replace t.next_epoch key 1;
      let h =
        Event_queue.push_cancelable t.maint_q
          ~time:(t.clock +. r.refresh_interval)
          (Refresh key)
      in
      Hashtbl.replace t.refresh_timers key h
  | None -> ());
  key

let unsubscribe t ~broker:b ~key =
  match Hashtbl.find_opt t.client_subs key with
  | Some (home, client, _) when home = b ->
      Hashtbl.remove t.client_subs key;
      Hashtbl.remove t.next_epoch key;
      (match Hashtbl.find_opt t.refresh_timers key with
      | Some h ->
          ignore (Event_queue.cancel t.maint_q h);
          Hashtbl.remove t.refresh_timers key
      | None -> ());
      push_real t ~time:t.clock
        (Deliver
           {
             dst = b;
             origin = Message.Client client;
             payload = Message.Unsubscribe { key };
             seq = None;
           })
  | Some _ -> invalid_arg "Network.unsubscribe: key issued at another broker"
  | None -> invalid_arg "Network.unsubscribe: unknown key"

let advertise t ~broker:b ~client adv =
  ignore (broker t b);
  let key = t.next_adv_key in
  t.next_adv_key <- key + 1;
  push_real t ~time:t.clock
    (Deliver
       {
         dst = b;
         origin = Message.Client client;
         payload = Message.Advertise { key; adv };
         seq = None;
       });
  key

let unadvertise t ~broker:b ~client ~key =
  ignore (broker t b);
  push_real t ~time:t.clock
    (Deliver
       {
         dst = b;
         origin = Message.Client client;
         payload = Message.Unadvertise { key };
         seq = None;
       })

let publish t ~broker:b pub =
  ignore (broker t b);
  let id = t.next_pub_id in
  t.next_pub_id <- id + 1;
  push_real t ~time:t.clock
    (Deliver
       {
         dst = b;
         origin = Message.Publisher;
         payload = Message.Publish { id; pub };
         seq = None;
       });
  id

let notifications t = List.rev t.notifications

let expected_recipients t pub =
  (Hashtbl.fold
     (fun key (b, client, sub) acc ->
       if Publication.matches sub pub then (b, client, key) :: acc else acc)
     t.client_subs []
  [@problint.allow
    determinism "order-insensitive: result is sorted on the next line"])
  |> List.sort compare

let client_subscriptions t =
  (Hashtbl.fold
     (fun key (b, client, sub) acc -> (b, client, key, sub) :: acc)
     t.client_subs []
  [@problint.allow
    determinism "order-insensitive: result is sorted on the next line"])
  |> List.sort compare
