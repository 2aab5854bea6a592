open Probsub_core
module Store_log = Probsub_store_log.Store_log
module Log_codec = Probsub_store_log.Codec
module Device = Probsub_store_log.Device

type action =
  | Forward of { to_ : Topology.broker; payload : Message.payload }
  | Notify of { client : int; key : int; pub_id : int }

(* Coverage-checked set of subscriptions offered towards one
   neighbour, with the network-wide key <-> store-id correspondence. *)
type peer_state = {
  store : Subscription_store.t;
  key_to_id : (int, Subscription_store.id) Hashtbl.t;
  id_to_key : (Subscription_store.id, int) Hashtbl.t;
}

type t = {
  id : Topology.broker;
  neighbors : Topology.broker list;
  use_advertisements : bool;
  lease_ttl : float option;
  policy : Subscription_store.policy;
  arity : int;
  draw_seed : unit -> int;
  fresh_store : unit -> Subscription_store.t;
  device : Device.t option;
  (* WAL attached to [routing]; [None] iff [device] is [None]. *)
  mutable durable : Store_log.t option;
  mutable routing : Subscription_store.t; (* the received table of Alg. 5 *)
  r_key_to_id : (int, Subscription_store.id) Hashtbl.t;
  r_id_to_key : (Subscription_store.id, int) Hashtbl.t;
  r_origin : (Subscription_store.id, Message.origin) Hashtbl.t;
  (* Latest refresh epoch seen per key: a given epoch of a known key is
     forwarded at most once, so lease-refresh waves terminate. *)
  r_epoch : (int, int) Hashtbl.t;
  peers : (Topology.broker, peer_state) Hashtbl.t;
  ads : (int, Subscription.t * Message.origin) Hashtbl.t;
  seen_pubs : Dedup_window.t;
  (* Scratch set for handle_publish's forward-link dedup; always empty
     between calls. *)
  link_mark : (int, unit) Hashtbl.t;
  (* Replication fence: the highest failover epoch this broker identity
     has committed to. On a durable broker it is journalled, so a
     restarted ex-primary remembers it was superseded. *)
  mutable fence : int;
  (* Replication observability counters; monotone, diffed by the
     metrics layer exactly like [match_counters]. *)
  mutable c_failovers : int;
  mutable c_repl_frames : int;
  mutable c_repl_lag : int; (* high-water mark, hence monotone *)
  mutable c_reconnects : int;
}

let id t = t.id

(* The interned-id tables (key<->id, id->origin) are kept in lockstep
   with the stores; a missing entry is a broken internal invariant.
   Report it with context instead of leaking a bare Not_found out of a
   handler. *)
let table_get tbl k ~what =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None -> invalid_arg ("Broker_node: lockstep table missing " ^ what)

let knows_subscription t ~key = Hashtbl.mem t.r_key_to_id key

let subscription_epoch t ~key =
  Option.value ~default:0 (Hashtbl.find_opt t.r_epoch key)

let knows_advertisement t ~key = Hashtbl.mem t.ads key
let routing_table_size t = Subscription_store.size t.routing

let match_counters t =
  let st = Subscription_store.stats t.routing in
  (st.Subscription_store.covered_scans, st.Subscription_store.index_hits)

let repl_counters t =
  (t.c_failovers, t.c_repl_frames, t.c_repl_lag, t.c_reconnects)

let note_failover t = t.c_failovers <- t.c_failovers + 1
let note_repl_frames t ~n = t.c_repl_frames <- t.c_repl_frames + n
let note_repl_lag t ~lag = if lag > t.c_repl_lag then t.c_repl_lag <- lag
let note_failover_reconnect t = t.c_reconnects <- t.c_reconnects + 1
let fence_epoch t = t.fence

(* Origin <-> (okind, oarg) for durable bindings; the store-log layer
   is broker-agnostic and carries plain ints. *)
let origin_code = function
  | Message.Client c -> (0, c)
  | Message.Publisher -> (1, 0)
  | Message.Link l -> (2, l)

let origin_of_code ~okind ~oarg =
  match okind with
  | 0 -> Some (Message.Client oarg)
  | 1 -> Some Message.Publisher
  | 2 -> Some (Message.Link oarg)
  | _ -> None

let reset_routing_maps t =
  Hashtbl.reset t.r_key_to_id;
  Hashtbl.reset t.r_id_to_key;
  Hashtbl.reset t.r_origin;
  Hashtbl.reset t.r_epoch

(* Per-neighbour sent-sets, advertisements and the dedup window are
   soft state under every crash model: the WAL covers the routing table
   only, and refresh waves rebuild the rest. *)
let reset_soft t =
  List.iter
    (fun n ->
      Hashtbl.replace t.peers n
        {
          store = t.fresh_store ();
          key_to_id = Hashtbl.create 32;
          id_to_key = Hashtbl.create 32;
        })
    t.neighbors;
  Hashtbl.reset t.ads;
  Dedup_window.clear t.seen_pubs

let start_fresh_routing t =
  match t.device with
  | None ->
      t.routing <- t.fresh_store ();
      t.durable <- None
  | Some device ->
      let store, log =
        Store_log.fresh ~policy:t.policy ~device ~arity:t.arity
          ~seed:(t.draw_seed ()) ()
      in
      t.routing <- store;
      t.durable <- Some log

(* Crash/restart without durable state: everything is lost; leases and
   refreshes reinstall it. *)
let reset t =
  start_fresh_routing t;
  reset_routing_maps t;
  reset_soft t;
  t.fence <- 0

(* Rebuild the routing maps from recovered bindings. Entries the log
   cannot fully account for — a torn tail that kept the add but lost
   its binding, or a binding whose origin no longer decodes — are
   removed from the store (journalled, so re-recovery agrees) rather
   than failing the whole recovery. *)
let install_recovered t store bindings epochs =
  reset_routing_maps t;
  let bound = Hashtbl.create 64 in
  List.iter
    (fun (b : Log_codec.binding) ->
      let origin =
        match
          origin_of_code ~okind:b.Log_codec.b_okind ~oarg:b.Log_codec.b_oarg
        with
        | Some (Message.Link l) when not (List.mem l t.neighbors) -> None
        | o -> o
      in
      match origin with
      | Some origin ->
          Hashtbl.replace bound b.Log_codec.b_rid ();
          Hashtbl.replace t.r_key_to_id b.Log_codec.b_key b.Log_codec.b_rid;
          Hashtbl.replace t.r_id_to_key b.Log_codec.b_rid b.Log_codec.b_key;
          Hashtbl.replace t.r_origin b.Log_codec.b_rid origin;
          Hashtbl.replace t.r_epoch b.Log_codec.b_key b.Log_codec.b_epoch
      | None -> (
          try ignore (Subscription_store.remove store b.Log_codec.b_rid)
          with Not_found -> ()))
    bindings;
  List.iter
    (fun (key, epoch) ->
      if Hashtbl.mem t.r_key_to_id key then Hashtbl.replace t.r_epoch key epoch)
    epochs;
  List.iter
    (fun (rid, _, _, _) ->
      if not (Hashtbl.mem bound rid) then
        ignore (Subscription_store.remove store rid))
    (Subscription_store.image store).Subscription_store.i_entries

(* Crash/restart with a device: recover the routing table from the
   WAL + snapshot; only soft state is lost. Falls back to an empty
   fresh log when the device holds nothing recoverable. *)
let restart t =
  (match t.device with
  | None ->
      start_fresh_routing t;
      reset_routing_maps t
  | Some device -> (
      match Store_log.recover ~device () with
      | Error _ ->
          start_fresh_routing t;
          reset_routing_maps t;
          t.fence <- 0
      | Ok r ->
          t.routing <- r.Store_log.r_store;
          t.durable <- Some r.Store_log.r_log;
          t.fence <- r.Store_log.r_fence;
          install_recovered t r.Store_log.r_store r.Store_log.r_bindings
            r.Store_log.r_epochs));
  reset_soft t

let create ?(use_advertisements = false) ?lease_ttl ?(dedup_capacity = 4096)
    ?device ?(recover = false) ~id ~neighbors ~policy ~arity ~seed () =
  (match lease_ttl with
  | Some ttl when not (ttl > 0.0) ->
      invalid_arg "Broker_node.create: lease_ttl must be positive"
  | Some _ | None -> ());
  let rng = Prng.of_int (seed + (id * 7919)) in
  let draw_seed () = Int64.to_int (Prng.bits64 rng) land 0x3FFFFFFF in
  let fresh_store () =
    Subscription_store.create ~policy ~arity ~seed:(draw_seed ()) ()
  in
  let peers = Hashtbl.create 8 in
  List.iter
    (fun n ->
      Hashtbl.replace peers n
        {
          store = fresh_store ();
          key_to_id = Hashtbl.create 32;
          id_to_key = Hashtbl.create 32;
        })
    neighbors;
  let routing, durable, recovered, fence =
    match device with
    | None -> (fresh_store (), None, None, 0)
    | Some device -> (
        let start_fresh () =
          (* Same rng draw as the non-durable path, so a durable
             broker's pre-crash behaviour is bit-identical to a plain
             one. *)
          let store, log =
            Store_log.fresh ~policy ~device ~arity ~seed:(draw_seed ()) ()
          in
          (store, Some log, None, 0)
        in
        if not recover then start_fresh ()
        else
          (* A process restarting over an existing device (the real
             server's kill -9 path): recover instead of wiping. The
             seed draw still happens so the rng sequence matches a
             fresh start. *)
          match Store_log.recover ~device () with
          | Error _ -> start_fresh ()
          | Ok r ->
              let (_ : int) = draw_seed () in
              ( r.Store_log.r_store,
                Some r.Store_log.r_log,
                Some (r.Store_log.r_bindings, r.Store_log.r_epochs),
                r.Store_log.r_fence ))
  in
  let t =
    {
      id;
      neighbors;
      use_advertisements;
      lease_ttl;
      policy;
      arity;
      draw_seed;
      fresh_store;
      device;
      durable;
      routing;
      r_key_to_id = Hashtbl.create 64;
      r_id_to_key = Hashtbl.create 64;
      r_origin = Hashtbl.create 64;
      r_epoch = Hashtbl.create 64;
      peers;
      ads = Hashtbl.create 16;
      seen_pubs = Dedup_window.create ~capacity:dedup_capacity;
      link_mark = Hashtbl.create 8;
      fence;
      c_failovers = 0;
      c_repl_frames = 0;
      c_repl_lag = 0;
      c_reconnects = 0;
    }
  in
  (match recovered with
  | Some (bindings, epochs) -> install_recovered t t.routing bindings epochs
  | None -> ());
  t

let peer t neighbor =
  match Hashtbl.find_opt t.peers neighbor with
  | Some p -> p
  | None -> invalid_arg "Broker_node: not a neighbour"

let active_towards t ~neighbor =
  Subscription_store.active_count (peer t neighbor).store

let suppressed_towards t ~neighbor =
  Subscription_store.covered_count (peer t neighbor).store

let lease_end t ~now =
  match t.lease_ttl with None -> infinity | Some ttl -> now +. ttl

let out_neighbors t ~origin =
  List.filter
    (fun n ->
      match origin with
      | Message.Link l -> l <> n
      | Message.Client _ | Message.Publisher -> true)
    t.neighbors

(* In advertisement mode a subscription is only worth sending towards
   [neighbor] if some advertisement that arrived over that link
   intersects it: publications matching the subscription can only come
   from that direction if a publisher there declared overlapping
   content. *)
let neighbor_advertises t ~neighbor sub =
  (not t.use_advertisements)
  || (Hashtbl.fold
        (fun _ (adv, origin) found ->
          found
          || match origin with
             | Message.Link l ->
                 l = neighbor && Subscription.intersects adv sub
             | Message.Client _ | Message.Publisher -> false)
        t.ads false
     [@problint.allow
       determinism
         "existence check: boolean OR over all entries is \
          order-insensitive"])

(* Offer one subscription towards one neighbour: the per-neighbour
   store decides (by policy) whether it actually crosses the link. *)
let offer_to_peer t ~now ~neighbor ~key ~sub ~epoch =
  let p = peer t neighbor in
  if Hashtbl.mem p.key_to_id key then []
  else begin
    let pid, placement =
      Subscription_store.add_with_expiry p.store sub
        ~expires_at:(lease_end t ~now)
    in
    Hashtbl.replace p.key_to_id key pid;
    Hashtbl.replace p.id_to_key pid key;
    match placement with
    | Subscription_store.Active ->
        [ Forward
            { to_ = neighbor; payload = Message.Subscribe { key; sub; epoch } };
        ]
    | Subscription_store.Covered _ -> []
  end

let handle_subscribe t ~now ~origin ~key ~sub ~epoch =
  match Hashtbl.find_opt t.r_key_to_id key with
  | None ->
      let rid, _ =
        Subscription_store.add_with_expiry t.routing sub
          ~expires_at:(lease_end t ~now)
      in
      Hashtbl.replace t.r_key_to_id key rid;
      Hashtbl.replace t.r_id_to_key rid key;
      Hashtbl.replace t.r_origin rid origin;
      Hashtbl.replace t.r_epoch key epoch;
      (match t.durable with
      | Some log ->
          let okind, oarg = origin_code origin in
          Store_log.log_binding log
            {
              Log_codec.b_rid = rid;
              b_key = key;
              b_okind = okind;
              b_oarg = oarg;
              b_epoch = epoch;
            }
      | None -> ());
      List.concat_map
        (fun n ->
          if neighbor_advertises t ~neighbor:n sub then
            offer_to_peer t ~now ~neighbor:n ~key ~sub ~epoch
          else [])
        (out_neighbors t ~origin)
  | Some rid ->
      if epoch <= subscription_epoch t ~key then
        (* Same epoch over another path, or a stale refresh: drop. *)
        []
      else begin
        (* A fresh refresh wave: renew every lease this broker holds for
           the key, repair per-peer state the neighbour may have lost,
           and pass the wave down the dissemination tree. *)
        Hashtbl.replace t.r_epoch key epoch;
        (match t.durable with
        | Some log -> Store_log.log_epoch log ~key ~epoch
        | None -> ());
        Subscription_store.renew t.routing rid
          ~expires_at:(lease_end t ~now);
        List.concat_map
          (fun n ->
            let p = peer t n in
            match Hashtbl.find_opt p.key_to_id key with
            | Some pid ->
                Subscription_store.renew p.store pid
                  ~expires_at:(lease_end t ~now);
                if Subscription_store.is_active p.store pid then
                  [ Forward
                      {
                        to_ = n;
                        payload = Message.Subscribe { key; sub; epoch };
                      };
                  ]
                else []
            | None ->
                if neighbor_advertises t ~neighbor:n sub then
                  offer_to_peer t ~now ~neighbor:n ~key ~sub ~epoch
                else [])
          (out_neighbors t ~origin)
      end

let handle_unsubscribe t ~origin ~key =
  match Hashtbl.find_opt t.r_key_to_id key with
  | None -> []
  | Some rid ->
      ignore (Subscription_store.remove t.routing rid);
      Hashtbl.remove t.r_key_to_id key;
      Hashtbl.remove t.r_id_to_key rid;
      Hashtbl.remove t.r_origin rid;
      Hashtbl.remove t.r_epoch key;
      List.concat_map
        (fun n ->
          let p = peer t n in
          match Hashtbl.find_opt p.key_to_id key with
          | None -> []
          | Some pid ->
              let was_active = Subscription_store.is_active p.store pid in
              let promoted = Subscription_store.remove p.store pid in
              Hashtbl.remove p.key_to_id key;
              Hashtbl.remove p.id_to_key pid;
              let unsub_forward =
                if was_active then
                  [ Forward { to_ = n; payload = Message.Unsubscribe { key } } ]
                else []
              in
              (* §5: subscriptions this one was covering towards n are
                 promoted and must now actually be sent. *)
              let promotions =
                List.map
                  (fun pid' ->
                    let key' = table_get p.id_to_key pid' ~what:"peer key for promoted id" in
                    let sub' = Subscription_store.find p.store pid' in
                    Forward
                      {
                        to_ = n;
                        payload =
                          Message.Subscribe
                            {
                              key = key';
                              sub = sub';
                              epoch = subscription_epoch t ~key:key';
                            };
                      })
                  promoted
              in
              unsub_forward @ promotions)
        (out_neighbors t ~origin)

let handle_advertise t ~now ~origin ~key ~adv =
  if knows_advertisement t ~key then []
  else begin
    Hashtbl.replace t.ads key (adv, origin);
    (* Flood the advertisement itself. *)
    let floods =
      List.map
        (fun n ->
          Forward { to_ = n; payload = Message.Advertise { key; adv } })
        (out_neighbors t ~origin)
    in
    (* A new route towards a publisher opened: subscriptions pending on
       an intersecting advertisement must now be offered that way. *)
    let back_offers =
      match origin with
      | Message.Client _ | Message.Publisher -> []
      | Message.Link l ->
          (* Collect-then-sort so the offers hit the wire in routing-id
             order, not hash order: message order is observable in
             traces and must not depend on table history. *)
          let pending =
            (Hashtbl.fold
               (fun rid sub_origin acc -> (rid, sub_origin) :: acc)
               t.r_origin []
            [@problint.allow
              determinism
                "order-insensitive collection; the list is sorted by \
                 routing id on the next line before any effect happens"])
            |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          in
          List.concat_map
            (fun (rid, sub_origin) ->
              let key' = table_get t.r_id_to_key rid ~what:"routing key for pending id" in
              let sub = Subscription_store.find t.routing rid in
              let towards_origin =
                match sub_origin with
                | Message.Link l' -> l' = l
                | Message.Client _ | Message.Publisher -> false
              in
              if
                t.use_advertisements && (not towards_origin)
                && Subscription.intersects adv sub
              then
                offer_to_peer t ~now ~neighbor:l ~key:key' ~sub
                  ~epoch:(subscription_epoch t ~key:key')
              else [])
            pending
    in
    floods @ back_offers
  end

let handle_unadvertise t ~origin ~key =
  if not (knows_advertisement t ~key) then []
  else begin
    Hashtbl.remove t.ads key;
    List.map
      (fun n -> Forward { to_ = n; payload = Message.Unadvertise { key } })
      (out_neighbors t ~origin)
  end

let handle_publish t ~origin ~pub_id ~pub =
  if not (Dedup_window.admit t.seen_pubs pub_id) then []
  else begin
    let hits = Subscription_store.match_publication t.routing pub in
    let notifications = ref [] in
    let links = ref [] in
    (* first-seen order, O(1) membership *)
    List.iter
      (fun rid ->
        let key = table_get t.r_id_to_key rid ~what:"routing key for matched id" in
        match table_get t.r_origin rid ~what:"origin for matched id" with
        | Message.Client c ->
            notifications := Notify { client = c; key; pub_id } :: !notifications
        | Message.Publisher -> ()
        | Message.Link b ->
            if not (Hashtbl.mem t.link_mark b) then begin
              Hashtbl.replace t.link_mark b ();
              links := b :: !links
            end)
      hits;
    let forwards =
      List.filter_map
        (fun b ->
          Hashtbl.remove t.link_mark b;
          let came_from =
            match origin with
            | Message.Link l -> l = b
            | Message.Client _ | Message.Publisher -> false
          in
          if came_from then None
          else
            Some
              (Forward { to_ = b; payload = Message.Publish { id = pub_id; pub } }))
        (List.rev !links)
    in
    List.rev !notifications @ forwards
  end

let handle t ~now ~origin payload =
  match payload with
  | Message.Subscribe { key; sub; epoch } ->
      handle_subscribe t ~now ~origin ~key ~sub ~epoch
  | Message.Unsubscribe { key } -> handle_unsubscribe t ~origin ~key
  | Message.Advertise { key; adv } -> handle_advertise t ~now ~origin ~key ~adv
  | Message.Unadvertise { key } -> handle_unadvertise t ~origin ~key
  | Message.Publish { id; pub } -> handle_publish t ~origin ~pub_id:id ~pub
  | Message.Ack _ -> [] (* link-layer; consumed by the network *)

(* Reclaim every lease that has run out. Expired routing entries vanish
   silently (the downstream copies expire on their own clocks); peer
   entries promoted by an expiry must now actually cross the link, like
   unsubscription promotions (§5). *)
let sweep t ~now =
  let expired_total = ref 0 in
  let expired_routing, _ = Subscription_store.expire t.routing ~now in
  List.iter
    (fun rid ->
      incr expired_total;
      match Hashtbl.find_opt t.r_id_to_key rid with
      | Some key ->
          Hashtbl.remove t.r_key_to_id key;
          Hashtbl.remove t.r_id_to_key rid;
          Hashtbl.remove t.r_origin rid;
          Hashtbl.remove t.r_epoch key
      | None -> ())
    expired_routing;
  let actions =
    List.concat_map
      (fun n ->
        let p = peer t n in
        let expired, promoted = Subscription_store.expire p.store ~now in
        List.iter
          (fun pid ->
            incr expired_total;
            match Hashtbl.find_opt p.id_to_key pid with
            | Some key ->
                Hashtbl.remove p.key_to_id key;
                Hashtbl.remove p.id_to_key pid
            | None -> ())
          expired;
        List.map
          (fun pid ->
            let key = table_get p.id_to_key pid ~what:"peer key for promoted id" in
            let sub = Subscription_store.find p.store pid in
            Forward
              {
                to_ = n;
                payload =
                  Message.Subscribe
                    { key; sub; epoch = subscription_epoch t ~key };
              })
          promoted)
      t.neighbors
  in
  (!expired_total, actions)

let durable t = Option.is_some t.durable
let wal_bytes t = Option.map Store_log.wal_size t.durable

(* Routing-table entries owed to locally connected clients, ascending
   by key. On a durable broker this survives a crash — it is the ground
   truth a restarted server resumes its lease-refresh waves from. *)
let client_subscriptions t =
  List.filter_map
    (fun (rid, sub, _, _) ->
      match
        (Hashtbl.find_opt t.r_id_to_key rid, Hashtbl.find_opt t.r_origin rid)
      with
      | Some key, Some (Message.Client c) -> Some (key, c, sub)
      | _ -> None)
    (Subscription_store.image t.routing).Subscription_store.i_entries
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* Current routing bindings, ascending by store id (the image order),
   for a snapshot. *)
let collect_bindings t =
  List.filter_map
    (fun (rid, _, _, _) ->
      match Hashtbl.find_opt t.r_id_to_key rid with
      | None -> None
      | Some key ->
          let okind, oarg = origin_code (table_get t.r_origin rid ~what:"origin for snapshot id") in
          Some
            {
              Log_codec.b_rid = rid;
              b_key = key;
              b_okind = okind;
              b_oarg = oarg;
              b_epoch = subscription_epoch t ~key;
            })
    (Subscription_store.image t.routing).Subscription_store.i_entries

let compact_wal t =
  match t.durable with
  | None -> ()
  | Some log -> Store_log.compact log t.routing ~bindings:(collect_bindings t)

let raise_fence t ~epoch =
  if epoch > t.fence then begin
    t.fence <- epoch;
    match t.durable with
    | Some log -> Store_log.log_fence log ~epoch
    | None -> ()
  end

let default_compact_threshold = 32768

let maybe_compact ?(threshold_bytes = default_compact_threshold) t =
  match t.durable with
  | None -> false
  | Some log ->
      if Store_log.wal_size log > threshold_bytes then begin
        compact_wal t;
        true
      end
      else false
