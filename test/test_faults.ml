open Probsub_core
open Probsub_broker

let sub lo hi = Subscription.of_bounds [ (lo, hi) ]
let pub x = Publication.of_list [ x ]

(* ------------------------------------------------------------------ *)
(* Fault_plan unit behaviour *)

let test_plan_validation () =
  let bad f = Alcotest.check_raises "rejected" (Invalid_argument f) in
  bad "Fault_plan.create: drop outside [0, 1]" (fun () ->
      ignore (Fault_plan.create ~drop:1.5 ~seed:1 ()));
  bad "Fault_plan.create: duplicate outside [0, 1]" (fun () ->
      ignore (Fault_plan.create ~duplicate:(-0.1) ~seed:1 ()));
  bad "Fault_plan.create: negative jitter" (fun () ->
      ignore (Fault_plan.create ~jitter:(-1.0) ~seed:1 ()));
  bad "Fault_plan.create: bad crash window" (fun () ->
      ignore (Fault_plan.create ~crashes:[ (0, 5.0, 5.0) ] ~seed:1 ()));
  bad "Fault_plan.create: bad active window" (fun () ->
      ignore (Fault_plan.create ~active_from:3.0 ~active_until:2.0 ~seed:1 ()))

let test_plan_extremes () =
  let always_drop = Fault_plan.create ~drop:1.0 ~seed:4 () in
  for _ = 1 to 50 do
    Alcotest.(check (list (float 0.0)))
      "drop 1.0 loses everything" []
      (Fault_plan.transmit always_drop ~src:0 ~dst:1 ~now:1.0)
  done;
  let always_dup = Fault_plan.create ~duplicate:1.0 ~seed:4 () in
  for _ = 1 to 50 do
    Alcotest.(check int) "duplicate 1.0 doubles" 2
      (List.length (Fault_plan.transmit always_dup ~src:0 ~dst:1 ~now:1.0))
  done;
  let jittery = Fault_plan.create ~jitter:2.0 ~seed:4 () in
  for _ = 1 to 50 do
    List.iter
      (fun off ->
        Alcotest.(check bool) "jitter within bound" true
          (off >= 0.0 && off < 2.0))
      (Fault_plan.transmit jittery ~src:0 ~dst:1 ~now:1.0)
  done

let test_plan_active_window () =
  let plan =
    Fault_plan.create ~drop:1.0 ~active_from:10.0 ~active_until:20.0 ~seed:2 ()
  in
  let delivered now =
    Fault_plan.transmit plan ~src:0 ~dst:1 ~now <> []
  in
  Alcotest.(check bool) "before window: perfect" true (delivered 9.9);
  Alcotest.(check bool) "inside window: dropped" false (delivered 10.0);
  Alcotest.(check bool) "still inside" false (delivered 19.9);
  Alcotest.(check bool) "after window: perfect" true (delivered 20.0)

let test_plan_determinism () =
  let mk () =
    Fault_plan.create ~drop:0.3 ~duplicate:0.3 ~jitter:1.0 ~seed:77 ()
  in
  let a = mk () and b = mk () in
  for i = 0 to 199 do
    let now = float_of_int i in
    Alcotest.(check (list (float 0.0)))
      "same seed, same fate"
      (Fault_plan.transmit a ~src:(i mod 3) ~dst:((i + 1) mod 3) ~now)
      (Fault_plan.transmit b ~src:(i mod 3) ~dst:((i + 1) mod 3) ~now)
  done

let test_plan_link_override_and_down () =
  let plan =
    Fault_plan.create
      ~links:[ ((0, 1), { Fault_plan.drop = 1.0; duplicate = 0.0; jitter = 0.0 }) ]
      ~crashes:[ (2, 5.0, 8.0) ]
      ~seed:6 ()
  in
  Alcotest.(check (list (float 0.0)))
    "overridden direction drops" []
    (Fault_plan.transmit plan ~src:0 ~dst:1 ~now:0.0);
  Alcotest.(check (list (float 0.0)))
    "reverse direction untouched" [ 0.0 ]
    (Fault_plan.transmit plan ~src:1 ~dst:0 ~now:0.0);
  Alcotest.(check bool) "up before" false (Fault_plan.is_down plan ~broker:2 ~now:4.9);
  Alcotest.(check bool) "down inside" true (Fault_plan.is_down plan ~broker:2 ~now:5.0);
  Alcotest.(check bool) "up after" false (Fault_plan.is_down plan ~broker:2 ~now:8.0);
  Alcotest.(check bool) "others unaffected" false
    (Fault_plan.is_down plan ~broker:1 ~now:6.0)

(* ------------------------------------------------------------------ *)
(* Dedup window bounds *)

let test_dedup_window () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Dedup_window.create: capacity < 1") (fun () ->
      ignore (Dedup_window.create ~capacity:0));
  let w = Dedup_window.create ~capacity:3 in
  List.iter (fun i -> Dedup_window.add w i) [ 1; 2; 3 ];
  Alcotest.(check int) "full" 3 (Dedup_window.size w);
  Dedup_window.add w 4;
  Alcotest.(check int) "stays bounded" 3 (Dedup_window.size w);
  Alcotest.(check bool) "oldest evicted" false (Dedup_window.mem w 1);
  Alcotest.(check bool) "rest kept" true
    (Dedup_window.mem w 2 && Dedup_window.mem w 3 && Dedup_window.mem w 4);
  Dedup_window.add w 2;
  Alcotest.(check int) "re-add is a no-op" 3 (Dedup_window.size w);
  Alcotest.(check bool) "no eviction on re-add" true (Dedup_window.mem w 3);
  Dedup_window.clear w;
  Alcotest.(check int) "cleared" 0 (Dedup_window.size w);
  Alcotest.(check bool) "forgotten" false (Dedup_window.mem w 2)

let test_dedup_window_stress () =
  (* Memory stays bounded no matter how many ids stream through, and
     membership is exact for the trailing window. *)
  let cap = 64 in
  let w = Dedup_window.create ~capacity:cap in
  for i = 0 to 9_999 do
    Dedup_window.add w i;
    Alcotest.(check bool) "capacity bound holds" true
      (Dedup_window.size w <= cap)
  done;
  for i = 10_000 - cap to 9_999 do
    Alcotest.(check bool) "trailing window present" true (Dedup_window.mem w i)
  done;
  Alcotest.(check bool) "older ids evicted" false
    (Dedup_window.mem w (10_000 - cap - 1))

let test_broker_dedup_bounded () =
  (* A broker's publication dedup window forgets old ids once the
     window rolls over: dedup is a bounded cache, not unbounded
     history. *)
  let node =
    Broker_node.create ~dedup_capacity:2 ~id:0 ~neighbors:[]
      ~policy:Subscription_store.Pairwise_policy ~arity:1 ~seed:1 ()
  in
  let deliver payload =
    Broker_node.handle node ~now:0.0 ~origin:(Message.Client 1) payload
  in
  ignore (deliver (Message.Subscribe { key = 0; sub = sub 0 99; epoch = 0 }));
  let publish id = deliver (Message.Publish { id; pub = pub 5 }) in
  Alcotest.(check int) "first copy notifies" 1 (List.length (publish 7));
  Alcotest.(check int) "duplicate dropped" 0 (List.length (publish 7));
  ignore (publish 8);
  ignore (publish 9);
  (* id 7 has been evicted from the 2-slot window. *)
  Alcotest.(check int) "evicted id treated as fresh" 1
    (List.length (publish 7))

(* ------------------------------------------------------------------ *)
(* Zero-fault bit-identical regression *)

let scenario net =
  let s b c lo hi =
    ignore (Network.subscribe net ~broker:b ~client:c (sub lo hi))
  in
  s 0 1 0 40;
  s 4 2 20 80;
  Network.run net;
  ignore (Network.publish net ~broker:2 (pub 30));
  Network.run net;
  s 3 3 0 99;
  Network.run net;
  ignore (Network.publish net ~broker:0 (pub 85));
  ignore (Network.publish net ~broker:4 (pub 10));
  Network.run net

let test_zero_plan_bit_identical () =
  let make fault_plan =
    let net =
      Network.create ?fault_plan ~topology:(Topology.chain 5) ~arity:1 ~seed:7
        ()
    in
    scenario net;
    net
  in
  let plain = make None in
  let zero = make (Some Fault_plan.zero) in
  (* A plan with no faulty profile holds no generator either. *)
  let faultless = make (Some (Fault_plan.create ~seed:12345 ())) in
  List.iter
    (fun other ->
      Alcotest.(check bool) "identical metrics" true
        (Metrics.equal (Network.metrics plain) (Network.metrics other));
      Alcotest.(check bool) "identical notifications" true
        (Network.notifications plain = Network.notifications other);
      Alcotest.(check (float 0.0)) "identical clock" (Network.now plain)
        (Network.now other))
    [ zero; faultless ];
  let m = Network.metrics plain in
  Alcotest.(check int) "no acks without recovery" 0 m.Metrics.ack_msgs;
  Alcotest.(check int) "nothing dropped" 0 m.Metrics.dropped_msgs;
  Alcotest.(check int) "nothing duplicated" 0 m.Metrics.duplicated_msgs

(* ------------------------------------------------------------------ *)
(* run vs run_until: maintenance stays parked *)

let test_run_leaves_maintenance_queued () =
  let net =
    Network.create ~recovery:Network.default_recovery
      ~topology:(Topology.chain 2) ~arity:1 ~seed:3 ()
  in
  ignore (Network.subscribe net ~broker:0 ~client:1 (sub 0 9));
  Network.run net;
  let m = Network.metrics net in
  Alcotest.(check int) "run fires no refresh" 0 m.Metrics.lease_renewals;
  Alcotest.(check bool) "clock stays early" true
    (Network.now net < Network.default_recovery.Network.refresh_interval);
  Network.run_until net ~time:35.0;
  Alcotest.(check bool) "run_until ticks refreshes" true
    (m.Metrics.lease_renewals >= 3);
  Alcotest.(check (float 0.0)) "clock advanced" 35.0 (Network.now net)

(* ------------------------------------------------------------------ *)
(* Lost unsubscribe: retry cap, then lease expiry self-heals *)

let test_lost_unsubscribe_self_heals () =
  let plan =
    Fault_plan.create
      ~links:
        [ ((0, 1), { Fault_plan.drop = 1.0; duplicate = 0.0; jitter = 0.0 }) ]
      ~active_from:5.0 ~active_until:20.0 ~seed:3 ()
  in
  let recovery =
    { Network.lease_ttl = 8.0; refresh_interval = 3.0; rto = 1.0; max_retries = 3 }
  in
  let net =
    Network.create ~fault_plan:plan ~recovery ~topology:(Topology.chain 3)
      ~arity:1 ~seed:3 ()
  in
  let key = Network.subscribe net ~broker:0 ~client:9 (sub 0 50) in
  Network.run net;
  Alcotest.(check bool) "installed downstream" true
    (Broker_node.knows_subscription (Network.broker net 2) ~key);
  Network.run_until net ~time:6.0;
  (* The unsubscribe's only route out of broker 0 is now black-holed;
     every retransmission will be eaten too. *)
  Network.unsubscribe net ~broker:0 ~key;
  Network.run_until net ~time:40.0;
  Network.run net;
  let m = Network.metrics net in
  Alcotest.(check bool) "retransmissions attempted" true
    (m.Metrics.retransmissions >= 3);
  Alcotest.(check bool) "drops recorded" true (m.Metrics.dropped_msgs >= 4);
  Alcotest.(check bool) "stale leases reclaimed" true
    (m.Metrics.lease_expiries > 0);
  Alcotest.(check bool) "broker 1 healed" false
    (Broker_node.knows_subscription (Network.broker net 1) ~key);
  Alcotest.(check bool) "broker 2 healed" false
    (Broker_node.knows_subscription (Network.broker net 2) ~key);
  (* A probe matching the dead subscription reaches nobody. *)
  let audit = Audit.create () in
  let p = pub 10 in
  let pid = Network.publish net ~broker:2 p in
  Audit.expect audit net ~pub_id:pid p;
  Network.run net;
  let report = Audit.report audit net in
  Alcotest.(check bool) "clean" true (Audit.is_clean report);
  Alcotest.(check int) "no deliveries owed" 0 report.Audit.expected;
  Alcotest.(check int) "none made" 0 report.Audit.delivered

(* ------------------------------------------------------------------ *)
(* Crash and restart: refresh waves repopulate lost soft state *)

let test_crash_restart_recovery () =
  let plan = Fault_plan.create ~crashes:[ (1, 10.0, 15.0) ] ~seed:5 () in
  let recovery =
    { Network.lease_ttl = 12.0; refresh_interval = 4.0; rto = 1.0; max_retries = 4 }
  in
  let net =
    Network.create ~fault_plan:plan ~recovery ~topology:(Topology.chain 3)
      ~arity:1 ~seed:5 ()
  in
  let key = Network.subscribe net ~broker:2 ~client:7 (sub 0 50) in
  Network.run net;
  Alcotest.(check bool) "installed across the chain" true
    (Broker_node.knows_subscription (Network.broker net 0) ~key);
  Network.run_until net ~time:12.0;
  Alcotest.(check bool) "down inside the window" true (Network.broker_down net 1);
  Network.run_until net ~time:30.0;
  Network.run net;
  Alcotest.(check bool) "back up" false (Network.broker_down net 1);
  let m = Network.metrics net in
  Alcotest.(check int) "one crash" 1 m.Metrics.crashes;
  Alcotest.(check bool) "in-flight messages were discarded" true
    (m.Metrics.dropped_msgs > 0);
  Alcotest.(check bool) "reinstalled at the restarted broker" true
    (Broker_node.knows_subscription (Network.broker net 1) ~key);
  (* A probe from the far side must traverse the restarted broker. *)
  let audit = Audit.create () in
  let p = pub 25 in
  let pid = Network.publish net ~broker:0 p in
  Audit.expect audit net ~pub_id:pid p;
  Network.run net;
  let report = Audit.report audit net in
  if not (Audit.is_clean report) then
    Alcotest.failf "audit not clean:@.%a" Audit.pp report;
  Alcotest.(check int) "delivered exactly once" 1 report.Audit.delivered

(* ------------------------------------------------------------------ *)
(* Pure duplication + jitter era: dedup keeps delivery exactly-once *)

let test_duplication_era_lossless () =
  let plan = Fault_plan.create ~duplicate:0.6 ~jitter:1.0 ~seed:11 () in
  let net =
    Network.create ~fault_plan:plan ~recovery:Network.default_recovery
      ~topology:(Topology.star 5) ~arity:1 ~seed:11 ()
  in
  List.iter
    (fun b -> ignore (Network.subscribe net ~broker:b ~client:(10 + b) (sub 0 99)))
    [ 1; 2; 3; 4 ];
  Network.run net;
  let audit = Audit.create () in
  List.iteri
    (fun i b ->
      let p = pub (10 * (i + 1)) in
      let pid = Network.publish net ~broker:b p in
      Audit.expect audit net ~pub_id:pid p;
      Network.run net)
    [ 0; 2; 4 ];
  let report = Audit.report audit net in
  if not (Audit.is_clean report) then
    Alcotest.failf "audit not clean:@.%a" Audit.pp report;
  let m = Network.metrics net in
  Alcotest.(check bool) "duplicates injected" true
    (m.Metrics.duplicated_msgs > 0);
  Alcotest.(check bool) "duplicates suppressed" true
    (m.Metrics.duplicate_drops > 0);
  Alcotest.(check int) "every expected delivery made exactly once"
    report.Audit.expected report.Audit.delivered

(* ------------------------------------------------------------------ *)
(* Negative control: without recovery, loss really loses deliveries *)

let test_without_recovery_audit_catches_loss () =
  let plan =
    Fault_plan.create
      ~links:
        [ ((0, 1), { Fault_plan.drop = 1.0; duplicate = 0.0; jitter = 0.0 }) ]
      ~active_until:10.0 ~seed:8 ()
  in
  let net =
    Network.create ~fault_plan:plan ~topology:(Topology.chain 3) ~arity:1
      ~seed:8 ()
  in
  ignore (Network.subscribe net ~broker:0 ~client:1 (sub 0 50));
  Network.run net;
  Network.run_until net ~time:12.0;
  let audit = Audit.create () in
  let p = pub 10 in
  let pid = Network.publish net ~broker:2 p in
  Audit.expect audit net ~pub_id:pid p;
  Network.run net;
  let report = Audit.report audit net in
  Alcotest.(check bool) "oracle flags the loss" false (Audit.is_clean report);
  Alcotest.(check int) "one missed delivery" 1 (List.length report.Audit.missed);
  Alcotest.(check int) "nothing delivered" 0 report.Audit.delivered

let test_crash_window_outside_topology_rejected () =
  let plan = Fault_plan.create ~crashes:[ (9, 1.0, 2.0) ] ~seed:1 () in
  Alcotest.check_raises "unknown broker"
    (Invalid_argument "Network.create: crash window names an unknown broker")
    (fun () ->
      ignore
        (Network.create ~fault_plan:plan ~topology:(Topology.chain 2) ~arity:1
           ~seed:1 ()))

(* ------------------------------------------------------------------ *)
(* Full chaos: drops + duplicates + jitter + a crash, churn throughout,
   then convergence certified by the audit oracle. *)

let chaos ?(durable = false) ~topology ~crash_broker ~seed () =
  let n = Topology.size topology in
  let plan =
    Fault_plan.create ~drop:0.2 ~duplicate:0.15 ~jitter:1.5
      ~crashes:[ (crash_broker, 12.0, 22.0) ]
      ~active_until:40.0 ~seed ()
  in
  let recovery =
    { Network.lease_ttl = 30.0; refresh_interval = 10.0; rto = 2.0; max_retries = 6 }
  in
  let devices =
    if durable then
      Some
        (Array.init n (fun _ ->
             let d, _, _ = Probsub_store_log.Device.in_memory () in
             d))
    else None
  in
  let net =
    Network.create ?devices ~fault_plan:plan ~recovery ~topology ~arity:1 ~seed
      ()
  in
  let sub_at b lo hi =
    (b, Network.subscribe net ~broker:b ~client:(100 + b) (sub lo hi))
  in
  (* Churn while the network is faulty: installs, traffic, and an
     unsubscribe whose control messages may all be lost. *)
  let _k0 = sub_at 0 0 30 in
  let _k1 = sub_at (n - 1) 20 60 in
  Network.run_until net ~time:5.0;
  let _k2 = sub_at (n / 2) 10 50 in
  let _, wide = sub_at 1 0 99 in
  Network.run_until net ~time:15.0;
  (* Unaudited best-effort traffic during the era. *)
  ignore (Network.publish net ~broker:(n - 1) (pub 25));
  Network.run_until net ~time:25.0;
  Network.unsubscribe net ~broker:1 ~key:wide;
  Network.run_until net ~time:40.0;
  (* Era over: let refresh waves repair and stale leases drain. *)
  Network.run_until net ~time:110.0;
  Network.run net;
  (* Probe the whole subscription space from several injection points. *)
  let audit = Audit.create () in
  List.iter
    (fun x ->
      List.iter
        (fun b ->
          let p = pub x in
          let pid = Network.publish net ~broker:b p in
          Audit.expect audit net ~pub_id:pid p)
        [ 0; n / 2; n - 1 ])
    [ 5; 25; 45; 70; 95 ];
  Network.run net;
  let report = Audit.report audit net in
  if not (Audit.is_clean report) then
    Alcotest.failf "audit not clean:@.%a" Audit.pp report;
  Alcotest.(check bool) "probes had recipients" true (report.Audit.expected > 0);
  let m = Network.metrics net in
  Alcotest.(check int) "crash fired" 1 m.Metrics.crashes;
  Alcotest.(check bool) "faults actually bit" true
    (m.Metrics.dropped_msgs > 0 && m.Metrics.duplicated_msgs > 0);
  Alcotest.(check bool) "channel did repair work" true
    (m.Metrics.retransmissions > 0);
  Alcotest.(check bool) "leases were renewed" true
    (m.Metrics.lease_renewals > 0);
  Alcotest.(check bool) "acks flowed" true (m.Metrics.ack_msgs > 0)

(* ------------------------------------------------------------------ *)
(* Durable restart: a broker that crashes inside the window comes back
   from its WAL instead of empty. The probe fires before the first
   refresh wave, so nothing but the WAL can have repaired the restarted
   broker's routing table — the empty restart must miss the delivery,
   the durable one must not. *)

let durable_restart_report ~durable () =
  let plan = Fault_plan.create ~crashes:[ (1, 5.0, 20.5) ] ~seed:31 () in
  let recovery =
    {
      Network.lease_ttl = 100.0;
      refresh_interval = 60.0;
      rto = 2.0;
      max_retries = 4;
    }
  in
  let devices =
    if durable then
      Some
        (Array.init 3 (fun _ ->
             let d, _, _ = Probsub_store_log.Device.in_memory () in
             d))
    else None
  in
  let net =
    Network.create ?devices ~fault_plan:plan ~recovery
      ~topology:(Topology.chain 3) ~arity:1 ~seed:31 ()
  in
  ignore (Network.subscribe net ~broker:0 ~client:1 (sub 0 50));
  Network.run net;
  Network.run_until net ~time:21.0;
  Network.run net;
  let audit = Audit.create () in
  let p = pub 25 in
  let pid = Network.publish net ~broker:2 p in
  Audit.expect audit net ~pub_id:pid p;
  Network.run net;
  Audit.report audit net

let test_durable_restart_beats_empty () =
  let durable = durable_restart_report ~durable:true () in
  let empty = durable_restart_report ~durable:false () in
  Alcotest.(check bool) "durable restart is clean" true
    (Audit.is_clean durable);
  Alcotest.(check int) "durable restart misses nothing" 0
    (List.length durable.Audit.missed);
  Alcotest.(check int) "empty restart misses the delivery" 1
    (List.length empty.Audit.missed);
  Alcotest.(check bool) "strictly fewer false negatives when durable" true
    (List.length durable.Audit.missed < List.length empty.Audit.missed)

let test_chaos_chain () = chaos ~topology:(Topology.chain 6) ~crash_broker:3 ~seed:21 ()
let test_chaos_star () = chaos ~topology:(Topology.star 6) ~crash_broker:0 ~seed:22 ()

let test_chaos_tree () =
  chaos ~topology:(Topology.balanced_tree ~branching:2 ~depth:2) ~crash_broker:1
    ~seed:23 ()

(* The same chaos scenario with durable brokers: the restart path now
   goes through WAL recovery (plus the soft-state reset), and the
   audit must stay just as clean. *)
let test_chaos_chain_durable () =
  chaos ~durable:true ~topology:(Topology.chain 6) ~crash_broker:3 ~seed:21 ()

(* qcheck: the window against a list model — the remembered ids,
   newest first, at most [capacity] of them. Capacities 1 to 64, ids
   drawn from a narrow signed range (so repeats, evictions and
   re-admissions interleave) plus the integer extremes, and [clear]. *)
type dedup_op = D_admit of int | D_mem of int | D_clear

let dedup_op_gen =
  QCheck.Gen.(
    let id =
      frequency
        [ (12, int_range (-40) 40); (1, oneofl [ min_int; max_int; 0 ]) ]
    in
    frequency
      [
        (8, map (fun i -> D_admit i) id);
        (4, map (fun i -> D_mem i) id);
        (1, return D_clear);
      ])

let prop_dedup_window_model =
  QCheck.Test.make ~count:300 ~name:"dedup window matches a list model"
    QCheck.(
      make
        ~print:(fun (cap, ops) ->
          Printf.sprintf "capacity %d, %d ops" cap (List.length ops))
        Gen.(pair (int_range 1 64) (list_size (int_range 0 400) dedup_op_gen)))
    (fun (cap, ops) ->
      let w = Dedup_window.create ~capacity:cap in
      let model = ref [] in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | D_admit id ->
                let fresh = not (List.mem id !model) in
                if fresh then
                  model := List.filteri (fun i _ -> i < cap) (id :: !model);
                Dedup_window.admit w id = fresh
            | D_mem id -> Dedup_window.mem w id = List.mem id !model
            | D_clear ->
                model := [];
                Dedup_window.clear w;
                true
          in
          agrees
          && Dedup_window.size w = List.length !model
          && List.for_all (Dedup_window.mem w) !model)
        ops)

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "plan extremes" `Quick test_plan_extremes;
    Alcotest.test_case "plan active window" `Quick test_plan_active_window;
    Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
    Alcotest.test_case "plan link override and crash windows" `Quick
      test_plan_link_override_and_down;
    Alcotest.test_case "dedup window" `Quick test_dedup_window;
    Alcotest.test_case "dedup window stress" `Quick test_dedup_window_stress;
    Alcotest.test_case "broker dedup stays bounded" `Quick
      test_broker_dedup_bounded;
    Alcotest.test_case "zero plan is bit-identical" `Quick
      test_zero_plan_bit_identical;
    Alcotest.test_case "run parks maintenance" `Quick
      test_run_leaves_maintenance_queued;
    Alcotest.test_case "lost unsubscribe self-heals" `Quick
      test_lost_unsubscribe_self_heals;
    Alcotest.test_case "crash/restart recovery" `Quick
      test_crash_restart_recovery;
    Alcotest.test_case "duplication era stays lossless" `Quick
      test_duplication_era_lossless;
    Alcotest.test_case "audit catches loss without recovery" `Quick
      test_without_recovery_audit_catches_loss;
    Alcotest.test_case "crash window validation" `Quick
      test_crash_window_outside_topology_rejected;
    Alcotest.test_case "durable restart beats empty restart" `Quick
      test_durable_restart_beats_empty;
    Alcotest.test_case "chaos on a chain" `Quick test_chaos_chain;
    Alcotest.test_case "chaos on a star" `Quick test_chaos_star;
    Alcotest.test_case "chaos on a tree" `Quick test_chaos_tree;
    Alcotest.test_case "chaos on a durable chain" `Quick
      test_chaos_chain_durable;
    QCheck_alcotest.to_alcotest prop_dedup_window_model;
  ]
