open Probsub_core
open Probsub_broker

let sub = Subscription.of_bounds

let make_net ?(policy = Subscription_store.Pairwise_policy) topology =
  Network.create ~policy ~topology ~arity:2 ~seed:11 ()

let test_flood_reaches_everyone () =
  let net = make_net (Topology.chain 5) in
  let key = Network.subscribe net ~broker:0 ~client:1 (sub [ (0, 9); (0, 9) ]) in
  Network.run net;
  for b = 0 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "broker %d knows the subscription" b)
      true
      (Broker_node.knows_subscription (Network.broker net b) ~key)
  done;
  (* A tree topology floods each subscription over each link exactly
     once: 4 messages on a 5-chain. *)
  Alcotest.(check int) "subscribe messages" 4
    (Network.metrics net).Metrics.subscribe_msgs

let test_delivery_end_to_end () =
  let net = make_net (Topology.chain 4) in
  let key = Network.subscribe net ~broker:0 ~client:7 (sub [ (0, 9); (0, 9) ]) in
  Network.run net;
  ignore (Network.publish net ~broker:3 (Publication.of_list [ 5; 5 ]));
  Network.run net;
  (match Network.notifications net with
  | [ n ] ->
      Alcotest.(check int) "delivered at subscriber's broker" 0 n.Network.broker;
      Alcotest.(check int) "to the right client" 7 n.Network.client;
      Alcotest.(check int) "for the right subscription" key n.Network.sub_key;
      (* The flood itself took 3 time units, the publication 3 more. *)
      Alcotest.(check (float 1e-9)) "3 hops after the flood" 6.0
        n.Network.time
  | l -> Alcotest.failf "expected 1 notification, got %d" (List.length l));
  (* Publication forwarded along the reverse path only: 3 hops. *)
  Alcotest.(check int) "publish messages" 3
    (Network.metrics net).Metrics.publish_msgs

let test_no_match_no_forward () =
  let net = make_net (Topology.chain 4) in
  ignore (Network.subscribe net ~broker:0 ~client:1 (sub [ (0, 9); (0, 9) ]));
  Network.run net;
  ignore (Network.publish net ~broker:3 (Publication.of_list [ 50; 50 ]));
  Network.run net;
  Alcotest.(check int) "nothing forwarded" 0
    (Network.metrics net).Metrics.publish_msgs;
  Alcotest.(check (list (pair (pair int int) int))) "nobody notified" []
    (List.map
       (fun n -> ((n.Network.broker, n.Network.client), n.Network.pub_id))
       (Network.notifications net))

let test_covering_suppression_fig1 () =
  (* The paper's walk-through: B4 withholds s2 from B5 and B7, but
     forwards it to B3. *)
  let net = make_net Topology.fig1 in
  let s1 = sub [ (0, 100); (0, 100) ] in
  let s2 = sub [ (20, 40); (20, 40) ] in
  ignore (Network.subscribe net ~broker:0 ~client:1 s1);
  Network.run net;
  let base = (Network.metrics net).Metrics.subscribe_msgs in
  Alcotest.(check int) "s1 floods all 8 links" 8 base;
  ignore (Network.subscribe net ~broker:5 ~client:2 s2);
  Network.run net;
  let b4 = Network.broker net 3 in
  Alcotest.(check int) "B4->B5 suppressed" 1
    (Broker_node.suppressed_towards b4 ~neighbor:4);
  Alcotest.(check int) "B4->B7 suppressed" 1
    (Broker_node.suppressed_towards b4 ~neighbor:6);
  (* Towards B3 only s2 was ever offered (s1 *came from* B3), and it
     was sent. *)
  Alcotest.(check int) "B4->B3 forwarded" 1
    (Broker_node.active_towards b4 ~neighbor:2);
  (* s2's flood stops where s1 already went: B6->B4, B4->B3, B3->B1
     (B3->B2 is covered too... s1 went to B2 from B3, so suppressed). *)
  let s2_msgs = (Network.metrics net).Metrics.subscribe_msgs - base in
  Alcotest.(check int) "s2 needs only 3 messages" 3 s2_msgs

let test_fig1_deliveries () =
  let net = make_net Topology.fig1 in
  let s1 = sub [ (0, 100); (0, 100) ] in
  let s2 = sub [ (20, 40); (20, 40) ] in
  ignore (Network.subscribe net ~broker:0 ~client:1 s1);
  ignore (Network.subscribe net ~broker:5 ~client:2 s2);
  Network.run net;
  (* n1 matches both; published by P1 at B9. *)
  ignore (Network.publish net ~broker:8 (Publication.of_list [ 30; 30 ]));
  Network.run net;
  let recipients pub_id =
    List.sort compare
      (List.filter_map
         (fun n ->
           if n.Network.pub_id = pub_id then
             Some (n.Network.broker, n.Network.client)
           else None)
         (Network.notifications net))
  in
  Alcotest.(check (list (pair int int))) "n1 reaches S1 and S2"
    [ (0, 1); (5, 2) ] (recipients 0);
  (* n2 matches s1 only; published by P2 at B5. *)
  ignore (Network.publish net ~broker:4 (Publication.of_list [ 80; 80 ]));
  Network.run net;
  Alcotest.(check (list (pair int int))) "n2 reaches S1 only" [ (0, 1) ]
    (recipients 1)

let test_cycle_duplicate_suppression () =
  let net = make_net (Topology.ring 6) in
  ignore (Network.subscribe net ~broker:0 ~client:1 (sub [ (0, 9); (0, 9) ]));
  Network.run net;
  (* The flood goes both ways around the ring and meets; duplicates are
     dropped, not re-forwarded forever. *)
  Alcotest.(check bool) "flood terminates with some duplicates" true
    ((Network.metrics net).Metrics.duplicate_drops >= 1);
  ignore (Network.publish net ~broker:3 (Publication.of_list [ 1; 1 ]));
  Network.run net;
  let notes = Network.notifications net in
  Alcotest.(check int) "delivered exactly once" 1 (List.length notes)

let test_unsubscribe_promotion () =
  let net = make_net (Topology.chain 3) in
  let big = Network.subscribe net ~broker:0 ~client:1 (sub [ (0, 100); (0, 100) ]) in
  Network.run net;
  let small = Network.subscribe net ~broker:0 ~client:2 (sub [ (10, 20); (10, 20) ]) in
  Network.run net;
  (* The small one was covered: only the big one crossed the links. *)
  let b0 = Network.broker net 0 in
  Alcotest.(check int) "one active towards neighbour" 1
    (Broker_node.active_towards b0 ~neighbor:1);
  Alcotest.(check int) "one suppressed" 1
    (Broker_node.suppressed_towards b0 ~neighbor:1);
  (* Unsubscribe the coverer: the small subscription must be promoted
     and (re)sent so remote publications still reach client 2. *)
  Network.unsubscribe net ~broker:0 ~key:big;
  Network.run net;
  Alcotest.(check int) "small one promoted and sent" 1
    (Broker_node.active_towards b0 ~neighbor:1);
  ignore (Network.publish net ~broker:2 (Publication.of_list [ 15; 15 ]));
  Network.run net;
  (match Network.notifications net with
  | [ n ] ->
      Alcotest.(check int) "promoted subscription delivers" 2 n.Network.client;
      Alcotest.(check int) "under its key" small n.Network.sub_key
  | l -> Alcotest.failf "expected 1 notification, got %d" (List.length l));
  (* And the old subscription no longer exists anywhere. *)
  Alcotest.(check bool) "big one forgotten" false
    (Broker_node.knows_subscription (Network.broker net 2) ~key:big)

let test_unsubscribe_validation () =
  let net = make_net (Topology.chain 2) in
  let key = Network.subscribe net ~broker:0 ~client:1 (sub [ (0, 9); (0, 9) ]) in
  Network.run net;
  Alcotest.check_raises "wrong broker"
    (Invalid_argument "Network.unsubscribe: key issued at another broker")
    (fun () -> Network.unsubscribe net ~broker:1 ~key);
  Alcotest.check_raises "unknown key"
    (Invalid_argument "Network.unsubscribe: unknown key") (fun () ->
      Network.unsubscribe net ~broker:0 ~key:999)

let test_no_loss_without_group_policy () =
  (* Randomized: under flooding and pairwise policies, every expected
     recipient is notified — coverage must be lossless. *)
  List.iter
    (fun policy ->
      let rng = Prng.of_int 21 in
      let topo = Topology.random_connected rng ~n:12 ~extra_edges:4 in
      let net = make_net ~policy topo in
      for i = 1 to 60 do
        let lo1 = Prng.int rng 50 and lo2 = Prng.int rng 50 in
        ignore
          (Network.subscribe net ~broker:(i mod 12) ~client:i
             (sub
                [
                  (lo1, lo1 + 5 + Prng.int rng 30);
                  (lo2, lo2 + 5 + Prng.int rng 30);
                ]))
      done;
      Network.run net;
      for _ = 1 to 40 do
        let p = Publication.of_list [ Prng.int rng 90; Prng.int rng 90 ] in
        let expected =
          List.sort compare
            (List.map
               (fun (b, c, k) -> (b, c, k))
               (Network.expected_recipients net p))
        in
        let before = Network.notifications net in
        ignore (Network.publish net ~broker:(Prng.int rng 12) p);
        Network.run net;
        let after = Network.notifications net in
        let fresh =
          List.filteri (fun i _ -> i >= List.length before) after
          |> List.map (fun n ->
                 (n.Network.broker, n.Network.client, n.Network.sub_key))
          |> List.sort compare
        in
        Alcotest.(check (list (triple int int int))) "lossless delivery"
          expected fresh
      done)
    [ Subscription_store.No_coverage; Subscription_store.Pairwise_policy ]

let test_chain_model_analytic () =
  (* Eq. 2 sanity: error 0 gives the no-loss ceiling; error 1 gives
     just the local term rho; monotone in delta. *)
  let ceiling = Chain_model.analytic ~n:10 ~rho:0.1 ~per_check_error:0.0 in
  Alcotest.(check (float 1e-9)) "ceiling = 1-(1-rho)^n"
    (1.0 -. (0.9 ** 10.0))
    ceiling;
  Alcotest.(check (float 1e-9)) "total error leaves only the local term" 0.1
    (Chain_model.analytic ~n:10 ~rho:0.1 ~per_check_error:1.0);
  Alcotest.(check bool) "monotone" true
    (Chain_model.analytic ~n:10 ~rho:0.1 ~per_check_error:0.01
    > Chain_model.analytic ~n:10 ~rho:0.1 ~per_check_error:0.5);
  Alcotest.check_raises "rho validated"
    (Invalid_argument "Chain_model.analytic: rho outside [0, 1]") (fun () ->
      ignore (Chain_model.analytic ~n:5 ~rho:1.5 ~per_check_error:0.0))

let test_chain_model_simulation () =
  let rng = Prng.of_int 5 in
  let r =
    Chain_model.simulate rng ~n_brokers:8 ~rho:0.15 ~m:4 ~k:12
      ~gap_fraction:0.03 ~delta:0.05 ~trials:400
  in
  Alcotest.(check int) "trials recorded" 400 r.Chain_model.trials;
  Alcotest.(check bool) "measured is a probability" true
    (r.Chain_model.measured >= 0.0 && r.Chain_model.measured <= 1.0);
  Alcotest.(check bool) "reach within the chain" true
    (r.Chain_model.mean_reach >= 1.0 && r.Chain_model.mean_reach <= 8.0);
  (* The measured rate should be in the neighbourhood of the bound. *)
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f vs analytic %.3f" r.Chain_model.measured
       r.Chain_model.analytic)
    true
    (Float.abs (r.Chain_model.measured -. r.Chain_model.analytic) < 0.12)

(* Bit-identity pin. A seeded churn stream (§6.4 comparison-stream
   subscriptions plus a topic attribute, under the group policy, with
   one neighbour) runs through a durable broker, with lease sweeps,
   refreshes, a compaction and a crash/restart from the WAL along the
   way. Every action and the final WAL and snapshot bytes feed one
   digest: a change to the stores' internals that moves a placement, a
   coverer list, a promotion order or a journal byte changes it. *)
let churn_digest () =
  let module Device = Probsub_store_log.Device in
  let module Sim_file = Probsub_store_log.Sim_file in
  let module Wire = Probsub_server.Wire in
  let module Scenario = Probsub_workload.Scenario in
  let topics = 12 and arity = 6 in
  let policy =
    Subscription_store.Group_policy
      (Engine.config ~delta:1e-4 ~max_iterations:5_000 ())
  in
  let device, wal, snapshot = Device.in_memory () in
  let node =
    Broker_node.create ~device ~lease_ttl:40.0 ~id:0 ~neighbors:[ 1 ] ~policy
      ~arity ~seed:7 ()
  in
  let rng = Prng.of_int 2024 in
  let out = Buffer.create 65536 in
  let record actions =
    List.iter
      (function
        | Broker_node.Forward { to_; payload } ->
            Buffer.add_string out (Printf.sprintf "F%d:" to_);
            Buffer.add_string out (Wire.encode (Wire.Payload payload))
        | Broker_node.Notify { client; key; pub_id } ->
            Buffer.add_string out (Printf.sprintf "N%d,%d,%d;" client key pub_id))
      actions
  in
  let live = ref [||] and next_key = ref 1 and next_pub = ref 1 in
  let new_sub () =
    match Scenario.comparison_stream rng ~m:(arity - 1) ~n:1 with
    | [ s ] ->
        Subscription.make
          (Array.append (Subscription.ranges s)
             [| Interval.point (Prng.int rng topics) |])
    | _ -> Alcotest.fail "comparison_stream returned no subscription"
  in
  let publication sub =
    let hi = Scenario.domain_width - 1 in
    Publication.point
      (Array.init arity (fun j ->
           let r = Subscription.range sub j in
           let lo = max 0 (Interval.lo r) and hi' = min hi (Interval.hi r) in
           if lo <= hi' then Prng.int_in rng ~lo ~hi:hi'
           else Prng.in_interval rng r))
  in
  let subscribe () =
    let key = !next_key in
    incr next_key;
    let sub = new_sub () in
    live := Array.append !live [| (key, sub, 0) |];
    Message.Subscribe { key; sub; epoch = 0 }
  in
  let table = 280 in
  for step = 0 to 1_399 do
    let now = 0.1 *. float_of_int step in
    let n = Array.length !live in
    let payload =
      if step < table || n = 0 then subscribe ()
      else
        match Prng.int rng 10 with
        | 0 | 1 | 2 ->
            let _, sub, _ = !live.(Prng.int rng n) in
            incr next_pub;
            Message.Publish { id = !next_pub; pub = publication sub }
        | 3 ->
            (* Lease refresh: the same key at a higher epoch. *)
            let i = Prng.int rng n in
            let key, sub, epoch = !live.(i) in
            !live.(i) <- (key, sub, epoch + 1);
            Message.Subscribe { key; sub; epoch = epoch + 1 }
        | _ ->
            if Prng.int rng (n + table) < n then begin
              let i = Prng.int rng n in
              let key, _, _ = !live.(i) in
              live :=
                Array.of_list
                  (List.filteri (fun j _ -> j <> i) (Array.to_list !live));
              Message.Unsubscribe { key }
            end
            else subscribe ()
    in
    record (Broker_node.handle node ~now ~origin:(Message.Client 3) payload);
    if step mod 97 = 96 then begin
      let reclaimed, actions = Broker_node.sweep node ~now in
      Buffer.add_string out (Printf.sprintf "S%d;" reclaimed);
      record actions
    end;
    if step = 700 then Broker_node.compact_wal node;
    if step = 1_000 then Broker_node.restart node
  done;
  Buffer.add_string out (Sim_file.contents wal);
  Buffer.add_string out (Sim_file.contents snapshot);
  Digest.to_hex (Digest.string (Buffer.contents out))

let test_churn_digest_pinned () =
  Alcotest.(check string) "actions + WAL digest"
    "dd0e11b2cc4af56226a64b1b5157ad77" (churn_digest ())

let suite =
  [
    Alcotest.test_case "flood reaches everyone" `Quick test_flood_reaches_everyone;
    Alcotest.test_case "end-to-end delivery" `Quick test_delivery_end_to_end;
    Alcotest.test_case "no match, no forward" `Quick test_no_match_no_forward;
    Alcotest.test_case "Fig. 1 covering suppression" `Quick
      test_covering_suppression_fig1;
    Alcotest.test_case "Fig. 1 deliveries" `Quick test_fig1_deliveries;
    Alcotest.test_case "cycles: duplicate suppression" `Quick
      test_cycle_duplicate_suppression;
    Alcotest.test_case "unsubscription promotes" `Quick
      test_unsubscribe_promotion;
    Alcotest.test_case "unsubscribe validation" `Quick
      test_unsubscribe_validation;
    Alcotest.test_case "lossless under deterministic policies" `Slow
      test_no_loss_without_group_policy;
    Alcotest.test_case "Eq. 2 analytic" `Quick test_chain_model_analytic;
    Alcotest.test_case "chain simulation" `Slow test_chain_model_simulation;
    Alcotest.test_case "churn actions and WAL bytes pinned" `Quick
      test_churn_digest_pinned;
  ]
