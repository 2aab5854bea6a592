open Probsub_broker

let test_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  let order = ref [] in
  Event_queue.drain q ~f:(fun ~time:_ e -> order := e :: !order);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_fifo_ties () =
  let q = Event_queue.create () in
  for i = 1 to 100 do
    Event_queue.push q ~time:5.0 i
  done;
  let out = ref [] in
  Event_queue.drain q ~f:(fun ~time:_ e -> out := e :: !out);
  Alcotest.(check (list int)) "ties in insertion order"
    (List.init 100 (fun i -> i + 1))
    (List.rev !out)

let test_peek_size () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option (float 0.0))) "no peek" None (Event_queue.peek_time q);
  Event_queue.push q ~time:2.5 ();
  Event_queue.push q ~time:1.5 ();
  Alcotest.(check int) "size" 2 (Event_queue.size q);
  Alcotest.(check (option (float 1e-9))) "peek min" (Some 1.5)
    (Event_queue.peek_time q);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "size after pop" 1 (Event_queue.size q)

let test_pop_empty () =
  let q : unit Event_queue.t = Event_queue.create () in
  Alcotest.(check bool) "pop empty" true (Option.is_none (Event_queue.pop q))

let test_validation () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_queue.push: bad time") (fun () ->
      Event_queue.push q ~time:(-1.0) ());
  Alcotest.check_raises "nan time"
    (Invalid_argument "Event_queue.push: bad time") (fun () ->
      Event_queue.push q ~time:Float.nan ())

let test_drain_reentrant () =
  (* Events pushed during the drain are processed too, in order. *)
  let q = Event_queue.create () in
  Event_queue.push q ~time:1.0 1;
  let seen = ref [] in
  Event_queue.drain q ~f:(fun ~time e ->
      seen := e :: !seen;
      if e < 4 then Event_queue.push q ~time:(time +. 1.0) (e + 1));
  Alcotest.(check (list int)) "cascade processed" [ 1; 2; 3; 4 ]
    (List.rev !seen)

let test_heap_stress () =
  (* Random pushes/pops preserve the heap order invariant. *)
  let rng = Probsub_core.Prng.of_int 9 in
  let q = Event_queue.create () in
  let last = ref neg_infinity in
  for _ = 1 to 10_000 do
    if Probsub_core.Prng.float rng < 0.6 || Event_queue.is_empty q then
      Event_queue.push q
        ~time:(Probsub_core.Prng.float rng *. 100.0)
        ()
    else
      match Event_queue.pop q with
      | Some (t, ()) ->
          (* Monotone only between consecutive pops without pushes in
             between; instead check against peek. *)
          ignore t
      | None -> ()
  done;
  (* Final drain must be sorted. *)
  last := neg_infinity;
  Event_queue.drain q ~f:(fun ~time () ->
      Alcotest.(check bool) "drain sorted" true (time >= !last);
      last := time)

let test_cancel () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1.0 "a";
  let h = Event_queue.push_cancelable q ~time:2.0 "b" in
  Event_queue.push q ~time:3.0 "c";
  Alcotest.(check int) "size before cancel" 3 (Event_queue.size q);
  Alcotest.(check bool) "cancel succeeds" true (Event_queue.cancel q h);
  Alcotest.(check int) "size excludes cancelled" 2 (Event_queue.size q);
  Alcotest.(check bool) "double cancel fails" false (Event_queue.cancel q h);
  let out = ref [] in
  Event_queue.drain q ~f:(fun ~time:_ e -> out := e :: !out);
  Alcotest.(check (list string)) "cancelled never pops" [ "a"; "c" ]
    (List.rev !out)

let test_cancel_at_top () =
  (* A cancelled event sitting at the heap top is skimmed, so peek and
     pop look straight past it. *)
  let q = Event_queue.create () in
  let h = Event_queue.push_cancelable q ~time:1.0 "dead" in
  Event_queue.push q ~time:2.0 "live";
  Alcotest.(check bool) "cancelled" true (Event_queue.cancel q h);
  Alcotest.(check (option (float 1e-9))) "peek skips cancelled" (Some 2.0)
    (Event_queue.peek_time q);
  Alcotest.(check (option (pair (float 1e-9) string))) "pop skips cancelled"
    (Some (2.0, "live"))
    (Event_queue.pop q);
  Alcotest.(check bool) "now empty" true (Event_queue.is_empty q)

let test_cancel_after_fire () =
  let q = Event_queue.create () in
  let h = Event_queue.push_cancelable q ~time:1.0 () in
  ignore (Event_queue.pop q);
  Alcotest.(check bool) "cancel after pop fails" false (Event_queue.cancel q h)

let test_cancel_empty_all () =
  let q = Event_queue.create () in
  let hs = List.init 50 (fun i -> Event_queue.push_cancelable q ~time:(float_of_int i) i) in
  List.iter (fun h -> ignore (Event_queue.cancel q h)) hs;
  Alcotest.(check int) "all cancelled" 0 (Event_queue.size q);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check bool) "pop none" true (Option.is_none (Event_queue.pop q))

(* Acked retransmit timers are cancelled long before their deadline;
   the queue must not keep their payloads alive until then. *)
let test_cancelled_unreachable () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1.0 (Bytes.make 8 'l');
  let n = 10_000 in
  let tracked = Weak.create n in
  let handles =
    List.init n (fun i ->
        let payload = Bytes.make 64 'c' in
        Weak.set tracked i (Some payload);
        Event_queue.push_cancelable q ~time:(1e6 +. float_of_int i) payload)
  in
  List.iter (fun h -> ignore (Event_queue.cancel q h)) handles;
  Gc.full_major ();
  let reachable = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check tracked i then incr reachable
  done;
  (* At most as many cancelled cells as live ones survive a sweep. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d cancelled payloads still reachable" !reachable)
    true (!reachable <= 1);
  Alcotest.(check int) "one live event" 1 (Event_queue.size q);
  Alcotest.(check (option (pair (float 0.0) string))) "it still pops"
    (Some (1.0, "llllllll"))
    (Option.map (fun (t, b) -> (t, Bytes.to_string b)) (Event_queue.pop q));
  Alcotest.(check bool) "then empty" true (Event_queue.is_empty q)

(* Model-based property: drain order equals a stable sort by time of
   the insertion sequence. Times are drawn from a tiny set so ties are
   the common case, exercising FIFO tie-breaking hard. *)
let prop_fifo_model =
  QCheck.Test.make ~count:300 ~name:"drain is a stable sort by time"
    QCheck.(list (int_bound 5))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri
        (fun i ti -> Event_queue.push q ~time:(float_of_int ti) (ti, i))
        times;
      let out = ref [] in
      Event_queue.drain q ~f:(fun ~time:_ e -> out := e :: !out);
      let model =
        List.stable_sort
          (fun (ta, _) (tb, _) -> compare ta tb)
          (List.mapi (fun i ti -> (ti, i)) times)
      in
      List.rev !out = model)

(* Cancellation against a model: cancel a pseudo-random subset, drain,
   and expect exactly the survivors in stable time order. *)
let prop_cancel_model =
  QCheck.Test.make ~count:300 ~name:"cancelled events never surface"
    QCheck.(pair small_int (list (pair (int_bound 5) bool)))
    (fun (_salt, spec) ->
      let q = Event_queue.create () in
      let handles =
        List.mapi
          (fun i (ti, dead) ->
            (Event_queue.push_cancelable q ~time:(float_of_int ti) (ti, i), dead))
          spec
      in
      List.iter (fun (h, dead) -> if dead then ignore (Event_queue.cancel q h)) handles;
      let out = ref [] in
      Event_queue.drain q ~f:(fun ~time:_ e -> out := e :: !out);
      let model =
        List.stable_sort
          (fun (ta, _) (tb, _) -> compare ta tb)
          (List.filteri
             (fun i _ -> not (snd (List.nth spec i)))
             (List.mapi (fun i (ti, _) -> (ti, i)) spec))
      in
      List.rev !out = model)

let suite =
  [
    Alcotest.test_case "time ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO ties" `Quick test_fifo_ties;
    Alcotest.test_case "peek and size" `Quick test_peek_size;
    Alcotest.test_case "pop empty" `Quick test_pop_empty;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "re-entrant drain" `Quick test_drain_reentrant;
    Alcotest.test_case "heap stress" `Quick test_heap_stress;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "cancel at heap top" `Quick test_cancel_at_top;
    Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
    Alcotest.test_case "cancel everything" `Quick test_cancel_empty_all;
    Alcotest.test_case "cancelled timers become unreachable" `Quick
      test_cancelled_unreachable;
    QCheck_alcotest.to_alcotest prop_fifo_model;
    QCheck_alcotest.to_alcotest prop_cancel_model;
  ]
