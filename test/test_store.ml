open Probsub_core

let sub = Subscription.of_bounds

let make ?(policy = Subscription_store.Group_policy Engine.default_config) () =
  Subscription_store.create ~policy ~arity:2 ~seed:77 ()

let test_no_coverage_policy () =
  let t = make ~policy:Subscription_store.No_coverage () in
  let _, p1 = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let _, p2 = Subscription_store.add t (sub [ (2, 3); (2, 3) ]) in
  (match (p1, p2) with
  | Subscription_store.Active, Subscription_store.Active -> ()
  | _ -> Alcotest.fail "flooding stores everything as active");
  Alcotest.(check int) "two active" 2 (Subscription_store.active_count t);
  Alcotest.(check int) "none covered" 0 (Subscription_store.covered_count t)

let test_pairwise_policy () =
  let t = make ~policy:Subscription_store.Pairwise_policy () in
  let id_big, _ = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let _, p = Subscription_store.add t (sub [ (2, 3); (2, 3) ]) in
  (match p with
  | Subscription_store.Covered [ coverer ] ->
      Alcotest.(check int) "covered by the broad one" id_big coverer
  | _ -> Alcotest.fail "pairwise cover expected");
  (* Group-covered but not pairwise-covered subscriptions stay active
     under the pairwise policy. *)
  let _, _ = Subscription_store.add t (sub [ (10, 19); (0, 9) ]) in
  let _, p' = Subscription_store.add t (sub [ (5, 15); (2, 8) ]) in
  match p' with
  | Subscription_store.Active -> ()
  | Subscription_store.Covered _ ->
      Alcotest.fail "pairwise policy cannot detect group coverage"

let test_group_policy () =
  let t = make () in
  let ida, _ = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let idb, _ = Subscription_store.add t (sub [ (10, 19); (0, 9) ]) in
  let _, p = Subscription_store.add t (sub [ (5, 15); (2, 8) ]) in
  match p with
  | Subscription_store.Covered coverers ->
      Alcotest.(check bool) "coverers recorded from the active set" true
        (List.for_all (fun id -> id = ida || id = idb) coverers
        && coverers <> [])
  | Subscription_store.Active -> Alcotest.fail "group cover expected"

let test_remove_active_promotes () =
  let t = make () in
  let id_cover, _ = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let id_small, p = Subscription_store.add t (sub [ (2, 3); (2, 3) ]) in
  (match p with
  | Subscription_store.Covered _ -> ()
  | Subscription_store.Active -> Alcotest.fail "small one lands covered");
  let promoted = Subscription_store.remove t id_cover in
  Alcotest.(check (list int)) "small one promoted" [ id_small ] promoted;
  Alcotest.(check bool) "now active" true
    (Subscription_store.is_active t id_small)

let test_remove_keeps_cover_when_possible () =
  (* Two coverers; removing one leaves the other covering the small
     subscription, so nothing is promoted. *)
  let t = make () in
  let id1, _ = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let _id2, _ = Subscription_store.add t (sub [ (0, 20); (0, 20) ]) in
  (* id2 arrives second: it is NOT covered by id1? It is broader, so it
     stays active; the small one below is covered by both. *)
  let id_small, _ = Subscription_store.add t (sub [ (2, 3); (2, 3) ]) in
  let promoted = Subscription_store.remove t id1 in
  Alcotest.(check (list int)) "still covered by the other" [] promoted;
  Alcotest.(check bool) "small stays covered" false
    (Subscription_store.is_active t id_small)

let test_remove_covered_noop () =
  let t = make () in
  let _, _ = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let id_small, _ = Subscription_store.add t (sub [ (2, 3); (2, 3) ]) in
  let promoted = Subscription_store.remove t id_small in
  Alcotest.(check (list int)) "no promotions" [] promoted;
  Alcotest.(check int) "one left" 1 (Subscription_store.size t)

let test_remove_unknown () =
  let t = make () in
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (Subscription_store.remove t 42))

let test_match_publication_two_level () =
  let t = make () in
  let id_broad, _ = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let id_small, _ = Subscription_store.add t (sub [ (2, 3); (2, 3) ]) in
  (* Publication inside both: both ids reported, covered set scanned. *)
  let hits = Subscription_store.match_publication t (Publication.of_list [ 2; 2 ]) in
  Alcotest.(check (list int)) "both match" [ id_broad; id_small ] hits;
  (* Publication inside the broad one only. *)
  let hits2 = Subscription_store.match_publication t (Publication.of_list [ 8; 8 ]) in
  Alcotest.(check (list int)) "only broad" [ id_broad ] hits2;
  (* Publication outside everything. *)
  let hits3 =
    Subscription_store.match_publication t (Publication.of_list [ 50; 50 ])
  in
  Alcotest.(check (list int)) "no match" [] hits3

let test_match_skips_covered_scan () =
  let t = make () in
  let _ = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let _ = Subscription_store.add t (sub [ (2, 3); (2, 3) ]) in
  let before = (Subscription_store.stats t).Subscription_store.covered_scans in
  ignore (Subscription_store.match_publication t (Publication.of_list [ 50; 50 ]));
  let after = (Subscription_store.stats t).Subscription_store.covered_scans in
  Alcotest.(check int) "covered set untouched on miss" before after;
  ignore (Subscription_store.match_publication t (Publication.of_list [ 2; 2 ]));
  let final = (Subscription_store.stats t).Subscription_store.covered_scans in
  Alcotest.(check bool) "covered set scanned on hit" true (final > after)

let test_exhaustive_match_agrees_without_coverage () =
  (* With No_coverage, two-level matching and exhaustive matching are
     identical. *)
  let t = make ~policy:Subscription_store.No_coverage () in
  let rng = Prng.of_int 31 in
  for _ = 1 to 30 do
    let lo1 = Prng.int rng 20 and lo2 = Prng.int rng 20 in
    ignore
      (Subscription_store.add t
         (sub
            [
              (lo1, lo1 + 3 + Prng.int rng 10); (lo2, lo2 + 3 + Prng.int rng 10);
            ]))
  done;
  for _ = 1 to 100 do
    let p = Publication.of_list [ Prng.int rng 35; Prng.int rng 35 ] in
    Alcotest.(check (list int))
      "two-level = exhaustive"
      (Subscription_store.match_publication_exhaustive t p)
      (Subscription_store.match_publication t p)
  done

let test_algorithm5_soundness_group () =
  (* Under group policy the two-level match may only miss ids when NO
     active subscription matches; on an active hit results must equal
     the exhaustive match. *)
  let t = make () in
  let rng = Prng.of_int 37 in
  for _ = 1 to 40 do
    let lo1 = Prng.int rng 20 and lo2 = Prng.int rng 20 in
    ignore
      (Subscription_store.add t
         (sub
            [
              (lo1, lo1 + 3 + Prng.int rng 12); (lo2, lo2 + 3 + Prng.int rng 12);
            ]))
  done;
  for _ = 1 to 200 do
    let p = Publication.of_list [ Prng.int rng 40; Prng.int rng 40 ] in
    let two_level = Subscription_store.match_publication t p in
    let exhaustive = Subscription_store.match_publication_exhaustive t p in
    let active_hit =
      List.exists (fun id -> Subscription_store.is_active t id) exhaustive
    in
    if active_hit then
      Alcotest.(check (list int)) "hit path complete" exhaustive two_level
    else
      Alcotest.(check (list int)) "miss path returns nothing" [] two_level
  done

let test_multilevel_scans_bounded () =
  (* The multi-level index must test only children of matched actives,
     not the whole covered set. *)
  let t = make () in
  (* Two disjoint regions, each with one coverer and several covered. *)
  let _a, _ = Subscription_store.add t (sub [ (0, 20); (0, 20) ]) in
  let _b, _ = Subscription_store.add t (sub [ (80, 99); (80, 99) ]) in
  for i = 0 to 4 do
    ignore (Subscription_store.add t (sub [ (i, i + 2); (i, i + 2) ]));
    ignore (Subscription_store.add t (sub [ (80 + i, 82 + i); (80 + i, 82 + i) ]))
  done;
  Alcotest.(check int) "ten covered" 10 (Subscription_store.covered_count t);
  let before = (Subscription_store.stats t).Subscription_store.covered_scans in
  (* Hits region A only: at most the 5 children of A are tested. *)
  ignore (Subscription_store.match_publication t (Publication.of_list [ 1; 1 ]));
  let after = (Subscription_store.stats t).Subscription_store.covered_scans in
  Alcotest.(check bool)
    (Printf.sprintf "only one region scanned (%d <= 5)" (after - before))
    true
    (after - before <= 5)

let test_stats () =
  let t = make () in
  let id, _ = Subscription_store.add t (sub [ (0, 9); (0, 9) ]) in
  let _ = Subscription_store.add t (sub [ (2, 3); (2, 3) ]) in
  let _ = Subscription_store.remove t id in
  let s = Subscription_store.stats t in
  Alcotest.(check int) "added" 2 s.Subscription_store.added;
  Alcotest.(check int) "dropped covered" 1 s.Subscription_store.dropped_covered;
  Alcotest.(check int) "removed" 1 s.Subscription_store.removed;
  Alcotest.(check int) "promoted" 1 s.Subscription_store.promoted

let test_arity_guard () =
  let t = make () in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Subscription_store.add: arity mismatch") (fun () ->
      ignore (Subscription_store.add t (sub [ (0, 1) ])))

let suite =
  [
    Alcotest.test_case "no-coverage policy" `Quick test_no_coverage_policy;
    Alcotest.test_case "pairwise policy" `Quick test_pairwise_policy;
    Alcotest.test_case "group policy" `Quick test_group_policy;
    Alcotest.test_case "removal promotes orphans" `Quick
      test_remove_active_promotes;
    Alcotest.test_case "removal keeps remaining cover" `Quick
      test_remove_keeps_cover_when_possible;
    Alcotest.test_case "removing covered is a no-op" `Quick
      test_remove_covered_noop;
    Alcotest.test_case "unknown id" `Quick test_remove_unknown;
    Alcotest.test_case "two-level matching" `Quick
      test_match_publication_two_level;
    Alcotest.test_case "covered scan skipped on miss" `Quick
      test_match_skips_covered_scan;
    Alcotest.test_case "flooding matches exhaustively" `Quick
      test_exhaustive_match_agrees_without_coverage;
    Alcotest.test_case "Algorithm 5 soundness" `Slow
      test_algorithm5_soundness_group;
    Alcotest.test_case "multilevel scan bound" `Quick
      test_multilevel_scans_bounded;
    Alcotest.test_case "stats counters" `Quick test_stats;
    Alcotest.test_case "arity guard" `Quick test_arity_guard;
  ]
