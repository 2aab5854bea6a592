open Probsub_core

let sub = Subscription.of_bounds
let rng () = Prng.of_int 1234

let test_empty_set () =
  let r = Engine.check ~rng:(rng ()) (sub [ (0, 9) ]) [||] in
  (match r.Engine.verdict with
  | Engine.Not_covered Engine.Empty_set -> ()
  | _ -> Alcotest.fail "empty set is a definite NO");
  Alcotest.(check int) "k_initial" 0 r.Engine.k_initial

let test_pairwise_fast_path () =
  let s = sub [ (2, 5); (2, 5) ] in
  let subs = [| sub [ (100, 200); (0, 9) ]; sub [ (0, 9); (0, 9) ] |] in
  let r = Engine.check ~rng:(rng ()) s subs in
  (match r.Engine.verdict with
  | Engine.Covered_pairwise 1 -> ()
  | Engine.Covered_pairwise i -> Alcotest.failf "wrong coverer %d" i
  | _ -> Alcotest.fail "pairwise cover must be detected deterministically");
  Alcotest.(check int) "no RSPC trials" 0 r.Engine.iterations

let test_polyhedron_fast_path () =
  (* Single candidate covering half of s: Corollary 3 fires. *)
  let s = sub [ (0, 9) ] in
  let r = Engine.check ~rng:(rng ()) s [| sub [ (0, 4) ] |] in
  match r.Engine.verdict with
  | Engine.Not_covered (Engine.Polyhedron w) ->
      Alcotest.(check bool) "witness region escapes" true
        (not (Subscription.intersects w.Witness.region (sub [ (0, 4) ])))
  | _ -> Alcotest.fail "Corollary 3 must answer deterministically"

let test_mcs_empty_definite_no () =
  (* Scenario 2.a: nothing intersects s -> MCS empties the candidate
     set -> definite NO with zero RSPC iterations. *)
  let s = sub [ (0, 9); (0, 9) ] in
  let subs = [| sub [ (50, 59); (50, 59) ]; sub [ (70, 79); (0, 9) ] |] in
  let config = Engine.config ~use_fast_decisions:false () in
  let r = Engine.check ~config ~rng:(rng ()) s subs in
  (match r.Engine.verdict with
  | Engine.Not_covered Engine.Empty_set -> ()
  | _ -> Alcotest.fail "MCS must empty the set");
  Alcotest.(check int) "k_reduced = 0" 0 r.Engine.k_reduced;
  Alcotest.(check int) "no trials" 0 r.Engine.iterations

let test_group_cover_probabilistic () =
  let s = sub [ (830, 870); (1003, 1006) ] in
  let subs =
    [| sub [ (820, 850); (1001, 1007) ]; sub [ (840, 880); (1002, 1009) ] |]
  in
  let r = Engine.check ~rng:(rng ()) s subs in
  (match r.Engine.verdict with
  | Engine.Covered_probably -> ()
  | _ -> Alcotest.fail "Table 3 example is group-covered");
  Alcotest.(check bool) "d was computed" true (r.Engine.d_used > 0);
  Alcotest.(check bool) "iterations = d (no witness)" true
    (r.Engine.iterations = r.Engine.d_used);
  match r.Engine.achieved_delta with
  | Some a -> Alcotest.(check bool) "achieved delta <= configured" true (a <= 1e-6 *. 1.001)
  | None -> Alcotest.fail "achieved delta must be reported"

let test_definite_no_sound () =
  (* Random non-covers: when the engine says NO it must agree with the
     exact oracle. *)
  let rng_gen = Prng.of_int 55 in
  for _ = 1 to 40 do
    let s =
      Subscription.of_list
        (List.init 3 (fun _ ->
             let lo = Prng.int rng_gen 20 in
             Interval.make ~lo ~hi:(lo + 5 + Prng.int rng_gen 20)))
    in
    let subs =
      Array.init 6 (fun _ ->
          Subscription.of_list
            (List.init 3 (fun _ ->
                 let lo = Prng.int rng_gen 30 in
                 Interval.make ~lo ~hi:(lo + 5 + Prng.int rng_gen 25))))
    in
    let r = Engine.check ~rng:(rng ()) s subs in
    match r.Engine.verdict with
    | Engine.Not_covered _ ->
        Alcotest.(check bool) "NO verdicts are sound" false
          (Exact.covered s subs)
    | Engine.Covered_pairwise i ->
        Alcotest.(check bool) "pairwise verdicts are sound" true
          (Subscription.covers_sub subs.(i) s)
    | Engine.Covered_probably ->
        (* With delta = 1e-6 this is virtually always right; don't
           assert to avoid a flaky test, the Fig. 12 bench quantifies it. *)
        ()
  done

let test_ablation_no_mcs () =
  (* Without MCS the verdict on a clear-cut case is unchanged, but the
     candidate set stays full. *)
  let s = sub [ (0, 99); (0, 99) ] in
  let subs =
    [|
      sub [ (0, 59); (0, 99) ];
      sub [ (50, 99); (0, 99) ];
      sub [ (500, 600); (500, 600) ];
    |]
  in
  (* Pruning is toggled off too: it would drop the non-intersecting
     third subscription on its own (see test_flat for that stage). *)
  let config =
    Engine.config ~use_mcs:false ~use_fast_decisions:false ~use_pruning:false
      ()
  in
  let r = Engine.check ~config ~rng:(rng ()) s subs in
  Alcotest.(check int) "set not reduced" 3 r.Engine.k_reduced;
  Alcotest.(check bool) "still covered" true (Engine.is_covered r.Engine.verdict);
  let config' = Engine.config ~use_fast_decisions:false () in
  let r' = Engine.check ~config:config' ~rng:(rng ()) s subs in
  Alcotest.(check bool) "MCS shrinks the set" true (r'.Engine.k_reduced < 3)

let test_max_iterations_cap () =
  (* Covered case with a tiny rho estimate: the cap must bound the
     work and be reflected in achieved_delta. *)
  let s = sub [ (0, 999); (0, 999) ] in
  let subs = [| sub [ (0, 500); (0, 999) ]; sub [ (500, 999); (0, 999) ] |] in
  let config = Engine.config ~delta:1e-10 ~max_iterations:50 () in
  let r = Engine.check ~config ~rng:(rng ()) s subs in
  Alcotest.(check bool) "d capped" true (r.Engine.d_used <= 50);
  Alcotest.(check bool) "iterations bounded" true (r.Engine.iterations <= 50)

let test_theoretical_d () =
  let s = sub [ (0, 999) ] in
  let subs = [| sub [ (0, 989) ] |] in
  (* rho = 0.01 -> d = ln(1e-6)/ln(0.99) ~ 1375 -> log10 ~ 3.14 *)
  let l = Engine.theoretical_log10_d ~use_mcs:false ~delta:1e-6 s subs in
  Alcotest.(check (float 0.01)) "log10 d" 3.138 l;
  Alcotest.(check bool) "empty set: -inf" true
    (Engine.theoretical_log10_d ~delta:1e-6 s [||] = neg_infinity)

let test_config_validation () =
  Alcotest.check_raises "delta 0 rejected"
    (Invalid_argument "Engine.config: delta must lie in (0, 1)") (fun () ->
      ignore (Engine.config ~delta:0.0 ()));
  Alcotest.check_raises "delta 1 rejected"
    (Invalid_argument "Engine.config: delta must lie in (0, 1)") (fun () ->
      ignore (Engine.config ~delta:1.0 ()));
  Alcotest.check_raises "max_iterations 0 rejected"
    (Invalid_argument "Engine.config: max_iterations must be >= 1") (fun () ->
      ignore (Engine.config ~max_iterations:0 ()))

let test_determinism () =
  let s = sub [ (830, 870); (1003, 1006) ] in
  let subs =
    [| sub [ (820, 850); (1001, 1007) ]; sub [ (840, 880); (1002, 1009) ] |]
  in
  let r1 = Engine.check ~rng:(Prng.of_int 7) s subs in
  let r2 = Engine.check ~rng:(Prng.of_int 7) s subs in
  Alcotest.(check int) "same seed, same iterations" r1.Engine.iterations
    r2.Engine.iterations;
  Alcotest.(check bool) "same verdict" true
    (Engine.is_covered r1.Engine.verdict = Engine.is_covered r2.Engine.verdict)

let test_check_publication () =
  (* Box publications: covered iff the whole box is inside the union. *)
  let subs = [| sub [ (0, 49); (0, 99) ]; sub [ (50, 99); (0, 99) ] |] in
  let inside = Publication.box (sub [ (20, 70); (10, 90) ]) in
  let sticking_out = Publication.box (sub [ (90, 120); (10, 90) ]) in
  let r1 = Engine.check_publication ~rng:(rng ()) inside subs in
  Alcotest.(check bool) "box inside the union" true
    (Engine.is_covered r1.Engine.verdict);
  let r2 = Engine.check_publication ~rng:(rng ()) sticking_out subs in
  Alcotest.(check bool) "box sticking out" false
    (Engine.is_covered r2.Engine.verdict);
  (* Point publications degenerate to matching. *)
  let p = Publication.of_list [ 10; 10 ] in
  let r3 = Engine.check_publication ~rng:(rng ()) p subs in
  Alcotest.(check bool) "point inside" true (Engine.is_covered r3.Engine.verdict)

let test_pruning_off_reports_full_k () =
  (* With pruning off the identity mapping is symbolic: k_pruned must
     still report the full candidate count, and the verdict must agree
     with the pruned run (pruning is sound). *)
  let s = sub [ (0, 9); (0, 9) ] in
  let subs =
    [|
      sub [ (0, 5); (0, 9) ];
      sub [ (100, 200); (100, 200) ];
      sub [ (4, 9); (0, 9) ];
    |]
  in
  let no_fast = Engine.config ~use_fast_decisions:false () in
  let no_prune =
    Engine.config ~use_fast_decisions:false ~use_pruning:false ()
  in
  let a = Engine.check ~config:no_prune ~rng:(Prng.of_int 9) s subs in
  let b = Engine.check ~config:no_fast ~rng:(Prng.of_int 9) s subs in
  Alcotest.(check int) "k_pruned = k_initial without pruning" 3
    a.Engine.k_pruned;
  Alcotest.(check int) "pruning drops the disjoint row" 2 b.Engine.k_pruned;
  Alcotest.(check bool) "same coverage either way" true
    (Engine.is_covered a.Engine.verdict = Engine.is_covered b.Engine.verdict)

let suite =
  [
    Alcotest.test_case "empty set" `Quick test_empty_set;
    Alcotest.test_case "pairwise fast path" `Quick test_pairwise_fast_path;
    Alcotest.test_case "polyhedron fast path" `Quick test_polyhedron_fast_path;
    Alcotest.test_case "MCS-empty definite NO" `Quick test_mcs_empty_definite_no;
    Alcotest.test_case "group cover (Table 3)" `Quick
      test_group_cover_probabilistic;
    Alcotest.test_case "definite answers sound" `Slow test_definite_no_sound;
    Alcotest.test_case "ablation: no MCS" `Quick test_ablation_no_mcs;
    Alcotest.test_case "iteration cap" `Quick test_max_iterations_cap;
    Alcotest.test_case "theoretical d" `Quick test_theoretical_d;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "box publications" `Quick test_check_publication;
    Alcotest.test_case "pruning off reports full k" `Quick
      test_pruning_off_reports_full_k;
  ]
