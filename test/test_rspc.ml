open Probsub_core

let sub = Subscription.of_bounds

let test_random_point_in_s () =
  let rng = Prng.of_int 1 in
  let s = sub [ (10, 20); (-5, 5); (0, 0) ] in
  for _ = 1 to 1_000 do
    let p = Rspc.random_point ~rng s in
    Alcotest.(check bool) "inside s" true (Subscription.covers_point s p)
  done

let test_escapes () =
  let subs = [| sub [ (0, 4) ]; sub [ (6, 9) ] |] in
  Alcotest.(check bool) "5 escapes" true (Rspc.escapes [| 5 |] subs);
  Alcotest.(check bool) "4 caught" false (Rspc.escapes [| 4 |] subs);
  Alcotest.(check bool) "everything escapes the empty set" true
    (Rspc.escapes [| 4 |] [||])

let test_definite_no_is_sound () =
  (* Whenever RSPC answers Not_covered, the returned point must be a
     real witness. *)
  let rng = Prng.of_int 2 in
  let s = sub [ (0, 99); (0, 99) ] in
  let subs = [| sub [ (0, 49); (0, 99) ]; sub [ (50, 99); (0, 49) ] |] in
  match (Rspc.run ~rng ~d:10_000 ~s subs).Rspc.outcome with
  | Rspc.Not_covered p ->
      Alcotest.(check bool) "in s" true (Subscription.covers_point s p);
      Alcotest.(check bool) "escapes all" true (Rspc.escapes p subs)
  | Rspc.Probably_covered ->
      Alcotest.fail "a quarter of s is uncovered; 10000 draws must hit it"

let test_covered_always_yes () =
  (* A truly covered s can never produce a witness. *)
  let rng = Prng.of_int 3 in
  let s = sub [ (10, 20); (10, 20) ] in
  let subs = [| sub [ (0, 15); (0, 99) ]; sub [ (14, 99); (0, 99) ] |] in
  let run = Rspc.run ~rng ~d:5_000 ~s subs in
  (match run.Rspc.outcome with
  | Rspc.Probably_covered -> ()
  | Rspc.Not_covered _ -> Alcotest.fail "covered: no witness can exist");
  Alcotest.(check int) "all iterations used" 5_000 run.Rspc.iterations

let test_zero_budget () =
  let rng = Prng.of_int 4 in
  let s = sub [ (0, 9) ] in
  let run = Rspc.run ~rng ~d:0 ~s [| sub [ (0, 0) ] |] in
  (match run.Rspc.outcome with
  | Rspc.Probably_covered -> ()
  | Rspc.Not_covered _ -> Alcotest.fail "no draws, no witness");
  Alcotest.(check int) "zero iterations" 0 run.Rspc.iterations;
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Rspc.run: negative trial budget") (fun () ->
      ignore (Rspc.run ~rng ~d:(-1) ~s [||]));
  Alcotest.check_raises "packed arity mismatch rejected"
    (Invalid_argument "Rspc.run: arity mismatch") (fun () ->
      ignore
        (Rspc.run_packed ~rng ~d:1
           ~sbox:(Flat.box_of_sub (sub [ (0, 9); (0, 9) ]))
           (Flat.pack ~m:1 [| s |])))

let test_early_exit () =
  (* With nothing covering s, the very first draw is a witness. *)
  let rng = Prng.of_int 5 in
  let s = sub [ (0, 9) ] in
  let run = Rspc.run ~rng ~d:1_000 ~s [||] in
  Alcotest.(check int) "stops at one iteration" 1 run.Rspc.iterations;
  match run.Rspc.outcome with
  | Rspc.Not_covered _ -> ()
  | Rspc.Probably_covered -> Alcotest.fail "empty set never covers"

let test_error_rate_matches_theory () =
  (* Fixed uncovered fraction rho = 0.1, budget d chosen for delta =
     0.25: over many runs the observed false-YES rate must be near
     (1-rho)^d and certainly below ~2x the bound. *)
  let rho = 0.1 in
  let delta = 0.25 in
  let d = int_of_float (Rho.d_of_rho ~rho ~delta) in
  let s = sub [ (0, 999) ] in
  let subs = [| sub [ (0, 899) ] |] in
  let rng = Prng.of_int 6 in
  let runs = 2_000 in
  let false_yes = ref 0 in
  for _ = 1 to runs do
    match (Rspc.run ~rng ~d ~s subs).Rspc.outcome with
    | Rspc.Probably_covered -> incr false_yes
    | Rspc.Not_covered _ -> ()
  done;
  let rate = float_of_int !false_yes /. float_of_int runs in
  let bound = (1.0 -. rho) ** float_of_int d in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f <= 2 * bound %.3f" rate bound)
    true
    (rate <= (2.0 *. bound) +. 0.02)

let test_iterations_geometric () =
  (* Expected trials to find a witness with rho = 0.5 is 2. *)
  let s = sub [ (0, 9) ] in
  let subs = [| sub [ (0, 4) ] |] in
  let rng = Prng.of_int 7 in
  let total = ref 0 in
  let runs = 5_000 in
  for _ = 1 to runs do
    total := !total + (Rspc.run ~rng ~d:1_000 ~s subs).Rspc.iterations
  done;
  let mean = float_of_int !total /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f near 2" mean)
    true
    (Float.abs (mean -. 2.0) < 0.15)

let suite =
  [
    Alcotest.test_case "random points stay in s" `Quick test_random_point_in_s;
    Alcotest.test_case "escape predicate" `Quick test_escapes;
    Alcotest.test_case "definite NO is sound" `Quick test_definite_no_is_sound;
    Alcotest.test_case "covered always YES" `Quick test_covered_always_yes;
    Alcotest.test_case "zero budget" `Quick test_zero_budget;
    Alcotest.test_case "early exit on witness" `Quick test_early_exit;
    Alcotest.test_case "error rate matches Eq. 1" `Slow
      test_error_rate_matches_theory;
    Alcotest.test_case "geometric trial count" `Slow test_iterations_geometric;
  ]
