open Probsub_core

let sub = Subscription.of_bounds

let test_basic () =
  let t = Counting_matcher.create ~arity:2 () in
  Counting_matcher.add t ~id:1 (sub [ (0, 10); (0, 10) ]);
  Counting_matcher.add t ~id:2 (sub [ (5, 15); (0, 10) ]);
  Alcotest.(check int) "size" 2 (Counting_matcher.size t);
  Alcotest.(check (list int)) "both match" [ 1; 2 ]
    (Counting_matcher.match_point t [| 7; 3 |]);
  Alcotest.(check (list int)) "only first" [ 1 ]
    (Counting_matcher.match_point t [| 2; 3 |]);
  Alcotest.(check (list int)) "none" [] (Counting_matcher.match_point t [| 20; 3 |])

let test_unconstrained_attributes () =
  let t = Counting_matcher.create ~arity:3 () in
  (* Only attribute 1 constrained. *)
  Counting_matcher.add t ~id:7
    (Subscription.of_list [ Interval.full; Interval.make ~lo:5 ~hi:9; Interval.full ]);
  Alcotest.(check (list int)) "matches on the single constraint" [ 7 ]
    (Counting_matcher.match_point t [| 123456; 7; -99 |]);
  Alcotest.(check (list int)) "fails on the single constraint" []
    (Counting_matcher.match_point t [| 0; 10; 0 |]);
  (* Fully unconstrained subscription matches everything. *)
  Counting_matcher.add t ~id:8
    (Subscription.of_list [ Interval.full; Interval.full; Interval.full ]);
  Alcotest.(check (list int)) "catch-all matches" [ 7; 8 ]
    (Counting_matcher.match_point t [| 0; 6; 0 |])

let test_add_remove () =
  let t = Counting_matcher.create ~arity:1 () in
  Counting_matcher.add t ~id:1 (sub [ (0, 5) ]);
  Counting_matcher.add t ~id:2 (sub [ (3, 9) ]);
  Alcotest.(check (list int)) "both" [ 1; 2 ] (Counting_matcher.match_point t [| 4 |]);
  Counting_matcher.remove t ~id:1;
  Alcotest.(check (list int)) "one left" [ 2 ]
    (Counting_matcher.match_point t [| 4 |]);
  Alcotest.(check bool) "mem" true (Counting_matcher.mem t ~id:2);
  Alcotest.(check bool) "not mem" false (Counting_matcher.mem t ~id:1);
  Alcotest.check_raises "remove unknown" Not_found (fun () ->
      Counting_matcher.remove t ~id:1);
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Counting_matcher.add: duplicate id") (fun () ->
      Counting_matcher.add t ~id:2 (sub [ (0, 1) ]))

let test_box_publication () =
  let t = Counting_matcher.create ~arity:2 () in
  Counting_matcher.add t ~id:1 (sub [ (0, 10); (0, 10) ]);
  Counting_matcher.add t ~id:2 (sub [ (4, 6); (4, 6) ]);
  let inside = Publication.box (sub [ (1, 3); (1, 3) ]) in
  Alcotest.(check (list int)) "box needs containment" [ 1 ]
    (Counting_matcher.match_publication t inside);
  let straddling = Publication.box (sub [ (5, 12); (5, 6) ]) in
  Alcotest.(check (list int)) "straddling box matches nothing" []
    (Counting_matcher.match_publication t straddling)

let test_against_naive () =
  let rng = Prng.of_int 23 in
  let arity = 4 in
  let t = Counting_matcher.create ~arity () in
  let subs = Hashtbl.create 32 in
  let next = ref 0 in
  for round = 1 to 400 do
    (* Random mutation. *)
    if Prng.float rng < 0.7 || Hashtbl.length subs = 0 then begin
      let s =
        Subscription.of_list
          (List.init arity (fun _ ->
               if Prng.float rng < 0.3 then Interval.full
               else
                 let lo = Prng.int rng 100 in
                 Interval.make ~lo ~hi:(lo + Prng.int rng 40)))
      in
      incr next;
      Hashtbl.replace subs !next s;
      Counting_matcher.add t ~id:!next s
    end
    else begin
      let ids = Hashtbl.fold (fun id _ acc -> id :: acc) subs [] in
      let id = List.nth ids (Prng.int rng (List.length ids)) in
      Hashtbl.remove subs id;
      Counting_matcher.remove t ~id
    end;
    (* Random probe every few rounds. *)
    if round mod 3 = 0 then begin
      let p = Array.init arity (fun _ -> Prng.int rng 150) in
      let naive =
        Hashtbl.fold
          (fun id s acc ->
            if Subscription.covers_point s p then id :: acc else acc)
          subs []
        |> List.sort Int.compare
      in
      Alcotest.(check (list int)) "agrees with naive matching" naive
        (Counting_matcher.match_point t p)
    end
  done

let test_arity_checks () =
  let t = Counting_matcher.create ~arity:2 () in
  Alcotest.check_raises "add arity"
    (Invalid_argument "Counting_matcher.add: arity mismatch") (fun () ->
      Counting_matcher.add t ~id:1 (sub [ (0, 1) ]));
  Alcotest.check_raises "match arity"
    (Invalid_argument "Counting_matcher.match_point: arity mismatch")
    (fun () -> ignore (Counting_matcher.match_point t [| 1 |]));
  Alcotest.check_raises "create arity"
    (Invalid_argument "Counting_matcher.create: arity < 1") (fun () ->
      ignore (Counting_matcher.create ~arity:0 ()))

(* The match path reads flat arrays only: a matcher built in one pass,
   with live, retired and pending entries in every index, matches point
   and box publications without allocating. Each publication runs once
   first, so the hit buffer has reached its size. *)
let test_match_allocates_nothing () =
  List.iter
    (fun arity ->
      let rng = Prng.of_int (31 + arity) in
      let range () =
        if Prng.int rng 4 = 0 then Interval.full
        else
          let lo = Prng.int rng 1000 in
          Interval.make ~lo ~hi:(lo + Prng.int rng 400)
      in
      let random_sub () =
        Subscription.of_list (List.init arity (fun _ -> range ()))
      in
      let n = 2000 in
      let t =
        Counting_matcher.build ~arity (Array.init n Fun.id)
          (Array.init n (fun _ -> random_sub ()))
          ~len:n
      in
      for id = 0 to 99 do
        Counting_matcher.remove t ~id
      done;
      for id = n to n + 49 do
        Counting_matcher.add t ~id (random_sub ())
      done;
      let points =
        Array.init 50 (fun _ ->
            Publication.point (Array.init arity (fun _ -> Prng.int rng 1200)))
      in
      let boxes =
        Array.init 50 (fun _ ->
            Publication.box
              (Subscription.of_list
                 (List.init arity (fun _ ->
                      let lo = Prng.int rng 1200 in
                      Interval.make ~lo ~hi:(lo + Prng.int rng 20)))))
      in
      let hits = ref 0 in
      let f _ = incr hits in
      let words_per_pub pubs =
        Array.iter (fun p -> Counting_matcher.iter_matches t p ~f) pubs;
        let calls = 2000 in
        let before = Gc.minor_words () in
        for i = 0 to calls - 1 do
          Counting_matcher.iter_matches t pubs.(i mod Array.length pubs) ~f
        done;
        let words = Gc.minor_words () -. before in
        int_of_float (words /. float_of_int calls)
      in
      Alcotest.(check int)
        (Printf.sprintf "minor words per point publication, arity %d" arity)
        0 (words_per_pub points);
      Alcotest.(check int)
        (Printf.sprintf "minor words per box publication, arity %d" arity)
        0 (words_per_pub boxes);
      Alcotest.(check bool) "publications matched" true (!hits > 0))
    [ 4; 11 ]

let suite =
  [
    Alcotest.test_case "basic counting" `Quick test_basic;
    Alcotest.test_case "unconstrained attributes" `Quick
      test_unconstrained_attributes;
    Alcotest.test_case "add/remove with lazy rebuild" `Quick test_add_remove;
    Alcotest.test_case "box publications" `Quick test_box_publication;
    Alcotest.test_case "randomized vs naive" `Quick test_against_naive;
    Alcotest.test_case "arity validation" `Quick test_arity_checks;
    Alcotest.test_case "matching allocates nothing" `Quick
      test_match_allocates_nothing;
  ]
