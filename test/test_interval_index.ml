open Probsub_core

let iv lo hi = Interval.make ~lo ~hi
let always ~key:_ ~stamp:_ = true

(* Bulk load [(key, interval)] entries the way the counting matcher
   does: append every one, compact once. Keys need not be distinct;
   every entry gets its own stamp. *)
let bulk entries =
  let t = Interval_index.create ~live:always () in
  List.iteri
    (fun stamp (key, r) -> Interval_index.append t ~key ~stamp r)
    entries;
  Interval_index.compact t;
  t

let collect iter =
  let acc = ref [] in
  iter ~f:(fun k -> acc := k :: !acc);
  List.sort Int.compare !acc

let stab t v = collect (Interval_index.iter_stab t v)
let containing t q = collect (Interval_index.iter_containing t q)

let scan_stab entries v =
  List.filter_map (fun (id, r) -> if Interval.mem v r then Some id else None)
    entries
  |> List.sort Int.compare

let scan_containing entries q =
  List.filter_map
    (fun (id, r) -> if Interval.subset q r then Some id else None)
    entries
  |> List.sort Int.compare

let test_empty () =
  let t = bulk [] in
  Alcotest.(check (list int)) "nothing stabs empty" [] (stab t 5);
  Alcotest.(check (list int)) "nothing contains anything" []
    (containing t (iv 0 1));
  Alcotest.(check int) "size" 0 (Interval_index.size t)

let test_basic () =
  let t = bulk [ (1, iv 0 10); (2, iv 5 15); (3, iv 20 30) ] in
  Alcotest.(check int) "size" 3 (Interval_index.size t);
  Alcotest.(check (list int)) "stab 7" [ 1; 2 ] (stab t 7);
  Alcotest.(check (list int)) "stab 0" [ 1 ] (stab t 0);
  Alcotest.(check (list int)) "stab 25" [ 3 ] (stab t 25);
  Alcotest.(check (list int)) "stab 17" [] (stab t 17);
  Alcotest.(check int) "count 7" 2 (List.length (stab t 7))

let test_boundaries () =
  let t = bulk [ (1, iv 5 10) ] in
  Alcotest.(check (list int)) "lo boundary" [ 1 ] (stab t 5);
  Alcotest.(check (list int)) "hi boundary" [ 1 ] (stab t 10);
  Alcotest.(check (list int)) "below" [] (stab t 4);
  Alcotest.(check (list int)) "above" [] (stab t 11)

let test_duplicates_and_points () =
  let t = bulk [ (1, iv 3 3); (1, iv 5 5); (2, iv 0 9) ] in
  Alcotest.(check (list int)) "point interval" [ 1; 2 ] (stab t 3);
  Alcotest.(check (list int)) "same id twice, distinct ranges" [ 1; 2 ]
    (stab t 5)

let random_entries rng ~n =
  List.init n (fun i ->
      let lo = Prng.int rng 1000 in
      (i, iv lo (lo + Prng.int rng 200)))

let test_against_naive () =
  let rng = Prng.of_int 17 in
  for _ = 1 to 30 do
    let entries = random_entries rng ~n:(1 + Prng.int rng 200) in
    let t = bulk entries in
    for _ = 1 to 50 do
      let v = Prng.int rng 1300 in
      Alcotest.(check (list int)) "matches naive scan" (scan_stab entries v)
        (stab t v)
    done
  done

let test_containment_against_naive () =
  (* Box publications match through containment; every node case
     (query left of, right of, and spanning the center) must agree
     with a scan. *)
  let rng = Prng.of_int 29 in
  for _ = 1 to 30 do
    let entries = random_entries rng ~n:(1 + Prng.int rng 150) in
    let t = bulk entries in
    for _ = 1 to 50 do
      let qlo = Prng.int rng 1300 in
      let q = iv qlo (qlo + Prng.int rng 100) in
      Alcotest.(check (list int)) "matches naive containment scan"
        (scan_containing entries q) (containing t q)
    done
  done

let test_nested_intervals () =
  (* Deep nesting stresses the crossing lists. *)
  let t = bulk (List.init 100 (fun i -> (i, iv i (199 - i)))) in
  let count v = List.length (stab t v) in
  Alcotest.(check int) "all nested contain the middle" 100 (count 100);
  Alcotest.(check int) "outermost only" 1 (count 0);
  Alcotest.(check int) "half at 50" 51 (count 50)

(* ------------------------------------------------------------------ *)
(* Mutation: appends, retirements and compaction under the counting
   matcher's slot discipline. *)

(* A reference liveness table: key -> current stamp. An entry is live
   iff its stamp is still the key's current one, which is exactly the
   counting matcher's slot-generation discipline. *)
let mk_live () =
  let tbl = Hashtbl.create 16 in
  let live ~key ~stamp =
    match Hashtbl.find_opt tbl key with
    | Some s -> s = stamp
    | None -> false
  in
  (tbl, live)

let test_dyn_basic () =
  let tbl, live = mk_live () in
  let d = Interval_index.create ~live () in
  Hashtbl.replace tbl 1 10;
  Interval_index.add d ~key:1 ~stamp:10 (iv 0 10);
  Hashtbl.replace tbl 2 11;
  Interval_index.add d ~key:2 ~stamp:11 (iv 5 15);
  Alcotest.(check int) "size" 2 (Interval_index.size d);
  Alcotest.(check (list int)) "stab 7" [ 1; 2 ] (stab d 7);
  Alcotest.(check (list int)) "stab 0" [ 1 ] (stab d 0);
  Alcotest.(check (list int)) "containing [6,9]" [ 1; 2 ]
    (containing d (iv 6 9));
  Alcotest.(check (list int)) "containing [3,12]" []
    (containing d (iv 3 12));
  (* Kill key 1: flip the oracle, note the death. The entry becomes
     invisible immediately, before any compaction. *)
  Hashtbl.remove tbl 1;
  Interval_index.note_dead d;
  Alcotest.(check int) "size after death" 1 (Interval_index.size d);
  Alcotest.(check (list int)) "stab 7 after death" [ 2 ] (stab d 7);
  Interval_index.compact d;
  Alcotest.(check int) "size after compact" 1 (Interval_index.size d);
  Alcotest.(check (list int)) "stab 7 after compact" [ 2 ] (stab d 7)

let test_dyn_stale_stamp () =
  (* Slot reuse: the same key re-added with a newer stamp while its
     dead incarnation still sits in the structure must stab exactly
     once, whichever arrays the two incarnations live in. *)
  let tbl, live = mk_live () in
  let d = Interval_index.create ~live () in
  Hashtbl.replace tbl 7 1;
  Interval_index.add d ~key:7 ~stamp:1 (iv 0 100);
  Hashtbl.remove tbl 7;
  Interval_index.note_dead d;
  Hashtbl.replace tbl 7 2;
  Interval_index.add d ~key:7 ~stamp:2 (iv 50 60);
  Alcotest.(check (list int)) "only the new incarnation" [ 7 ] (stab d 55);
  Alcotest.(check (list int)) "old range no longer stabs" [] (stab d 10);
  Interval_index.compact d;
  Alcotest.(check (list int)) "same after compact" [ 7 ] (stab d 55);
  Alcotest.(check (list int)) "old range gone after compact" [] (stab d 10)

let test_dyn_vs_naive () =
  (* Random add/kill streams large enough to cross the amortised
     compaction thresholds repeatedly; every query must agree with a
     scan of the reference table. *)
  let rng = Prng.of_int 43 in
  let tbl, live = mk_live () in
  let d = Interval_index.create ~live () in
  let ranges = Hashtbl.create 16 in
  let next_stamp = ref 1 in
  let next_key = ref 0 in
  for _ = 1 to 2000 do
    (match Prng.int rng 3 with
    | 0 | 1 ->
        let key =
          (* Mostly fresh keys, sometimes reuse of a dead one. *)
          if Prng.int rng 4 = 0 && !next_key > 0 then Prng.int rng !next_key
          else begin
            incr next_key;
            !next_key - 1
          end
        in
        if Hashtbl.mem tbl key then begin
          (* Key currently live: kill it first (slot churn). *)
          Hashtbl.remove tbl key;
          Hashtbl.remove ranges key;
          Interval_index.note_dead d
        end;
        let stamp = !next_stamp in
        incr next_stamp;
        let lo = Prng.int rng 1000 in
        let r = iv lo (lo + Prng.int rng 120) in
        Hashtbl.replace tbl key stamp;
        Hashtbl.replace ranges key r;
        Interval_index.add d ~key ~stamp r
    | _ ->
        let lives = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
        if lives <> [] then begin
          let k = List.nth lives (Prng.int rng (List.length lives)) in
          Hashtbl.remove tbl k;
          Hashtbl.remove ranges k;
          Interval_index.note_dead d
        end);
    Alcotest.(check int) "size tracks reference" (Hashtbl.length tbl)
      (Interval_index.size d);
    if Prng.int rng 10 = 0 then begin
      let v = Prng.int rng 1200 in
      let naive_stab =
        Hashtbl.fold
          (fun k r acc -> if Interval.mem v r then k :: acc else acc)
          ranges []
        |> List.sort Int.compare
      in
      Alcotest.(check (list int)) "stab vs naive" naive_stab (stab d v);
      let qlo = Prng.int rng 1200 in
      let q = iv qlo (qlo + Prng.int rng 60) in
      let naive_cont =
        Hashtbl.fold
          (fun k r acc -> if Interval.subset q r then k :: acc else acc)
          ranges []
        |> List.sort Int.compare
      in
      Alcotest.(check (list int)) "containing vs naive" naive_cont
        (containing d q)
    end
  done

(* Shapes that put many endpoints on a node's center or starve one
   side of the split. Each is checked compacted, and again with its
   second half left in the pending buffer, at every endpoint, its
   neighbours and each midpoint, by stab and by containment. *)
let test_degenerate_shapes () =
  let shapes =
    [
      ("n = 1", [ iv 5 9 ]);
      ("all equal", List.init 40 (fun _ -> iv 10 20));
      ( "endpoints on the center",
        [ iv 5 5; iv 5 5; iv 0 10; iv 2 8; iv 4 6; iv (-5) 5; iv 5 15;
          iv 1 5; iv 5 9; iv 3 7 ] );
      ( "many points at one value",
        iv 0 3 :: iv 10 12 :: List.init 50 (fun _ -> iv 7 7) );
      ("strictly nested", List.init 50 (fun i -> iv i (99 - i)));
      ("disjoint, sorted", List.init 50 (fun i -> iv (10 * i) ((10 * i) + 5)));
    ]
  in
  List.iter
    (fun (name, ranges) ->
      let entries = List.mapi (fun i r -> (i, r)) ranges in
      let probes =
        List.concat_map
          (fun (_, r) ->
            let lo = Interval.lo r and hi = Interval.hi r in
            [ lo - 1; lo; lo + ((hi - lo) / 2); hi; hi + 1 ])
          entries
        |> List.sort_uniq Int.compare
      in
      let queries =
        List.concat_map (fun v -> [ iv v v; iv v (v + 1); iv v (v + 5) ]) probes
        @ List.map snd entries
      in
      let check tail t =
        let what = if tail then name ^ ", pending tail" else name in
        List.iter
          (fun v ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s: stab %d" what v)
              (scan_stab entries v) (stab t v))
          probes;
        List.iter
          (fun q ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s: containing %s" what (Interval.to_string q))
              (scan_containing entries q) (containing t q))
          queries
      in
      check false (bulk entries);
      let half = List.length entries / 2 in
      let t = bulk (List.filteri (fun i _ -> i < half) entries) in
      List.iteri
        (fun i (key, r) ->
          if i >= half then Interval_index.append t ~key ~stamp:i r)
        entries;
      check true t)
    shapes

(* A midpoint computed as (lo + hi) / 2 wraps once the bounds sum past
   max_int, lands outside the interval, and the build then recurses
   on the same slice forever. *)
let test_extreme_bounds () =
  let entries =
    List.mapi
      (fun i r -> (i, r))
      [
        iv (max_int - 1) max_int;
        iv min_int (min_int + 1);
        iv min_int max_int;
        iv 0 10;
        iv 5 20;
        iv (-100) (-50);
        iv 1000 2000;
      ]
  in
  let t = bulk entries in
  Alcotest.(check int) "size" 7 (Interval_index.size t);
  List.iter
    (fun v ->
      Alcotest.(check (list int))
        (Printf.sprintf "stab %d" v)
        (scan_stab entries v) (stab t v))
    [ min_int; min_int + 1; -75; 0; 7; 15; 1500; max_int - 1; max_int ];
  List.iter
    (fun q ->
      Alcotest.(check (list int))
        (Printf.sprintf "containing %s" (Interval.to_string q))
        (scan_containing entries q) (containing t q))
    [ iv min_int max_int; iv (max_int - 1) max_int; iv min_int 0; iv 6 9 ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "basic stabbing" `Quick test_basic;
    Alcotest.test_case "boundaries inclusive" `Quick test_boundaries;
    Alcotest.test_case "duplicates and points" `Quick test_duplicates_and_points;
    Alcotest.test_case "randomized vs naive" `Quick test_against_naive;
    Alcotest.test_case "containment vs naive" `Quick
      test_containment_against_naive;
    Alcotest.test_case "nested intervals" `Quick test_nested_intervals;
    Alcotest.test_case "dyn basic" `Quick test_dyn_basic;
    Alcotest.test_case "dyn stale stamp on slot reuse" `Quick
      test_dyn_stale_stamp;
    Alcotest.test_case "dyn randomized vs naive" `Quick test_dyn_vs_naive;
    Alcotest.test_case "degenerate shapes vs naive" `Quick
      test_degenerate_shapes;
    Alcotest.test_case "bounds at min_int and max_int" `Quick
      test_extreme_bounds;
  ]
