(* Flat-kernel equivalence: the packed SoA kernels must agree with the
   boxed reference implementations bit-for-bit — same answers, same
   draw stream, same witnesses — and the engine's candidate pruning
   must be invisible in every verdict. Workloads mix uniform qcheck
   instances with the paper's §6.4 popularity distributions
   (Probsub_workload.Dist). *)

open Probsub_core
open Probsub_workload

(* ------------------------------------------------------------------ *)
(* Workload: Pareto-centred, normal-width subscriptions (§6.4 shapes),
   scaled so that intersections, covers and misses all occur. *)

let dist_interval rng =
  let centre =
    min 150 (int_of_float (Dist.pareto rng ~scale:20.0 ~shape:1.0))
  in
  let w = Dist.normal_int rng ~mean:40.0 ~stddev:20.0 ~min:1 ~max:120 in
  let lo = max 0 (centre - (w / 2)) in
  Interval.make ~lo ~hi:(lo + w)

let dist_sub rng ~m =
  Subscription.of_list (List.init m (fun _ -> dist_interval rng))

let dist_problem rng ~m ~k =
  let s = dist_sub rng ~m in
  (* Mix in rows derived from s so group covers actually happen: a
     covering split of s plus pure Dist rows that may or may not
     intersect. *)
  let subs =
    Array.init k (fun i ->
        if i < k / 3 then
          Subscription.of_list
            (List.init m (fun j ->
                 let r = Subscription.range s j in
                 let lo = Interval.lo r and hi = Interval.hi r in
                 let mid = (lo + hi) / 2 in
                 if i mod 2 = 0 then Interval.make ~lo:(lo - 1) ~hi:(mid + 1)
                 else Interval.make ~lo:(mid - 1) ~hi:(hi + 1)
                 |> fun iv -> if j mod 2 = 0 then iv else r))
        else dist_sub rng ~m)
  in
  (s, subs)

(* ------------------------------------------------------------------ *)
(* Kernel equivalence: pack accessors, covers, escapes, draw stream. *)

let test_pack_roundtrip () =
  let rng = Prng.of_int 11 in
  for _ = 1 to 50 do
    let m = 1 + Prng.int rng 4 in
    let k = Prng.int rng 12 in
    let subs = Array.init k (fun _ -> dist_sub rng ~m) in
    let packed = Flat.pack ~m subs in
    Alcotest.(check int) "k" k (Flat.k packed);
    Alcotest.(check int) "m" m (Flat.m packed);
    Array.iteri
      (fun i sub ->
        Alcotest.(check bool)
          "row_sub round-trips" true
          (Subscription.equal sub (Flat.row_sub packed i));
        for j = 0 to m - 1 do
          let r = Subscription.range sub j in
          Alcotest.(check int) "lo" (Interval.lo r)
            (Flat.lo packed ~row:i ~attr:j);
          Alcotest.(check int) "hi" (Interval.hi r)
            (Flat.hi packed ~row:i ~attr:j)
        done)
      subs
  done

let test_gather_is_pack_of_subset () =
  let rng = Prng.of_int 12 in
  for _ = 1 to 50 do
    let m = 1 + Prng.int rng 4 in
    let k = 1 + Prng.int rng 12 in
    let subs = Array.init k (fun _ -> dist_sub rng ~m) in
    let packed = Flat.pack ~m subs in
    let rows =
      Array.of_list
        (List.filter (fun _ -> Prng.int rng 2 = 0) (List.init k Fun.id))
    in
    let gathered = Flat.gather packed rows in
    let direct = Flat.pack ~m (Array.map (fun i -> subs.(i)) rows) in
    Alcotest.(check int) "k" (Array.length rows) (Flat.k gathered);
    for i = 0 to Array.length rows - 1 do
      for j = 0 to m - 1 do
        Alcotest.(check int) "lo"
          (Flat.lo direct ~row:i ~attr:j)
          (Flat.lo gathered ~row:i ~attr:j);
        Alcotest.(check int) "hi"
          (Flat.hi direct ~row:i ~attr:j)
          (Flat.hi gathered ~row:i ~attr:j)
      done
    done
  done

let test_kernels_match_boxed () =
  let rng = Prng.of_int 13 in
  for _ = 1 to 100 do
    let m = 1 + Prng.int rng 4 in
    let k = Prng.int rng 10 in
    let s, subs = dist_problem rng ~m ~k in
    let packed = Flat.pack ~m subs in
    let sbox = Flat.box_of_sub s in
    let p = Array.make m 0 in
    for _ = 1 to 20 do
      Flat.random_point_into ~rng sbox p;
      Alcotest.(check bool)
        "escapes agrees with boxed reference"
        (Rspc.escapes p subs) (Flat.escapes packed p);
      Array.iteri
        (fun row sub ->
          Alcotest.(check bool)
            "covers_row agrees with covers_point"
            (Subscription.covers_point sub p)
            (Flat.covers_row packed ~row p))
        subs
    done
  done

let test_draw_stream_identical () =
  (* The packed draw must consume the PRNG exactly like the boxed
     reference: same seed, same points, forever. *)
  let rng_flat = Prng.of_int 14 and rng_boxed = Prng.of_int 14 in
  let gen = Prng.of_int 15 in
  for _ = 1 to 100 do
    let m = 1 + Prng.int gen 5 in
    let s = dist_sub gen ~m in
    let sbox = Flat.box_of_sub s in
    let p = Array.make m 0 in
    Flat.random_point_into ~rng:rng_flat sbox p;
    let q = Rspc.random_point ~rng:rng_boxed s in
    Alcotest.(check (array int)) "same stream" q p
  done

let test_run_packed_matches_boxed_loop () =
  let gen = Prng.of_int 16 in
  for _ = 1 to 60 do
    let m = 1 + Prng.int gen 3 in
    let k = Prng.int gen 8 in
    let s, subs = dist_problem gen ~m ~k in
    let seed = Prng.int gen 1_000_000 in
    let d = 1 + Prng.int gen 200 in
    (* Boxed reference trial loop, spelled out. *)
    let rng = Prng.of_int seed in
    let reference =
      let rec loop i =
        if i >= d then (None, d)
        else
          let p = Rspc.random_point ~rng s in
          if Rspc.escapes p subs then (Some p, i + 1) else loop (i + 1)
      in
      loop 0
    in
    let run = Rspc.run ~rng:(Prng.of_int seed) ~d ~s subs in
    (match (reference, run.Rspc.outcome) with
    | (None, _), Rspc.Probably_covered -> ()
    | (Some p, _), Rspc.Not_covered w ->
        Alcotest.(check (array int)) "same witness" p w
    | (None, _), Rspc.Not_covered _ | (Some _, _), Rspc.Probably_covered ->
        Alcotest.fail "packed and boxed runs disagree");
    Alcotest.(check int) "same iteration count" (snd reference)
      run.Rspc.iterations
  done

(* ------------------------------------------------------------------ *)
(* Pruning agrees with a naive filter. *)

let test_intersecting_rows_brute () =
  let rng = Prng.of_int 17 in
  for _ = 1 to 100 do
    let m = 1 + Prng.int rng 4 in
    let k = Prng.int rng 20 in
    let s, subs = dist_problem rng ~m ~k in
    let packed = Flat.pack ~m subs in
    let sbox = Flat.box_of_sub s in
    let brute =
      Array.of_list
        (List.filter
           (fun i -> Subscription.intersects subs.(i) s)
           (List.init k Fun.id))
    in
    Alcotest.(check (array int)) "scan = brute force" brute
      (Flat.intersecting_rows packed sbox)
  done

(* ------------------------------------------------------------------ *)
(* Growable packs: a view after any run of in-place inserts and
   deletes holds the same bounds as packing the rows afresh, and every
   kernel reads it the same way. *)

let test_rows_view_is_pack () =
  let rng = Prng.of_int 18 in
  for _ = 1 to 60 do
    let m = 1 + Prng.int rng 4 in
    let r = Flat.rows_create ~m in
    let model = ref [||] in
    for _ = 1 to 40 do
      let n = Array.length !model in
      if n > 0 && Prng.int rng 3 = 0 then begin
        let at = Prng.int rng n in
        Flat.rows_delete r ~at;
        model := Array.append (Array.sub !model 0 at)
            (Array.sub !model (at + 1) (n - at - 1))
      end
      else begin
        let at = Prng.int rng (n + 1) in
        let s = dist_sub rng ~m in
        Flat.rows_insert r ~at s;
        model :=
          Array.concat [ Array.sub !model 0 at; [| s |]; Array.sub !model at (n - at) ]
      end;
      let view = Flat.view r and fresh = Flat.pack ~m !model in
      Alcotest.(check bool) "view = pack" true (Flat.equal view fresh);
      let s = dist_sub rng ~m in
      let sbox = Flat.box_of_sub s in
      Alcotest.(check (array int)) "same pruning"
        (Flat.intersecting_rows fresh sbox)
        (Flat.intersecting_rows view sbox);
      let p = Array.make m 0 in
      Flat.random_point_into ~rng sbox p;
      Alcotest.(check bool) "same escape" (Flat.escapes fresh p)
        (Flat.escapes view p);
      if Flat.k view > 0 then begin
        let row = Prng.int rng (Flat.k view) in
        Alcotest.(check bool) "same row" true
          (Subscription.equal (Flat.row_sub fresh row) (Flat.row_sub view row));
        let rows = [| row; 0 |] in
        Alcotest.(check bool) "same gather" true
          (Flat.equal (Flat.gather fresh rows) (Flat.gather view rows))
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Engine: pruning is invisible — identical verdicts AND witnesses. *)

let reason_equal a b =
  match (a, b) with
  | Engine.Empty_set, Engine.Empty_set -> true
  | Engine.Point p, Engine.Point q -> p = q
  | Engine.Polyhedron w, Engine.Polyhedron w' ->
      Subscription.equal w.Witness.region w'.Witness.region
  | (Engine.Empty_set | Engine.Point _ | Engine.Polyhedron _), _ -> false

let verdict_equal a b =
  match (a, b) with
  | Engine.Covered_pairwise i, Engine.Covered_pairwise j -> i = j
  | Engine.Covered_probably, Engine.Covered_probably -> true
  | Engine.Not_covered r, Engine.Not_covered r' -> reason_equal r r'
  | ( ( Engine.Covered_pairwise _ | Engine.Covered_probably
      | Engine.Not_covered _ ),
      _ ) ->
      false

let test_pruned_engine_equivalent () =
  (* Pruning runs first, so with the fast decisions disabled the
     probabilistic tail of the pipeline cannot see it: MCS removes
     every non-intersecting row anyway (its full-range strip cell is
     always conflict-free), so pruning must change nothing observable —
     same verdict, same witness, same reduced set, same trial count. *)
  let gen = Prng.of_int 19 in
  let with_pruning = Engine.config ~use_fast_decisions:false () in
  let without =
    Engine.config ~use_fast_decisions:false ~use_pruning:false ()
  in
  for _ = 1 to 150 do
    let m = 1 + Prng.int gen 3 in
    let k = Prng.int gen 12 in
    let s, subs = dist_problem gen ~m ~k in
    let seed = Prng.int gen 1_000_000 in
    let r1 =
      Engine.check ~config:with_pruning ~rng:(Prng.of_int seed) s subs
    in
    let r2 = Engine.check ~config:without ~rng:(Prng.of_int seed) s subs in
    Alcotest.(check bool)
      "same verdict (incl. witness)" true
      (verdict_equal r1.Engine.verdict r2.Engine.verdict);
    Alcotest.(check int) "same reduced size" r2.Engine.k_reduced
      r1.Engine.k_reduced;
    Alcotest.(check int) "same trial budget" r2.Engine.d_used r1.Engine.d_used;
    Alcotest.(check int) "same iterations" r2.Engine.iterations
      r1.Engine.iterations;
    Alcotest.(check bool) "k_pruned <= k_initial" true
      (r1.Engine.k_pruned <= r1.Engine.k_initial)
  done

let test_pruned_pairwise_invariant () =
  (* With the fast decisions on, pruning the table can only help
     Corollary 3 (removing rows preserves its Hall-style condition),
     but Corollary 1 must be untouched in both directions: an
     all-undefined row is a coverer of s, hence intersects s, hence
     survives the prune in the same relative position. The reported
     row (remapped to the original array) must therefore be identical
     with pruning on or off. *)
  let gen = Prng.of_int 23 in
  let with_pruning = Engine.config () in
  let without = Engine.config ~use_pruning:false () in
  for _ = 1 to 150 do
    let m = 1 + Prng.int gen 3 in
    let k = Prng.int gen 12 in
    let s, subs = dist_problem gen ~m ~k in
    let seed = Prng.int gen 1_000_000 in
    let r1 =
      Engine.check ~config:with_pruning ~rng:(Prng.of_int seed) s subs
    in
    let r2 = Engine.check ~config:without ~rng:(Prng.of_int seed) s subs in
    let pairwise r =
      match r.Engine.verdict with
      | Engine.Covered_pairwise i -> Some i
      | Engine.Covered_probably | Engine.Not_covered _ -> None
    in
    Alcotest.(check (option int))
      "pairwise verdicts identical under pruning" (pairwise r2) (pairwise r1)
  done

let test_pruned_engine_sound () =
  (* Small instances against the exact oracle: pruning never makes a
     definite NO wrong. *)
  let gen = Prng.of_int 20 in
  for _ = 1 to 60 do
    let m = 1 + Prng.int gen 2 in
    let k = Prng.int gen 6 in
    let s, subs = dist_problem gen ~m ~k in
    let r = Engine.check ~rng:(Prng.of_int 99) s subs in
    match r.Engine.verdict with
    | Engine.Not_covered _ ->
        Alcotest.(check bool) "NO is sound under pruning" false
          (Exact.covered s subs)
    | Engine.Covered_pairwise i ->
        Alcotest.(check bool) "pairwise YES is sound" true
          (Subscription.covers_sub subs.(i) s)
    | Engine.Covered_probably -> ()
  done

let test_engine_deterministic () =
  let gen = Prng.of_int 21 in
  for _ = 1 to 60 do
    let m = 1 + Prng.int gen 3 in
    let k = Prng.int gen 10 in
    let s, subs = dist_problem gen ~m ~k in
    let seed = Prng.int gen 1_000_000 in
    let r1 = Engine.check ~rng:(Prng.of_int seed) s subs in
    let r2 = Engine.check ~rng:(Prng.of_int seed) s subs in
    Alcotest.(check bool)
      "same seed, same verdict and witness" true
      (verdict_equal r1.Engine.verdict r2.Engine.verdict);
    Alcotest.(check int) "same iterations" r1.Engine.iterations
      r2.Engine.iterations
  done

let suite =
  [
    Alcotest.test_case "pack round-trips" `Quick test_pack_roundtrip;
    Alcotest.test_case "gather = pack of subset" `Quick
      test_gather_is_pack_of_subset;
    Alcotest.test_case "flat kernels = boxed reference" `Quick
      test_kernels_match_boxed;
    Alcotest.test_case "draw stream identical" `Quick
      test_draw_stream_identical;
    Alcotest.test_case "run_packed = boxed trial loop" `Quick
      test_run_packed_matches_boxed_loop;
    Alcotest.test_case "pruning: scan = brute" `Quick
      test_intersecting_rows_brute;
    Alcotest.test_case "rows: in-place edits = pack" `Quick
      test_rows_view_is_pack;
    Alcotest.test_case "engine: pruning invisible" `Quick
      test_pruned_engine_equivalent;
    Alcotest.test_case "engine: pruning keeps pairwise" `Quick
      test_pruned_pairwise_invariant;
    Alcotest.test_case "engine: pruned NO sound" `Quick
      test_pruned_engine_sound;
    Alcotest.test_case "engine: deterministic" `Quick test_engine_deterministic;
  ]
