(* Sharded-store equivalence: a Shard_store and a flat
   Subscription_store driven through the same op sequence under the
   same seed must agree on everything observable — ids, placements,
   coverer lists, promotions, match sets, publication reports and
   counters (scan counters excepted: the shard map exists to shrink
   them). Exercised for shard counts 1 (degenerate: fallback only),
   2, 7 and 16 over qcheck-generated op sequences. *)

open Probsub_core

let sub = Subscription.of_bounds
let iv lo hi = Interval.make ~lo ~hi
let domain0 = iv 0 99

(* ------------------------------------------------------------------ *)
(* Generators *)

(* First-attribute intervals in four shapes: narrow (sits inside a
   stripe for any tested shard count), wide (spans stripe cuts),
   unbounded (fallback), and out-of-domain (past [domain0], landing in
   the sentinel-extended outer stripe). *)
let attr0_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun lo w -> iv lo (lo + w)) (int_bound 95) (int_bound 4));
        ( 2,
          map2
            (fun lo w -> iv lo (lo + w))
            (int_bound 59)
            (map (fun w -> 20 + w) (int_bound 20)) );
        (1, return Interval.full);
        (1, map2 (fun lo w -> iv lo (lo + w)) (int_range 120 180) (int_bound 9));
      ])

let sub_gen =
  QCheck.Gen.(
    let* a0 = attr0_gen in
    let* lo1 = int_bound 20 in
    let* w1 = int_bound 10 in
    return (Subscription.of_list [ a0; iv lo1 (lo1 + w1) ]))

let pub_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun v0 v1 -> Publication.point [| v0; v1 |])
            (int_range (-5) 110) (int_bound 30) );
        (1, map Publication.box sub_gen);
      ])

type op =
  | Add of Subscription.t
  | Add_batch of Subscription.t list
  | Remove_nth of int
  | Add_leased of Subscription.t * float
  | Expire of float
  | Match of Publication.t
  | Check of Publication.t

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> Add s) sub_gen);
        (1, map (fun ss -> Add_batch ss) (list_size (int_range 2 5) sub_gen));
        (2, map (fun i -> Remove_nth i) (int_bound 1000));
        ( 1,
          map2
            (fun s t -> Add_leased (s, float_of_int t))
            sub_gen (int_bound 100) );
        (1, map (fun t -> Expire (float_of_int t)) (int_bound 100));
        (2, map (fun p -> Match p) pub_gen);
        (1, map (fun p -> Check p) pub_gen);
      ])

let pp_op ppf = function
  | Add s -> Format.fprintf ppf "Add %a" Subscription.pp s
  | Add_batch ss ->
      Format.fprintf ppf "Add_batch [%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           Subscription.pp)
        ss
  | Remove_nth i -> Format.fprintf ppf "Remove_nth %d" i
  | Add_leased (s, t) ->
      Format.fprintf ppf "Add_leased (%a, %g)" Subscription.pp s t
  | Expire t -> Format.fprintf ppf "Expire %g" t
  | Match p -> Format.fprintf ppf "Match %s" (Publication.to_string p)
  | Check p -> Format.fprintf ppf "Check %s" (Publication.to_string p)

let ops_arb =
  QCheck.make
    QCheck.Gen.(list_size (int_range 15 60) op_gen)
    ~print:(fun ops ->
      Format.asprintf "%a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_op)
        ops)

(* ------------------------------------------------------------------ *)
(* Mirror driver *)

(* Publication reports index rows into the candidate array each store
   handed the engine: the full active set (flat) vs the gathered
   intersecting actives (shard). Translate rows to subscription ids on
   both sides before comparing. *)
let report_equal ~flat ~p ra rb =
  let psub = Publication.to_sub p in
  let flat_ids = Array.of_list (List.map fst (Subscription_store.active flat)) in
  let gathered_ids =
    Subscription_store.active flat
    |> List.filter (fun (_, s) -> Subscription.intersects psub s)
    |> List.map fst |> Array.of_list
  in
  let verdict_sig row_id r =
    match r.Engine.verdict with
    | Engine.Covered_pairwise row -> `Pairwise (row_id row)
    | Engine.Covered_probably -> `Probably
    | Engine.Not_covered reason -> `Not reason
  in
  let mcs_sig row_id r =
    Option.map
      (fun m -> List.map row_id m.Mcs.kept)
      r.Engine.mcs
  in
  let fid row = flat_ids.(row) and gid row = gathered_ids.(row) in
  verdict_sig fid ra = verdict_sig gid rb
  && mcs_sig fid ra = mcs_sig gid rb
  && ra.Engine.k_pruned = rb.Engine.k_pruned
  && ra.Engine.k_reduced = rb.Engine.k_reduced
  && ra.Engine.d_used = rb.Engine.d_used
  && ra.Engine.iterations = rb.Engine.iterations

let run_mirror ~shards ops =
  let flat = Subscription_store.create ~arity:2 ~seed:99 () in
  let shd = Shard_store.create ~shards ~domain0 ~arity:2 ~seed:99 () in
  let live = ref [] in
  let step op =
    match op with
    | Add s ->
        let ra = Subscription_store.add flat s in
        let rb = Shard_store.add shd s in
        live := fst ra :: !live;
        ra = rb
    | Add_batch ss ->
        let arr = Array.of_list ss in
        let ra = Subscription_store.add_batch flat arr in
        let rb = Shard_store.add_batch shd arr in
        Array.iter (fun (id, _) -> live := id :: !live) ra;
        ra = rb
    | Remove_nth i -> (
        match !live with
        | [] -> true
        | l ->
            let id = List.nth l (i mod List.length l) in
            live := List.filter (fun x -> x <> id) l;
            Subscription_store.remove flat id = Shard_store.remove shd id)
    | Add_leased (s, expires_at) ->
        let ra = Subscription_store.add_with_expiry flat s ~expires_at in
        let rb = Shard_store.add_with_expiry shd s ~expires_at in
        live := fst ra :: !live;
        ra = rb
    | Expire now ->
        let ea, pa = Subscription_store.expire flat ~now in
        let eb, pb = Shard_store.expire shd ~now in
        live := List.filter (fun x -> not (List.mem x ea)) !live;
        ea = eb && pa = pb
    | Match p ->
        Subscription_store.match_publication flat p
        = Shard_store.match_publication shd p
        && Subscription_store.match_publication_exhaustive flat p
           = Shard_store.match_publication_exhaustive shd p
    | Check p ->
        let ra =
          Subscription_store.check_publication flat ~rng:(Prng.of_int 5) p
        in
        let rb = Shard_store.check_publication shd ~rng:(Prng.of_int 5) p in
        report_equal ~flat ~p ra rb
  in
  let steps_ok = List.for_all step ops in
  let sa = Subscription_store.stats flat and sb = Shard_store.stats shd in
  steps_ok
  && Subscription_store.active flat = Shard_store.active shd
  && Subscription_store.covered flat = Shard_store.covered shd
  && Subscription_store.size flat = Shard_store.size shd
  && Subscription_store.splits_consumed flat = Shard_store.splits_consumed shd
  && sa.Subscription_store.added = sb.Subscription_store.added
  && sa.Subscription_store.dropped_covered = sb.Subscription_store.dropped_covered
  && sa.Subscription_store.removed = sb.Subscription_store.removed
  && sa.Subscription_store.promoted = sb.Subscription_store.promoted
  && sa.Subscription_store.covered_scans = sb.Subscription_store.covered_scans
  && sa.Subscription_store.active_scans >= sb.Subscription_store.active_scans
  && Subscription_store.validate flat
  && Shard_store.validate shd
  && Array.fold_left ( + ) 0 (Shard_store.shard_actives shd)
     = Shard_store.active_count shd

let prop_mirror =
  QCheck.Test.make ~count:60 ~name:"sharded store == flat store (all observables)"
    ops_arb
    (fun ops -> List.for_all (fun shards -> run_mirror ~shards ops) [ 1; 2; 7; 16 ])

(* ------------------------------------------------------------------ *)
(* Unit tests *)

(* A subscription unconstrained on attribute 0 routes to the fallback
   shard yet still covers striped subscriptions: coverer links are
   global, only the active set is partitioned. *)
let test_fallback_covers_stripes () =
  let t = Shard_store.create ~shards:4 ~domain0 ~arity:2 ~seed:7 () in
  let full = Subscription.of_list [ Interval.full; iv 0 50 ] in
  let id_full, p_full = Shard_store.add t full in
  (match p_full with
  | Subscription_store.Active -> ()
  | Subscription_store.Covered _ -> Alcotest.fail "full sub must stay active");
  Alcotest.(check int)
    "full-range sub homes in the fallback shard"
    (Shard_store.fallback_shard t)
    (Shard_store.home_shard t id_full);
  let id_narrow, p_narrow = Shard_store.add t (sub [ (10, 12); (3, 5) ]) in
  (match p_narrow with
  | Subscription_store.Covered [ c ] ->
      Alcotest.(check int) "covered by the fallback sub" id_full c
  | _ -> Alcotest.fail "striped sub must be covered by the fallback sub");
  (* The narrow sub's home is a stripe even while covered; removing the
     coverer promotes it into that stripe. *)
  let home = Shard_store.home_shard t id_narrow in
  Alcotest.(check bool)
    "narrow sub homes in a stripe" true
    (home < Shard_store.fallback_shard t);
  let promoted = Shard_store.remove t id_full in
  Alcotest.(check (list int)) "narrow sub promoted" [ id_narrow ] promoted;
  Alcotest.(check int)
    "promoted into its stripe" 1
    (Shard_store.shard_actives t).(home);
  Alcotest.(check bool) "invariants hold" true (Shard_store.validate t)

(* Disjoint narrow subscriptions spread across stripes, and matching
   consults only the relevant shard (the active-scan counter shrinks
   relative to a full scan). *)
let test_striping_spreads_and_confines () =
  let t = Shard_store.create ~shards:5 ~domain0 ~arity:2 ~seed:11 () in
  (* domain0 = [0,99] over 4 stripes of width 25. *)
  let homes =
    List.map
      (fun lo ->
        let id, p = Shard_store.add t (sub [ (lo, lo + 2); (0, 9) ]) in
        (match p with
        | Subscription_store.Active -> ()
        | Subscription_store.Covered _ ->
            Alcotest.fail "disjoint subs stay active");
        Shard_store.home_shard t id)
      [ 3; 30; 55; 80 ]
  in
  Alcotest.(check (list int)) "one stripe each" [ 0; 1; 2; 3 ] homes;
  let hits = Shard_store.match_publication t (Publication.point [| 31; 4 |]) in
  Alcotest.(check int) "single hit" 1 (List.length hits);
  let scans = (Shard_store.stats t).Subscription_store.active_scans in
  Alcotest.(check bool)
    (Printf.sprintf "consulted fewer actives than a full scan (%d)" scans)
    true (scans < 4)

(* add_batch is defined as the sequential loop: same results array,
   same splits, same final state. *)
let test_add_batch_equals_add_loop () =
  let subs =
    let g = Prng.of_int 42 in
    Array.init 40 (fun _ ->
        let lo0 = Prng.int_in g ~lo:0 ~hi:90 in
        let w0 = Prng.int_in g ~lo:0 ~hi:15 in
        let lo1 = Prng.int_in g ~lo:0 ~hi:20 in
        sub [ (lo0, lo0 + w0); (lo1, lo1 + 6) ])
  in
  let seq = Shard_store.create ~shards:4 ~domain0 ~arity:2 ~seed:13 () in
  let rs = Array.map (fun s -> Shard_store.add seq s) subs in
  let bat = Shard_store.create ~shards:4 ~domain0 ~arity:2 ~seed:13 () in
  let rb = Shard_store.add_batch bat subs in
  Alcotest.(check bool) "identical results" true (rs = rb);
  Alcotest.(check bool)
    "identical actives" true
    (Shard_store.active seq = Shard_store.active bat);
  Alcotest.(check bool)
    "identical covered" true
    (Shard_store.covered seq = Shard_store.covered bat);
  Alcotest.(check int)
    "identical split streams"
    (Shard_store.splits_consumed seq)
    (Shard_store.splits_consumed bat);
  Alcotest.(check bool) "invariants hold" true (Shard_store.validate bat)

let suite =
  [
    Alcotest.test_case "fallback shard covers striped subs" `Quick
      test_fallback_covers_stripes;
    Alcotest.test_case "striping spreads and confines" `Quick
      test_striping_spreads_and_confines;
    Alcotest.test_case "add_batch = add loop" `Quick
      test_add_batch_equals_add_loop;
    QCheck_alcotest.to_alcotest prop_mirror;
  ]
