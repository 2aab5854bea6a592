(* Sharded-store equivalence: a store striped into several shards and
   a one-shard store driven through the same op sequence under the
   same seed must agree on everything observable — ids, placements,
   coverer lists, promotions, match sets and counters (index hits
   excepted: the shard map exists to shrink them) — and each store's
   publication reports must equal an unconfined engine run over the
   whole active set. Exercised for shard counts 1 (degenerate:
   fallback only), 2, 7 and 16 over qcheck-generated op sequences. A
   sharded store's journal must also replay into the one-shard store
   that recovery builds. *)

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
  | Remove_nth of int
  | Add_leased of Subscription.t * float
  | Expire of float
  | Match of Publication.t
  | Check of Publication.t

(* One step of the stream: a single op, or a run of 2-5 consecutive
   arrivals. *)
let ops_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> [ Add s ]) sub_gen);
        ( 1,
          map
            (List.map (fun s -> Add s))
            (list_size (int_range 2 5) sub_gen) );
        (2, map (fun i -> [ Remove_nth i ]) (int_bound 1000));
        ( 1,
          map2
            (fun s t -> [ Add_leased (s, float_of_int t) ])
            sub_gen (int_bound 100) );
        (1, map (fun t -> [ Expire (float_of_int t) ]) (int_bound 100));
        (2, map (fun p -> [ Match p ]) pub_gen);
        (1, map (fun p -> [ Check p ]) pub_gen);
      ])

let pp_op ppf = function
  | Add s -> Format.fprintf ppf "Add %a" Subscription.pp s
  | Remove_nth i -> Format.fprintf ppf "Remove_nth %d" i
  | Add_leased (s, t) ->
      Format.fprintf ppf "Add_leased (%a, %g)" Subscription.pp s t
  | Expire t -> Format.fprintf ppf "Expire %g" t
  | Match p -> Format.fprintf ppf "Match %s" (Publication.to_string p)
  | Check p -> Format.fprintf ppf "Check %s" (Publication.to_string p)

let ops_arb =
  QCheck.make
    QCheck.Gen.(map List.concat (list_size (int_range 15 60) ops_gen))
    ~print:(fun ops ->
      Format.asprintf "%a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_op)
        ops)

(* ------------------------------------------------------------------ *)
(* Mirror driver *)

(* The unconfined reference indexes rows of the whole active set; a
   store's report indexes the actives intersecting the publication's
   box, which is what the store gathered and handed the engine.
   Translate rows to subscription ids on both sides before
   comparing. *)
let report_equal ~active ~p reference r =
  let psub = Publication.to_sub p in
  let all_ids = Array.of_list (List.map fst active) in
  let gathered_ids =
    active
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
  let aid row = all_ids.(row) and gid row = gathered_ids.(row) in
  verdict_sig aid reference = verdict_sig gid r
  && mcs_sig aid reference = mcs_sig gid r
  && reference.Engine.k_pruned = r.Engine.k_pruned
  && reference.Engine.k_reduced = r.Engine.k_reduced
  && reference.Engine.d_used = r.Engine.d_used
  && reference.Engine.iterations = r.Engine.iterations

(* Apply one op to [t]; [live] tracks the ids still held. [Match] and
   [Check] leave the durable state alone. *)
let apply_to t live op =
  match op with
  | Add s ->
      let r = Subscription_store.add t s in
      live := fst r :: !live;
      `Added r
  | Remove_nth i -> (
      match !live with
      | [] -> `Removed []
      | l ->
          let id = List.nth l (i mod List.length l) in
          live := List.filter (fun x -> x <> id) l;
          `Removed (Subscription_store.remove t id))
  | Add_leased (s, expires_at) ->
      let r = Subscription_store.add_with_expiry t s ~expires_at in
      live := fst r :: !live;
      `Added r
  | Expire now ->
      let expired, promoted = Subscription_store.expire t ~now in
      live := List.filter (fun x -> not (List.mem x expired)) !live;
      `Expired (expired, promoted)
  | Match p ->
      `Matched
        ( Subscription_store.match_publication t p,
          Subscription_store.match_publication_exhaustive t p )
  | Check p -> `Checked p

let run_mirror ~shards ops =
  let flat = Subscription_store.create ~arity:2 ~seed:99 () in
  let shd = Subscription_store.create ~shards ~domain0 ~arity:2 ~seed:99 () in
  let live_a = ref [] and live_b = ref [] in
  let step op =
    match (apply_to flat live_a op, apply_to shd live_b op) with
    | `Checked p, `Checked _ ->
        let active = Subscription_store.active flat in
        let reference =
          Engine.check_publication ~config:Engine.default_config
            ~rng:(Prng.of_int 5) p
            (Array.of_list (List.map snd active))
        in
        let check t = Subscription_store.check_publication t ~rng:(Prng.of_int 5) p in
        active = Subscription_store.active shd
        && report_equal ~active ~p reference (check flat)
        && report_equal ~active ~p reference (check shd)
    | ra, rb -> ra = rb
  in
  let steps_ok = List.for_all step ops in
  let sa = Subscription_store.stats flat and sb = Subscription_store.stats shd in
  steps_ok
  && Subscription_store.active flat = Subscription_store.active shd
  && Subscription_store.covered flat = Subscription_store.covered shd
  && Subscription_store.size flat = Subscription_store.size shd
  && Subscription_store.splits_consumed flat
     = Subscription_store.splits_consumed shd
  && sa.Subscription_store.added = sb.Subscription_store.added
  && sa.Subscription_store.dropped_covered = sb.Subscription_store.dropped_covered
  && sa.Subscription_store.removed = sb.Subscription_store.removed
  && sa.Subscription_store.promoted = sb.Subscription_store.promoted
  && sa.Subscription_store.covered_scans = sb.Subscription_store.covered_scans
  && Subscription_store.equal_state flat shd
  && Subscription_store.validate flat
  && Subscription_store.validate shd
  && Array.fold_left ( + ) 0 (Subscription_store.shard_actives shd)
     = Subscription_store.active_count shd

let prop_mirror =
  QCheck.Test.make ~count:60 ~name:"sharded store == flat store (all observables)"
    ops_arb
    (fun ops -> List.for_all (fun shards -> run_mirror ~shards ops) [ 1; 2; 7; 16 ])

(* A 7-shard store journals an op stream; recovery from the whole
   journal, and from an image taken midway plus the journal suffix,
   must rebuild a one-shard store in the same logical state, with a
   sound structure. *)
let prop_sharded_replay =
  QCheck.Test.make ~count:40
    ~name:"sharded journal replays into the one-shard store" ops_arb
    (fun ops ->
      let t = Subscription_store.create ~shards:7 ~domain0 ~arity:2 ~seed:99 () in
      let journal = ref [] in
      Subscription_store.set_journal t (Some (fun op -> journal := op :: !journal));
      let live = ref [] in
      let half = List.length ops / 2 in
      let image = ref Subscription_store.empty_image and at = ref 0 in
      List.iteri
        (fun i op ->
          if i = half then begin
            image := Subscription_store.image t;
            at := List.length !journal
          end;
          ignore (apply_to t live op))
        ops;
      let all = List.rev !journal in
      let suffix = List.filteri (fun i _ -> i >= !at) all in
      let full = Subscription_store.recover ~arity:2 ~seed:99 all in
      let resumed =
        Subscription_store.recover ~arity:2 ~seed:99 ~image:!image suffix
      in
      Subscription_store.validate t
      && Subscription_store.equal_state t full
      && Subscription_store.validate full
      && Subscription_store.equal_state t resumed
      && Subscription_store.validate resumed)

(* ------------------------------------------------------------------ *)
(* Unit tests *)

(* A subscription unconstrained on attribute 0 routes to the fallback
   shard yet still covers striped subscriptions: coverer links are
   global, only the active set is partitioned. *)
let test_fallback_covers_stripes () =
  let t = Subscription_store.create ~shards:4 ~domain0 ~arity:2 ~seed:7 () in
  let full = Subscription.of_list [ Interval.full; iv 0 50 ] in
  let id_full, p_full = Subscription_store.add t full in
  (match p_full with
  | Subscription_store.Active -> ()
  | Subscription_store.Covered _ -> Alcotest.fail "full sub must stay active");
  Alcotest.(check int)
    "full-range sub homes in the fallback shard"
    (Subscription_store.fallback_shard t)
    (Subscription_store.home_shard t id_full);
  let id_narrow, p_narrow = Subscription_store.add t (sub [ (10, 12); (3, 5) ]) in
  (match p_narrow with
  | Subscription_store.Covered [ c ] ->
      Alcotest.(check int) "covered by the fallback sub" id_full c
  | _ -> Alcotest.fail "striped sub must be covered by the fallback sub");
  (* The narrow sub's home is a stripe even while covered; removing the
     coverer promotes it into that stripe. *)
  let home = Subscription_store.home_shard t id_narrow in
  Alcotest.(check bool)
    "narrow sub homes in a stripe" true
    (home < Subscription_store.fallback_shard t);
  let promoted = Subscription_store.remove t id_full in
  Alcotest.(check (list int)) "narrow sub promoted" [ id_narrow ] promoted;
  Alcotest.(check int)
    "promoted into its stripe" 1
    (Subscription_store.shard_actives t).(home);
  Alcotest.(check bool) "invariants hold" true (Subscription_store.validate t)

(* Disjoint narrow subscriptions spread across stripes, and matching
   consults only the relevant shard: the counting-index work for a
   publication stays below a one-shard store's over the same four
   subscriptions. *)
let test_striping_spreads_and_confines () =
  let t = Subscription_store.create ~shards:5 ~domain0 ~arity:2 ~seed:11 () in
  let flat = Subscription_store.create ~arity:2 ~seed:11 () in
  (* domain0 = [0,99] over 4 stripes of width 25. *)
  let homes =
    List.map
      (fun lo ->
        let s = sub [ (lo, lo + 2); (0, 9) ] in
        ignore (Subscription_store.add flat s);
        let id, p = Subscription_store.add t s in
        (match p with
        | Subscription_store.Active -> ()
        | Subscription_store.Covered _ ->
            Alcotest.fail "disjoint subs stay active");
        Subscription_store.home_shard t id)
      [ 3; 30; 55; 80 ]
  in
  Alcotest.(check (list int)) "one stripe each" [ 0; 1; 2; 3 ] homes;
  let pub = Publication.point [| 31; 4 |] in
  let index_work store =
    let before = (Subscription_store.stats store).Subscription_store.index_hits in
    let hits = Subscription_store.match_publication store pub in
    (hits, (Subscription_store.stats store).Subscription_store.index_hits - before)
  in
  let hits, sharded = index_work t in
  let flat_hits, whole = index_work flat in
  Alcotest.(check int) "single hit" 1 (List.length hits);
  Alcotest.(check (list int)) "same hit as one shard" flat_hits hits;
  Alcotest.(check bool)
    (Printf.sprintf "fewer index hits than one shard (%d < %d)" sharded whole)
    true (sharded < whole)

(* The mirror's random [Check]s mostly settle before RSPC draws
   anything, so they cannot tell whether [check_publication] hands the
   engine the caller's generator untouched. Here four actives tile a
   box in a pinwheel around a 4x4 hole: no single active covers it,
   every defined cell conflicts (MCS keeps all four) and Corollary 3
   does not fire, so RSPC runs and the witness's coordinates and the
   trial count depend on the caller's stream. A fifth active, disjoint
   from the box, is pruned, so store rows and reference rows differ.
   Each store's report must equal the engine run on the whole active
   set under the same generator, witness included. *)
let test_check_follows_caller_stream () =
  let tiles =
    [
      sub [ (0, 11); (0, 7) ];
      sub [ (12, 19); (0, 11) ];
      sub [ (8, 19); (12, 19) ];
      sub [ (0, 7); (8, 19) ];
      sub [ (40, 60); (0, 30) ];
    ]
  in
  let p = Publication.box (sub [ (0, 19); (0, 19) ]) in
  let stores =
    List.map
      (fun shards ->
        let t = Subscription_store.create ~shards ~domain0 ~arity:2 ~seed:3 () in
        List.iter
          (fun s ->
            match Subscription_store.add t s with
            | _, Subscription_store.Active -> ()
            | _, Subscription_store.Covered _ -> Alcotest.fail "tiles stay active")
          tiles;
        t)
      [ 1; 2; 7 ]
  in
  let active = Subscription_store.active (List.hd stores) in
  let witnesses = ref [] in
  for seed = 1 to 40 do
    let reference =
      Engine.check_publication ~config:Engine.default_config
        ~rng:(Prng.of_int seed) p
        (Array.of_list (List.map snd active))
    in
    (match reference.Engine.verdict with
    | Engine.Not_covered (Engine.Point w) ->
        witnesses := (Array.to_list w, reference.Engine.iterations) :: !witnesses
    | _ -> ());
    List.iter
      (fun t ->
        let r = Subscription_store.check_publication t ~rng:(Prng.of_int seed) p in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: report follows the caller's stream" seed)
          true
          (report_equal ~active ~p reference r))
      stores
  done;
  Alcotest.(check bool)
    "RSPC found point witnesses that differ across streams" true
    (List.length (List.sort_uniq compare !witnesses) >= 10)

let suite =
  [
    Alcotest.test_case "fallback shard covers striped subs" `Quick
      test_fallback_covers_stripes;
    Alcotest.test_case "striping spreads and confines" `Quick
      test_striping_spreads_and_confines;
    QCheck_alcotest.to_alcotest prop_sharded_replay;
    QCheck_alcotest.to_alcotest prop_mirror;
    Alcotest.test_case "check follows the caller's RSPC stream" `Quick
      test_check_follows_caller_stream;
  ]
