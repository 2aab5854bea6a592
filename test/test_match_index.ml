(* Indexed-matching equivalence: after any op stream, the counting
   indexes behind [Subscription_store.match_publication], at one shard
   and through stripe routing at several, must return hit lists
   bit-identical to [match_publication_exhaustive]. Op streams
   mix add/remove/expire/renew with Point and Box publications, and
   the subscription generator deliberately produces full-interval
   (unconstrained) attributes — the universal-subscription and
   skipped-box-range paths of the index.

   Policies are restricted to the exact ones (No_coverage,
   Pairwise_policy). Under the probabilistic group policy a covered
   subscription may lack a true coverer, so the two-level walk can
   legitimately miss (a delta-probability event the experiments
   measure); equality with the oracle is only a theorem for exact
   coverage. *)

open Probsub_core

let iv lo hi = Interval.make ~lo ~hi
let domain0 = iv 0 99

(* Attribute intervals in every regime the index distinguishes:
   narrow (stripe-local on attribute 0), wide (spans stripe cuts),
   full (unconstrained — not indexed at all), out-of-domain. *)
let attr_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun lo w -> iv lo (lo + w)) (int_bound 95) (int_bound 4));
        ( 2,
          map2
            (fun lo w -> iv lo (lo + w))
            (int_bound 59)
            (map (fun w -> 20 + w) (int_bound 20)) );
        (2, return Interval.full);
        (1, map2 (fun lo w -> iv lo (lo + w)) (int_range 120 180) (int_bound 9));
      ])

let arity = 3

let sub_gen =
  QCheck.Gen.(
    let* ivs = list_repeat arity attr_gen in
    return (Subscription.of_list ivs))

(* Points land in and out of the populated region; boxes reuse the
   subscription generator, so a box range can be full — a range no
   constrained stored interval can contain. *)
let pub_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun vs -> Publication.point (Array.of_list vs))
            (list_repeat arity (int_range (-5) 110)) );
        (1, map Publication.box sub_gen);
      ])

type op =
  | Add of Subscription.t
  | Remove_nth of int
  | Add_leased of Subscription.t * float
  | Renew_nth of int * float
  | Expire of float
  | Match of Publication.t

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> Add s) sub_gen);
        (2, map (fun i -> Remove_nth i) (int_bound 1000));
        ( 2,
          map2
            (fun s t -> Add_leased (s, float_of_int t))
            sub_gen (int_bound 100) );
        ( 1,
          map2
            (fun i t -> Renew_nth (i, float_of_int t))
            (int_bound 1000) (int_bound 200) );
        (2, map (fun t -> Expire (float_of_int t)) (int_bound 100));
        (3, map (fun p -> Match p) pub_gen);
      ])

let pp_op ppf = function
  | Add s -> Format.fprintf ppf "Add %a" Subscription.pp s
  | Remove_nth i -> Format.fprintf ppf "Remove_nth %d" i
  | Add_leased (s, t) ->
      Format.fprintf ppf "Add_leased (%a, %g)" Subscription.pp s t
  | Renew_nth (i, t) -> Format.fprintf ppf "Renew_nth (%d, %g)" i t
  | Expire t -> Format.fprintf ppf "Expire %g" t
  | Match p -> Format.fprintf ppf "Match %s" (Publication.to_string p)

let ops_arb =
  QCheck.make
    QCheck.Gen.(list_size (int_range 20 70) op_gen)
    ~print:(fun ops ->
      Format.asprintf "%a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           pp_op)
        ops)

(* ------------------------------------------------------------------ *)
(* Driver *)

type store_ops = {
  add : Subscription.t -> int;
  add_leased : Subscription.t -> expires_at:float -> int;
  remove : int -> unit;
  renew : int -> expires_at:float -> unit;
  expire : now:float -> int list;
  matching : Publication.t -> int list;
  exhaustive : Publication.t -> int list;
  validate : unit -> bool;
}

let store_ops policy shards =
  let t =
    Subscription_store.create ~policy ~shards ~domain0 ~arity ~seed:42 ()
  in
  {
    add = (fun s -> fst (Subscription_store.add t s));
    add_leased =
      (fun s ~expires_at ->
        fst (Subscription_store.add_with_expiry t s ~expires_at));
    remove = (fun id -> ignore (Subscription_store.remove t id));
    renew = (fun id ~expires_at -> Subscription_store.renew t id ~expires_at);
    expire = (fun ~now -> fst (Subscription_store.expire t ~now));
    matching = Subscription_store.match_publication t;
    exhaustive = Subscription_store.match_publication_exhaustive t;
    validate = (fun () -> Subscription_store.validate t);
  }

(* Checked publications: each Match op, plus a final fixed battery so
   every run ends with the index interrogated in its final state. *)
let final_battery =
  [
    Publication.point [| 0; 0; 0 |];
    Publication.point [| 50; 10; 10 |];
    Publication.point [| 150; 5; 5 |];
    Publication.box (Subscription.of_list [ iv 10 12; iv 3 5; Interval.full ]);
    Publication.box
      (Subscription.of_list [ Interval.full; Interval.full; Interval.full ]);
  ]

let run_equiv mk ops =
  let st = mk () in
  let live = ref [] in
  let agree p = st.matching p = st.exhaustive p in
  let step op =
    match op with
    | Add s ->
        live := st.add s :: !live;
        true
    | Remove_nth i -> (
        match !live with
        | [] -> true
        | l ->
            let id = List.nth l (i mod List.length l) in
            live := List.filter (fun x -> x <> id) l;
            st.remove id;
            true)
    | Add_leased (s, expires_at) ->
        live := st.add_leased s ~expires_at :: !live;
        true
    | Renew_nth (i, expires_at) -> (
        match !live with
        | [] -> true
        | l ->
            st.renew (List.nth l (i mod List.length l)) ~expires_at;
            true)
    | Expire now ->
        let gone = st.expire ~now in
        live := List.filter (fun x -> not (List.mem x gone)) !live;
        true
    | Match p -> agree p
  in
  List.for_all step ops
  && List.for_all agree final_battery
  && st.validate ()

let prop_flat =
  QCheck.Test.make ~count:80
    ~name:"flat indexed match == exhaustive (exact policies)" ops_arb
    (fun ops ->
      List.for_all
        (fun policy -> run_equiv (fun () -> store_ops policy 1) ops)
        [ Subscription_store.No_coverage; Subscription_store.Pairwise_policy ])

let prop_shard =
  QCheck.Test.make ~count:40
    ~name:"sharded indexed match == exhaustive (shards 1/2/7/16)" ops_arb
    (fun ops ->
      List.for_all
        (fun shards ->
          List.for_all
            (fun policy ->
              run_equiv (fun () -> store_ops policy shards) ops)
            [
              Subscription_store.No_coverage;
              Subscription_store.Pairwise_policy;
            ])
        [ 1; 2; 7; 16 ])

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_flat; prop_shard ]
