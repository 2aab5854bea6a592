(* Sharded subscription fabric. The global bookkeeping (entries,
   coverer->children index, insertion order, counters) is shared with
   the flat store's design — coverer links may cross shards (a
   fallback full-range subscription can cover striped ones), so those
   structures stay global. Only the *active* set is partitioned: each
   shard owns an {!Active_set} of the actives homed in its region, and
   a covering check gathers candidates from the consulted shards
   alone. The equivalence argument with the flat store lives in the
   interface and in DESIGN.md "Sharded matching fabric". *)

type id = int

type entry = {
  sub : Subscription.t;
  mutable state : Subscription_store.placement;
  mutable expires_at : float; (* infinity = no lease *)
  home : int; (* static: the stripe map never changes *)
}

(* A consulted shard answers a covering check from its packed view
   and a publication from its counting index; each only ever sees the
   actives homed in its own region. *)
type shard = { region : Interval.t; set : Active_set.t }

type t = {
  policy : Subscription_store.policy;
  arity : int;
  rng : Prng.t;
  shards : shard array; (* stripes 0..n-2, fallback at n-1 *)
  stripe_index : Interval_index.t; (* stripe regions, for fan-out *)
  stripe_lo : int array; (* stripe lower bounds, for routing *)
  entries : (id, entry) Hashtbl.t;
  children : (id, id list) Hashtbl.t;
  mutable order : id array;
  mutable order_n : int;
  mutable order_dead : int;
  mutable next_id : id;
  mutable splits : int;
  mutable added : int;
  mutable dropped_covered : int;
  mutable removed_count : int;
  mutable promoted_count : int;
  mutable active_scans : int;
  mutable covered_scans : int;
}

(* Stripe regions: [domain0] cut into [nstripes] near-equal pieces,
   the outer pieces extended to the unbounded sentinels so every
   bounded first-attribute interval falls inside some stripe's span.
   Subscriptions whose interval crosses a cut (or lies outside the
   extended span entirely) route to the fallback. *)
let make_regions ~nstripes ~domain0 =
  if nstripes = 0 then [||]
  else begin
    let dlo = Interval.lo domain0 and dhi = Interval.hi domain0 in
    let span = dhi - dlo + 1 in
    let base = span / nstripes and rem = span mod nstripes in
    let regions = Array.make nstripes Interval.full in
    let cur = ref dlo in
    for i = 0 to nstripes - 1 do
      let w = base + if i < rem then 1 else 0 in
      let lo = !cur and hi = !cur + w - 1 in
      cur := hi + 1;
      let lo = if i = 0 then min lo Interval.unbounded_lo else lo in
      let hi = if i = nstripes - 1 then max hi Interval.unbounded_hi else hi in
      regions.(i) <- Interval.make ~lo ~hi
    done;
    regions
  end

let create ?(policy = Subscription_store.Group_policy Engine.default_config)
    ?(shards = 8) ?(domain0 = Interval.full) ~arity ~seed () =
  if arity < 1 then invalid_arg "Shard_store.create: arity < 1";
  if shards < 1 then invalid_arg "Shard_store.create: shards < 1";
  let nstripes = shards - 1 in
  if nstripes > 0 then begin
    let span = Interval.hi domain0 - Interval.lo domain0 + 1 in
    if span <= 0 then invalid_arg "Shard_store.create: domain0 span overflows";
    if span < nstripes then
      invalid_arg "Shard_store.create: domain0 narrower than the stripe count"
  end;
  (* Shard confinement *is* intersection pruning (see the interface):
     the group engine must keep pruning on for the flat-store
     equivalence to hold, so normalise the config here. *)
  let policy =
    match policy with
    | Subscription_store.Group_policy config ->
        Subscription_store.Group_policy
          { config with Engine.use_pruning = true }
    | (Subscription_store.No_coverage | Subscription_store.Pairwise_policy) as
      p ->
        p
  in
  let regions = make_regions ~nstripes ~domain0 in
  let mk_shard region = { region; set = Active_set.create ~arity } in
  let shards =
    Array.init shards (fun i ->
        if i < nstripes then mk_shard regions.(i) else mk_shard Interval.full)
  in
  {
    policy;
    arity;
    rng = Prng.of_int seed;
    shards;
    stripe_index =
      Interval_index.build (List.init nstripes (fun i -> (i, regions.(i))));
    stripe_lo = Array.map Interval.lo regions;
    entries = Hashtbl.create 64;
    children = Hashtbl.create 64;
    order = Array.make 64 0;
    order_n = 0;
    order_dead = 0;
    next_id = 0;
    splits = 0;
    added = 0;
    dropped_covered = 0;
    removed_count = 0;
    promoted_count = 0;
    active_scans = 0;
    covered_scans = 0;
  }

let policy t = t.policy
let arity t = t.arity
let size t = Hashtbl.length t.entries
let active_count t =
  Array.fold_left (fun n sh -> n + Active_set.length sh.set) 0 t.shards
let covered_count t = size t - active_count t
let shard_count t = Array.length t.shards
let fallback_shard t = Array.length t.shards - 1
let shard_actives t = Array.map (fun sh -> Active_set.length sh.set) t.shards
let splits_consumed t = t.splits

(* {2 Routing} *)

(* The unique stripe whose region fully contains the subscription's
   first-attribute interval; the fallback when it spans a cut or lies
   below the extended span. Regions are contiguous, so the candidate
   stripe is the last one starting at or below the interval. *)
let home_of t s =
  let nstripes = Array.length t.shards - 1 in
  if nstripes = 0 then 0
  else begin
    let iv = Subscription.range s 0 in
    let vlo = Interval.lo iv in
    if vlo < t.stripe_lo.(0) then nstripes
    else begin
      (* Largest i with stripe_lo.(i) <= vlo. *)
      let lo = ref 0 and hi = ref (nstripes - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if t.stripe_lo.(mid) <= vlo then lo := mid else hi := mid - 1
      done;
      if Interval.subset iv t.shards.(!lo).region then !lo else nstripes
    end
  end

(* Shards a box with first-attribute interval [q0] can overlap: the
   stripes sharing a point with [q0] (ascending), then the fallback.
   Actives in any other stripe are disjoint from the box on attribute
   0 — exactly what the engine's pruning would discard. *)
let consult_of_q0 t q0 =
  let stripes =
    List.sort_uniq Int.compare (Interval_index.overlapping t.stripe_index q0)
  in
  stripes @ [ Array.length t.shards - 1 ]

let consult_of_sub t s = consult_of_q0 t (Subscription.range s 0)

(* {2 Global bookkeeping (mirrors the flat store)} *)

let order_push t id =
  if t.order_n = Array.length t.order then begin
    let bigger = Array.make (2 * t.order_n) 0 in
    Array.blit t.order 0 bigger 0 t.order_n;
    t.order <- bigger
  end;
  t.order.(t.order_n) <- id;
  t.order_n <- t.order_n + 1

let order_compact t =
  let n = ref 0 in
  for i = 0 to t.order_n - 1 do
    let id = t.order.(i) in
    if Hashtbl.mem t.entries id then begin
      t.order.(!n) <- id;
      incr n
    end
  done;
  t.order_n <- !n;
  t.order_dead <- 0

let order_mark_dead t =
  t.order_dead <- t.order_dead + 1;
  if t.order_dead > t.order_n - t.order_dead then order_compact t

let fold_entries t ~init ~f =
  (* Insertion order = ascending id: deterministic without sorting. *)
  let acc = ref init in
  for i = 0 to t.order_n - 1 do
    let id = t.order.(i) in
    match Hashtbl.find_opt t.entries id with
    | Some e -> acc := f !acc id e
    | None -> ()
  done;
  !acc

let active t =
  fold_entries t ~init:[] ~f:(fun acc id e ->
      match e.state with
      | Subscription_store.Active -> (id, e.sub) :: acc
      | Subscription_store.Covered _ -> acc)
  |> List.rev

let covered t =
  fold_entries t ~init:[] ~f:(fun acc id e ->
      match e.state with
      | Subscription_store.Active -> acc
      | Subscription_store.Covered by -> (id, e.sub, by) :: acc)
  |> List.rev

let find t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e.sub
  | None -> raise Not_found

let is_active t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> (
      match e.state with
      | Subscription_store.Active -> true
      | Subscription_store.Covered _ -> false)
  | None -> raise Not_found

let home_shard t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e.home
  | None -> raise Not_found

let link_child t ~coverer ~child =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.children coverer) in
  if not (List.mem child cur) then
    Hashtbl.replace t.children coverer (child :: cur)

let unlink_child t ~coverer ~child =
  match Hashtbl.find_opt t.children coverer with
  | None -> ()
  | Some l -> (
      match List.filter (fun c -> c <> child) l with
      | [] -> Hashtbl.remove t.children coverer
      | l' -> Hashtbl.replace t.children coverer l')

(* The flat store's placement pair: every change of an entry's
   placement goes through [place]/[unplace]; an active lives in its
   home shard's set. *)
let place t id e state =
  e.state <- state;
  match state with
  | Subscription_store.Active -> Active_set.add t.shards.(e.home).set id e.sub
  | Subscription_store.Covered by ->
      List.iter (fun coverer -> link_child t ~coverer ~child:id) by

let unplace t id e =
  match e.state with
  | Subscription_store.Active -> Active_set.remove t.shards.(e.home).set id
  | Subscription_store.Covered by ->
      List.iter (fun coverer -> unlink_child t ~coverer ~child:id) by

(* Orphans of the departed actives, ascending, from the children
   index; their child lists go with them. *)
let take_orphans t departed =
  List.concat_map
    (fun id ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt t.children id) in
      Hashtbl.remove t.children id;
      kids)
    departed
  |> List.sort_uniq Int.compare

(* {2 Classification} *)

(* Gather the candidates an arrival can interact with: the actives of
   the consulted shards that intersect its box, merged into ascending
   id order — exactly the subset the flat store's engine run would
   retain after pruning, in the same order, which is what makes the
   sharded verdicts bit-identical (prune-first contract,
   {!Engine.check}). *)
let gather t s =
  let sbox = Flat.box_of_sub s in
  let cands = ref [] in
  List.iter
    (fun si ->
      let set = t.shards.(si).set in
      if Active_set.length set > 0 then begin
        let rows = Flat.intersecting_rows (Active_set.packed set) sbox in
        for i = Array.length rows - 1 downto 0 do
          let r = rows.(i) in
          cands := (Active_set.id set r, Active_set.sub set r) :: !cands
        done
      end)
    (consult_of_sub t s);
  let arr = Array.of_list !cands in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
  (Array.map fst arr, Array.map snd arr)

(* Engine rows index the gathered candidate array (the engine's
   internal prune keeps all of them — they all intersect s). The
   MCS-less fallback records every gathered candidate, which equals
   the flat store's intersection-filtered list. *)
let placement_of_report cids report =
  match report.Engine.verdict with
  | Engine.Covered_pairwise row -> Subscription_store.Covered [ cids.(row) ]
  | Engine.Covered_probably ->
      let coverers =
        match report.Engine.mcs with
        | Some m -> List.map (fun row -> cids.(row)) m.Mcs.kept
        | None -> Array.to_list cids
      in
      Subscription_store.Covered coverers
  | Engine.Not_covered _ -> Subscription_store.Active

(* One {!Prng.split} per group classification, in arrival /
   reclassification order — the flat store's exact stream. *)
let classify t s =
  match t.policy with
  | Subscription_store.No_coverage -> Subscription_store.Active
  | Subscription_store.Pairwise_policy -> (
      let cids, csubs = gather t s in
      (* A pairwise coverer contains s, hence intersects it, hence is
         gathered; candidates keep ascending id order, so the first
         coverer here is the first the flat store's full scan finds. *)
      match Pairwise.find_coverer s csubs with
      | Some i -> Subscription_store.Covered [ cids.(i) ]
      | None -> Subscription_store.Active)
  | Subscription_store.Group_policy config ->
      t.splits <- t.splits + 1;
      let rng = Prng.split t.rng in
      let cids, csubs = gather t s in
      placement_of_report cids (Engine.check ~config ~rng s csubs)

let install t s ~state ~expires_at =
  let id = t.next_id in
  t.next_id <- id + 1;
  let e = { sub = s; state; expires_at; home = home_of t s } in
  Hashtbl.replace t.entries id e;
  order_push t id;
  t.added <- t.added + 1;
  (match state with
  | Subscription_store.Covered _ -> t.dropped_covered <- t.dropped_covered + 1
  | Subscription_store.Active -> ());
  place t id e state;
  (id, state)

let insert t s ~expires_at =
  if Subscription.arity s <> t.arity then
    invalid_arg "Shard_store.add: arity mismatch";
  if Float.is_nan expires_at then
    invalid_arg "Shard_store.add_with_expiry: NaN lease";
  let state = classify t s in
  install t s ~state ~expires_at

let add t s = insert t s ~expires_at:infinity
let add_with_expiry t s ~expires_at = insert t s ~expires_at

(* Batched insertion: the sequential [add] loop, after validating
   every arity up front so a mid-batch failure cannot leave a prefix
   installed. *)
let add_batch t subs =
  let n = Array.length subs in
  Array.iter
    (fun s ->
      if Subscription.arity s <> t.arity then
        invalid_arg "Shard_store.add_batch: arity mismatch")
    subs;
  let results = Array.make n (0, Subscription_store.Active) in
  for i = 0 to n - 1 do
    results.(i) <- add t subs.(i)
  done;
  results

(* {2 Leases, removal, reclassification} *)

let expiry t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e.expires_at
  | None -> raise Not_found

let renew t id ~expires_at =
  if Float.is_nan expires_at then invalid_arg "Shard_store.renew: NaN lease";
  match Hashtbl.find_opt t.entries id with
  | Some e -> e.expires_at <- expires_at
  | None -> ()

let reclassify t oid oe state =
  unplace t oid oe;
  place t oid oe state;
  match state with
  | Subscription_store.Active -> t.promoted_count <- t.promoted_count + 1
  | Subscription_store.Covered _ -> ()

(* Same orphans and ascending-id order as the flat store, so the
   re-classification split stream lines up; promotions re-enter their
   home shard at their sorted position. *)
let reclassify_orphans t ~departed_active =
  List.map
    (fun oid ->
      let oe =
        match Hashtbl.find_opt t.entries oid with
        | Some e -> e
        | None -> invalid_arg "Shard_store: dangling child"
      in
      let state = classify t oe.sub in
      reclassify t oid oe state;
      (oid, state))
    (take_orphans t departed_active)

let promoted_of_reclassified reclassified =
  List.filter_map
    (fun (oid, pl) ->
      match pl with
      | Subscription_store.Active -> Some oid
      | Subscription_store.Covered _ -> None)
    reclassified

let drop_entry t id e =
  Hashtbl.remove t.entries id;
  order_mark_dead t;
  t.removed_count <- t.removed_count + 1;
  unplace t id e

let departed_actives dropped =
  List.filter_map
    (fun (id, e) ->
      match e.state with
      | Subscription_store.Active -> Some id
      | Subscription_store.Covered _ -> None)
    dropped

let remove t id =
  let e =
    match Hashtbl.find_opt t.entries id with
    | Some e -> e
    | None -> raise Not_found
  in
  drop_entry t id e;
  promoted_of_reclassified
    (reclassify_orphans t ~departed_active:(departed_actives [ (id, e) ]))

let expire t ~now =
  let expired =
    fold_entries t ~init:[] ~f:(fun acc id e ->
        if e.expires_at <= now then (id, e) :: acc else acc)
    |> List.rev
  in
  List.iter (fun (id, e) -> drop_entry t id e) expired;
  let reclassified =
    reclassify_orphans t ~departed_active:(departed_actives expired)
  in
  (List.map fst expired, promoted_of_reclassified reclassified)

(* {2 Matching} *)

(* First-attribute footprint of a publication, for shard fan-out. A
   malformed (zero-length) publication consults everything, which
   degrades to flat-store behaviour rather than missing hits. *)
let q0_of_pub p =
  match p with
  | Publication.Point values ->
      if Array.length values = 0 then Interval.full
      else Interval.point values.(0)
  | Publication.Box s ->
      if Subscription.arity s = 0 then Interval.full else Subscription.range s 0

let match_publication t p =
  let hits = ref [] in
  let matched_actives = ref [] in
  (* Actives outside the consulted shards are disjoint from the
     publication on attribute 0, so they cannot match: the hit list is
     the flat store's, for a fraction of the work. Each consulted
     shard answers through its counting index — no per-active
     [Publication.matches] scan at all. *)
  List.iter
    (fun si ->
      Active_set.iter_matches t.shards.(si).set p ~f:(fun id ->
          matched_actives := id :: !matched_actives;
          hits := id :: !hits))
    (consult_of_q0 t (q0_of_pub p));
  (* Multi-level descent, identical to the flat store: only children
     recorded under a matched coverer can match. *)
  let tested = Hashtbl.create 16 in
  List.iter
    (fun coverer ->
      List.iter
        (fun child ->
          if not (Hashtbl.mem tested child) then begin
            Hashtbl.replace tested child ();
            t.covered_scans <- t.covered_scans + 1;
            match Hashtbl.find_opt t.entries child with
            | Some e -> if Publication.matches e.sub p then hits := child :: !hits
            | None -> ()
          end)
        (Option.value ~default:[] (Hashtbl.find_opt t.children coverer)))
    !matched_actives;
  List.sort Int.compare !hits

let match_publication_exhaustive t p =
  fold_entries t ~init:[] ~f:(fun acc id e ->
      if Publication.matches e.sub p then id :: acc else acc)
  |> List.sort Int.compare

let check_publication t ~rng p =
  let s = Publication.to_sub p in
  let config =
    match t.policy with
    | Subscription_store.Group_policy config -> config
    | Subscription_store.No_coverage | Subscription_store.Pairwise_policy ->
        Engine.default_config
  in
  let _, csubs = gather t s in
  Engine.check ~config ~rng s csubs

let stats t =
  {
    Subscription_store.added = t.added;
    dropped_covered = t.dropped_covered;
    removed = t.removed_count;
    promoted = t.promoted_count;
    active_scans = t.active_scans;
    covered_scans = t.covered_scans;
    index_hits =
      Array.fold_left
        (fun acc sh -> acc + Active_set.index_hits sh.set)
        0 t.shards;
  }

let[@problint.allow
     determinism
       "test-only invariant check: every Hashtbl traversal here \
        accumulates a boolean AND, so visit order cannot change the \
        verdict"] validate t =
  let ok = ref true in
  (* Flat-store coverage invariants: coverer references live and
     active, non-empty coverer lists, pairwise coverers really cover. *)
  Hashtbl.iter
    (fun _id e ->
      match e.state with
      | Subscription_store.Active -> ()
      | Subscription_store.Covered by ->
          if by = [] then ok := false;
          List.iter
            (fun c ->
              match Hashtbl.find_opt t.entries c with
              | Some ce ->
                  (match ce.state with
                  | Subscription_store.Active -> ()
                  | Subscription_store.Covered _ -> ok := false);
                  (match t.policy with
                  | Subscription_store.Pairwise_policy ->
                      if not (Subscription.covers_sub ce.sub e.sub) then
                        ok := false
                  | Subscription_store.No_coverage
                  | Subscription_store.Group_policy _ ->
                      ())
              | None -> ok := false)
            by)
    t.entries;
  (* Child index is the exact inverse of the covered-by relation. *)
  Hashtbl.iter
    (fun coverer children ->
      List.iter
        (fun child ->
          match Hashtbl.find_opt t.entries child with
          | Some ce -> (
              match ce.state with
              | Subscription_store.Covered by ->
                  if not (List.mem coverer by) then ok := false
              | Subscription_store.Active -> ok := false)
          | None -> ok := false)
        children)
    t.children;
  (* Shard map invariants: each shard's set holds only actives homed
     there by the routing function — ascending, aliasing their entries'
     subscriptions, packed and indexed — and, with the count check,
     every active entry sits in its home shard. *)
  let ground_active =
    Hashtbl.fold
      (fun _ e n ->
        match e.state with
        | Subscription_store.Active -> n + 1
        | Subscription_store.Covered _ -> n)
      t.entries 0
  in
  if active_count t <> ground_active then ok := false;
  Array.iteri
    (fun si sh ->
      if
        not
          (Active_set.consistent sh.set ~find:(fun id ->
               match Hashtbl.find_opt t.entries id with
               | Some ({ state = Subscription_store.Active; _ } as e)
                 when e.home = si && home_of t e.sub = si ->
                   Some e.sub
               | Some _ | None -> None))
      then ok := false)
    t.shards;
  !ok
