type id = int

type policy =
  | No_coverage
  | Pairwise_policy
  | Group_policy of Engine.config

type placement = Active | Covered of id list

type entry = {
  sub : Subscription.t;
  mutable state : placement;
  mutable expires_at : float; (* infinity = no lease *)
  home : int; (* static: the stripe map never changes *)
}

type stats = {
  added : int;
  dropped_covered : int;
  removed : int;
  promoted : int;
  covered_scans : int;
  index_hits : int;
}

(* The store's durable mutation language: each constructor records the
   *effect* of one mutating call (placements already classified,
   orphans already re-checked), so replaying an op never re-runs the
   probabilistic engine — recovery is deterministic and cheap, and the
   generator stream is reproduced by counting the splits the live
   classifications consumed. *)
type op =
  | Op_add of {
      id : id;
      sub : Subscription.t;
      placement : placement;
      expires_at : float;
    }
  | Op_remove of { id : id; reclassified : (id * placement) list }
  | Op_renew of { id : id; expires_at : float }
  | Op_expire of {
      now : float;
      expired : id list;
      reclassified : (id * placement) list;
    }

(* A consulted shard answers a covering check from its packed view
   and a publication from its counting index; each only ever sees the
   actives homed in its own region. *)
type shard = { region : Interval.t; set : Active_set.t }

type t = {
  policy : policy;
  arity : int;
  rng : Prng.t;
  (* Only the active set is partitioned: stripes 0..n-2, fallback at
     n-1 (a one-shard store is the fallback alone). Coverer links may
     cross shards — a full-range fallback subscription can cover
     striped ones — so the entry table and children index stay
     global. *)
  shards : shard array;
  stripe_index : Interval_index.t; (* stripe regions, for fan-out *)
  stripe_lo : int array; (* stripe lower bounds, for routing *)
  entries : (id, entry) Hashtbl.t;
  (* Algorithm 5's multi-level optimization: active coverer ->
     covered subscriptions recorded under it. A publication only tests
     the children of the active subscriptions it matched. *)
  children : (id, id list) Hashtbl.t;
  (* Live ids in insertion order. Ids are assigned monotonically and
     never reused, so the used prefix is always ascending — iteration
     is O(k) with no per-call sort. Removed ids become tombstones
     (absent from [entries]) and are compacted away lazily. *)
  mutable order : id array;
  mutable order_n : int;
  mutable order_dead : int;
  mutable next_id : id;
  (* Prng.split draws consumed by classifications so far. Recovery
     fast-forwards a fresh seed-rng by this count, so a recovered
     store's future draws continue the live store's stream. *)
  mutable splits : int;
  (* Effect journal: invoked after each completed mutation with the op
     that reproduces it. [apply_op] never emits (replay must not
     re-journal). *)
  mutable journal : (op -> unit) option;
  mutable added : int;
  mutable dropped_covered : int;
  mutable removed_count : int;
  mutable promoted_count : int;
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

let create ?(policy = Group_policy Engine.default_config) ?(shards = 1)
    ?(domain0 = Interval.full) ~arity ~seed () =
  if arity < 1 then invalid_arg "Subscription_store.create: arity < 1";
  if shards < 1 then invalid_arg "Subscription_store.create: shards < 1";
  let nstripes = shards - 1 in
  if nstripes > 0 then begin
    let span = Interval.hi domain0 - Interval.lo domain0 + 1 in
    if span <= 0 then
      invalid_arg "Subscription_store.create: domain0 span overflows";
    if span < nstripes then
      invalid_arg
        "Subscription_store.create: domain0 narrower than the stripe count"
  end;
  let regions = make_regions ~nstripes ~domain0 in
  let mk_shard region = { region; set = Active_set.create ~arity } in
  {
    policy;
    arity;
    rng = Prng.of_int seed;
    shards =
      Array.init shards (fun i ->
          if i < nstripes then mk_shard regions.(i) else mk_shard Interval.full);
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
    journal = None;
    added = 0;
    dropped_covered = 0;
    removed_count = 0;
    promoted_count = 0;
    covered_scans = 0;
  }

let policy t = t.policy
let arity t = t.arity
let size t = Hashtbl.length t.entries
let set_journal t j = t.journal <- j
let splits_consumed t = t.splits

let active_count t =
  Array.fold_left (fun n sh -> n + Active_set.length sh.set) 0 t.shards

let covered_count t = size t - active_count t
let fallback_shard t = Array.length t.shards - 1
let shard_actives t = Array.map (fun sh -> Active_set.length sh.set) t.shards

let emit t op =
  match t.journal with None -> () | Some f -> f op

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

(* Call [f] on every shard a box with first-attribute interval [q0 x]
   can overlap: the stripes sharing a point with it, then the
   fallback. Actives in any other stripe are disjoint from the box on
   attribute 0 — exactly what the engine's pruning would discard. The
   interval is computed only when there are stripes to route among,
   so a one-shard store visits its one shard without allocating. *)
let iter_consulted t ~q0 x ~f =
  if Array.length t.shards > 1 then
    Interval_index.iter_overlapping t.stripe_index (q0 x) ~f;
  f (fallback_shard t)

(* {2 Entry bookkeeping} *)

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

(* Called after an id leaves [entries]. *)
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

(* Each shard's set is ascending, so one shard is already in order;
   several are merged by id. *)
let active_arrays t =
  match t.shards with
  | [| sh |] -> Active_set.arrays sh.set
  | shards ->
      let rows =
        Array.concat
          (Array.to_list
             (Array.map
                (fun sh ->
                  let ids, subs = Active_set.arrays sh.set in
                  Array.combine ids subs)
                shards))
      in
      Array.sort (fun (a, _) (b, _) -> Int.compare a b) rows;
      Array.split rows

let active_packed t =
  match t.shards with
  | [| sh |] -> Active_set.packed sh.set
  | _ -> Flat.pack ~m:t.arity (snd (active_arrays t))

let active t =
  let ids, subs = active_arrays t in
  Array.to_list (Array.combine ids subs)

let covered t =
  fold_entries t ~init:[] ~f:(fun acc id e ->
      match e.state with
      | Active -> acc
      | Covered by -> (id, e.sub, by) :: acc)
  |> List.rev

let find_entry t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e
  | None -> raise Not_found

let find t id = (find_entry t id).sub

let is_active t id =
  match (find_entry t id).state with Active -> true | Covered _ -> false

let home_shard t id = (find_entry t id).home
let expiry t id = (find_entry t id).expires_at

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

(* Every change of an entry's placement goes through this pair: [place]
   records [state] (joining its home shard's active set, or linking the
   entry under its coverers), [unplace] undoes whatever the current
   state recorded. A departing active's own child list is left for
   [take_orphans]. *)
let place t id e state =
  e.state <- state;
  match state with
  | Active -> Active_set.add t.shards.(e.home).set id e.sub
  | Covered by -> List.iter (fun coverer -> link_child t ~coverer ~child:id) by

let unplace t id e =
  match e.state with
  | Active -> Active_set.remove t.shards.(e.home).set id
  | Covered by ->
      List.iter (fun coverer -> unlink_child t ~coverer ~child:id) by

(* The covered entries recorded under the departed actives, ascending —
   read from the children index, the exact inverse of covered-by (see
   [validate]). Their child lists go with them. *)
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
   id order — exactly the subset an engine run over the whole active
   set retains after pruning, in the same order. Since {!Engine.check}
   prunes before every other stage, the report is the one the whole
   set would give (prune-first contract). *)
let gather t s =
  let sbox = Flat.box_of_sub s in
  let cands = ref [] in
  iter_consulted t ~q0:(fun s -> Subscription.range s 0) s ~f:(fun si ->
      let set = t.shards.(si).set in
      if Active_set.length set > 0 then begin
        let rows = Flat.intersecting_rows (Active_set.packed set) sbox in
        for i = Array.length rows - 1 downto 0 do
          let r = rows.(i) in
          cands := (Active_set.id set r, Active_set.sub set r) :: !cands
        done
      end);
  let arr = Array.of_list !cands in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
  Array.split arr

(* Translate an engine report into a placement, mapping candidate rows
   back to store ids through the gathered ids [cids]. *)
let placement_of_report cids report =
  match report.Engine.verdict with
  | Engine.Covered_pairwise row -> Covered [ cids.(row) ]
  | Engine.Covered_probably ->
      (* Record the MCS-reduced candidate set as coverers: exactly the
         subscriptions whose joint cover classified [s]. Without an MCS
         trace, fall back to every gathered candidate — the actives
         intersecting [s], a superset of any true cover (a disjoint
         candidate covers no point of [s]). *)
      let coverers =
        match report.Engine.mcs with
        | Some m -> List.map (fun row -> cids.(row)) m.Mcs.kept
        | None -> Array.to_list cids
      in
      Covered coverers
  | Engine.Not_covered _ -> Active

(* Classify a subscription against the current active set according to
   the store policy. Under the group policy every classification draws
   exactly one {!Prng.split} from the store generator and hands the
   child stream to the engine — a fixed per-classification consumption
   that recovery reproduces without re-running the engine. *)
let classify t s =
  match t.policy with
  | No_coverage -> Active
  | Pairwise_policy -> (
      (* A pairwise coverer contains s, hence intersects it, hence is
         gathered; candidates keep ascending id order, so the first
         coverer found is the first of the whole active set. *)
      let cids, csubs = gather t s in
      match Pairwise.find_coverer s csubs with
      | Some i -> Covered [ cids.(i) ]
      | None -> Active)
  | Group_policy config ->
      t.splits <- t.splits + 1;
      let rng = Prng.split t.rng in
      let cids, csubs = gather t s in
      placement_of_report cids (Engine.check ~config ~rng s csubs)

(* Bookkeeping half of an insertion: record the entry under the next
   id with its already-computed placement. Shared by live insertion
   and replay. *)
let install t s ~state ~expires_at =
  let id = t.next_id in
  t.next_id <- id + 1;
  let e = { sub = s; state; expires_at; home = home_of t s } in
  Hashtbl.replace t.entries id e;
  order_push t id;
  t.added <- t.added + 1;
  (match state with
  | Covered _ -> t.dropped_covered <- t.dropped_covered + 1
  | Active -> ());
  place t id e state;
  id

let insert t s ~expires_at =
  if Subscription.arity s <> t.arity then
    invalid_arg "Subscription_store.add: arity mismatch";
  if Float.is_nan expires_at then
    invalid_arg "Subscription_store.add_with_expiry: NaN lease";
  let state = classify t s in
  let id = install t s ~state ~expires_at in
  emit t (Op_add { id; sub = s; placement = state; expires_at });
  (id, state)

let add t s = insert t s ~expires_at:infinity
let add_with_expiry t s ~expires_at = insert t s ~expires_at

(* {2 Leases, removal, reclassification} *)

(* Renewing an id the store no longer holds is a no-op, not an error:
   a refresh can race a sweep that already expired the entry, and the
   same must hold on replay — a journaled renew whose target was
   expired earlier in the log must not resurrect anything. *)
let renew t id ~expires_at =
  if Float.is_nan expires_at then
    invalid_arg "Subscription_store.renew: NaN lease";
  match Hashtbl.find_opt t.entries id with
  | Some e ->
      e.expires_at <- expires_at;
      emit t (Op_renew { id; expires_at })
  | None -> ()

(* Move an orphan to its new placement, counting a promotion. *)
let reclassify t oid oe state =
  unplace t oid oe;
  place t oid oe state;
  match state with
  | Active -> t.promoted_count <- t.promoted_count + 1
  | Covered _ -> ()

(* Re-check the covered subscriptions the departed actives left behind,
   in ascending id order; promote those no longer covered. Shared by
   {!remove} and {!expire} (§5's replacement rule). Returns every
   re-checked orphan with its new placement (not just the promotions)
   so the journal can record the full effect. *)
let reclassify_orphans t ~departed_active =
  List.map
    (fun oid ->
      let oe =
        match Hashtbl.find_opt t.entries oid with
        | Some e -> e
        | None -> invalid_arg "Subscription_store: dangling child"
      in
      let state = classify t oe.sub in
      reclassify t oid oe state;
      (oid, state))
    (take_orphans t departed_active)

let promoted_of_reclassified reclassified =
  List.filter_map
    (fun (oid, pl) -> match pl with Active -> Some oid | Covered _ -> None)
    reclassified

let drop_entry t id e =
  Hashtbl.remove t.entries id;
  order_mark_dead t;
  t.removed_count <- t.removed_count + 1;
  unplace t id e

let departed_actives dropped =
  List.filter_map
    (fun (id, e) -> match e.state with Active -> Some id | Covered _ -> None)
    dropped

let remove t id =
  let e = find_entry t id in
  drop_entry t id e;
  let reclassified =
    reclassify_orphans t ~departed_active:(departed_actives [ (id, e) ])
  in
  emit t (Op_remove { id; reclassified });
  promoted_of_reclassified reclassified

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
  let expired_ids = List.map fst expired in
  if expired_ids <> [] then
    emit t (Op_expire { now; expired = expired_ids; reclassified });
  (expired_ids, promoted_of_reclassified reclassified)

(* {2 Matching} *)

(* First-attribute footprint of a publication, for shard fan-out. A
   malformed (zero-length) publication consults everything, which
   degrades to a whole-set match rather than missing hits. *)
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
     publication on attribute 0, so they cannot match. Each consulted
     shard answers through its counting index — no per-active
     [Publication.matches] scan; the index work shows up in
     [index_hits]. *)
  let matched id =
    matched_actives := id :: !matched_actives;
    hits := id :: !hits
  in
  iter_consulted t ~q0:q0_of_pub p ~f:(fun si ->
      Active_set.iter_matches t.shards.(si).set p ~f:matched);
  (* Multi-level descent: only the covered subscriptions recorded under
     a matched coverer can match (a point in a covered subscription
     lies in one of its coverers). *)
  let tested = Hashtbl.create 16 in
  List.iter
    (fun coverer ->
      List.iter
        (fun child ->
          if not (Hashtbl.mem tested child) then begin
            Hashtbl.replace tested child ();
            t.covered_scans <- t.covered_scans + 1;
            match Hashtbl.find_opt t.entries child with
            | None ->
                invalid_arg
                  "Subscription_store.match_publication: dangling child"
            | Some e ->
                if Publication.matches e.sub p then hits := child :: !hits
          end)
        (Option.value ~default:[] (Hashtbl.find_opt t.children coverer)))
    !matched_actives;
  List.sort Int.compare !hits

let match_publication_exhaustive t p =
  fold_entries t ~init:[] ~f:(fun acc id e ->
      if Publication.matches e.sub p then id :: acc else acc)
  |> List.sort Int.compare

(* Read-only subsumption query against the active set. The caller
   supplies the generator: a query must never draw from the store's
   own stream, or interleaving queries with arrivals would perturb
   later placements. *)
let check_publication t ~rng p =
  let s = Publication.to_sub p in
  let config =
    match t.policy with
    | Group_policy config -> config
    | No_coverage | Pairwise_policy -> Engine.default_config
  in
  let _, csubs = gather t s in
  Engine.check ~config ~rng s csubs

let[@problint.allow
     determinism
       "test-only invariant check: every Hashtbl traversal here \
        accumulates a boolean AND, so visit order cannot change the \
        verdict"] validate t =
  let ok = ref true in
  (* Coverer references point at live, active entries; under the
     pairwise policy the recorded coverer really covers. *)
  Hashtbl.iter
    (fun _id e ->
      match e.state with
      | Active -> ()
      | Covered by ->
          if by = [] then ok := false;
          List.iter
            (fun c ->
              match Hashtbl.find_opt t.entries c with
              | Some ce ->
                  (match ce.state with
                  | Active -> ()
                  | Covered _ -> ok := false);
                  (match t.policy with
                  | Pairwise_policy ->
                      if not (Subscription.covers_sub ce.sub e.sub) then
                        ok := false
                  | No_coverage | Group_policy _ -> ())
              | None -> ok := false)
            by)
    t.entries;
  (* The children index is exactly the inverse of the covered-by
     relation. *)
  Hashtbl.iter
    (fun coverer kids ->
      List.iter
        (fun kid ->
          match Hashtbl.find_opt t.entries kid with
          | Some { state = Covered by; _ } ->
              if not (List.mem coverer by) then ok := false
          | Some { state = Active; _ } | None -> ok := false)
        kids)
    t.children;
  Hashtbl.iter
    (fun id e ->
      match e.state with
      | Covered by ->
          List.iter
            (fun c ->
              let kids =
                Option.value ~default:[] (Hashtbl.find_opt t.children c)
              in
              if not (List.mem id kids) then ok := false)
            by
      | Active -> ())
    t.entries;
  (* Each shard's set holds exactly the active entries homed there by
     the routing function — ascending, aliasing their subscriptions,
     packed, and indexed once a match has built the index — and, with
     the count check, every active
     entry sits in its home shard. The order vector agrees with the
     entry table. *)
  let ground_active =
    Hashtbl.fold
      (fun _ e n -> match e.state with Active -> n + 1 | Covered _ -> n)
      t.entries 0
  in
  if active_count t <> ground_active then ok := false;
  Array.iteri
    (fun si sh ->
      if
        not
          (Active_set.consistent sh.set ~find:(fun id ->
               match Hashtbl.find_opt t.entries id with
               | Some { state = Active; sub; home; _ }
                 when home = si && home_of t sub = si ->
                   Some sub
               | Some _ | None -> None))
      then ok := false)
    t.shards;
  let seen = ref (-1) in
  let live_in_order = ref 0 in
  for i = 0 to t.order_n - 1 do
    let id = t.order.(i) in
    if id <= !seen then ok := false;
    seen := id;
    if Hashtbl.mem t.entries id then incr live_in_order
  done;
  if !live_in_order <> Hashtbl.length t.entries then ok := false;
  !ok

let stats t =
  {
    added = t.added;
    dropped_covered = t.dropped_covered;
    removed = t.removed_count;
    promoted = t.promoted_count;
    covered_scans = t.covered_scans;
    index_hits =
      Array.fold_left
        (fun acc sh -> acc + Active_set.index_hits sh.set)
        0 t.shards;
  }

(* -------------------------------------------------------------------
   Recovery: replaying journaled effects.

   Equivalence argument. A live mutation is (a) a deterministic state
   transformation given its recorded outcome, plus (b) a fixed number
   of [Prng.split] draws — one per group-policy classification. The
   outcomes are in the op; [consume_split] reproduces the draws. So
   replaying the journal on a fresh store with the same seed yields
   the same entries, placements, coverer links, active set, ids and
   generator state as the live sequence — which equal_state checks and
   the qcheck crash-point suite asserts for arbitrary op sequences.
   The ops carry no shard: homes are recomputed on install, so a
   journal replays into any shard count. *)

let consume_split t =
  match t.policy with
  | Group_policy _ ->
      t.splits <- t.splits + 1;
      ignore (Prng.split t.rng)
  | No_coverage | Pairwise_policy -> ()

(* Mirror of [remove]/[expire]: drop the recorded ids the store still
   holds, then apply the recorded orphan placements in place of the
   classify calls (one split each under group). *)
let apply_departures t ids reclassified =
  let dropped =
    List.filter_map
      (fun id -> Option.map (fun e -> (id, e)) (Hashtbl.find_opt t.entries id))
      ids
  in
  List.iter (fun (id, e) -> drop_entry t id e) dropped;
  List.iter (Hashtbl.remove t.children) (departed_actives dropped);
  List.iter
    (fun (oid, state) ->
      consume_split t;
      match Hashtbl.find_opt t.entries oid with
      | None -> ()
      | Some oe -> reclassify t oid oe state)
    reclassified

let apply_op t op =
  match op with
  | Op_add { id; sub; placement; expires_at } ->
      if id <> t.next_id then
        invalid_arg "Subscription_store.apply_op: non-contiguous id";
      if Subscription.arity sub <> t.arity then
        invalid_arg "Subscription_store.apply_op: arity mismatch";
      consume_split t;
      ignore (install t sub ~state:placement ~expires_at)
  | Op_remove { id; reclassified } -> apply_departures t [ id ] reclassified
  | Op_renew { id; expires_at } -> (
      match Hashtbl.find_opt t.entries id with
      | Some e -> e.expires_at <- expires_at
      | None -> ())
  | Op_expire { now = _; expired; reclassified } ->
      apply_departures t expired reclassified

type image = {
  i_next_id : id;
  i_splits : int;
  i_entries : (id * Subscription.t * placement * float) list;
}

let image t =
  {
    i_next_id = t.next_id;
    i_splits = t.splits;
    i_entries =
      fold_entries t ~init:[] ~f:(fun acc id e ->
          (id, e.sub, e.state, e.expires_at) :: acc)
      |> List.rev;
  }

let empty_image = { i_next_id = 0; i_splits = 0; i_entries = [] }

let restore ?policy ~arity ~seed img =
  let t = create ?policy ~arity ~seed () in
  for _ = 1 to img.i_splits do
    ignore (Prng.split t.rng)
  done;
  t.splits <- img.i_splits;
  let last = ref (-1) in
  List.iter
    (fun (id, sub, placement, expires_at) ->
      if id <= !last then
        invalid_arg "Subscription_store.recover: image ids not ascending";
      last := id;
      if Subscription.arity sub <> t.arity then
        invalid_arg "Subscription_store.recover: image arity mismatch";
      let e = { sub; state = placement; expires_at; home = home_of t sub } in
      Hashtbl.replace t.entries id e;
      order_push t id;
      place t id e placement)
    img.i_entries;
  if img.i_next_id <= !last then
    invalid_arg "Subscription_store.recover: image next_id too small";
  t.next_id <- img.i_next_id;
  t

let recover ?policy ~arity ~seed ?(image = empty_image) ops =
  let t = restore ?policy ~arity ~seed image in
  List.iter (apply_op t) ops;
  t

let equal_state a b =
  let entry_list t =
    fold_entries t ~init:[] ~f:(fun acc id e -> (id, e) :: acc) |> List.rev
  in
  let entry_equal (ida, ea) (idb, eb) =
    ida = idb
    && Subscription.equal ea.sub eb.sub
    && ea.state = eb.state
    && ea.expires_at = eb.expires_at
  in
  a.arity = b.arity && a.policy = b.policy && a.next_id = b.next_id
  && a.splits = b.splits
  && List.equal entry_equal (entry_list a) (entry_list b)
  && fst (active_arrays a) = fst (active_arrays b)
