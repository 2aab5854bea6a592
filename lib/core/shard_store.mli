(** Sharded subscription fabric: {!Subscription_store} partitioned by
    attribute-space region, scaling covering checks and matching to
    very large stores.

    The flat store classifies every arrival against the {e whole}
    active set — O(k·m) just to prune candidates. The sharded store
    partitions the
    active set by the {e first attribute}: the configured [domain0]
    range is split into [shards - 1] contiguous {e stripes} (the outer
    stripes extended to the unbounded sentinels so the stripes cover
    the whole line), plus one {e fallback} shard. An active
    subscription lives in the unique stripe that fully contains its
    first-attribute interval, or in the fallback when it spans a
    stripe boundary or is unconstrained on that attribute. Each shard
    owns an {!Active_set} of the actives homed there (ids, boxed
    subscriptions, packed bounds and counting index, all maintained in
    place), so a covering check touches only the shards an arrival can
    overlap and an active-set change edits one shard's set.

    {2 Confinement is pruning}

    A covering check for [s] consults exactly the stripes whose region
    overlaps [s]'s first-attribute interval, plus the fallback.
    Actives in any other stripe are disjoint from [s] on attribute 0,
    i.e. precisely the candidates the engine's intersection pruning
    would discard first. Since {!Engine.check} prunes {e before} every
    other stage, handing it the gathered (ascending-id) candidates of
    the consulted shards yields a report {e bit-identical} to the flat
    store's over the full set — same verdicts, witnesses, MCS traces
    (as ids), trial counts. The store therefore forces [use_pruning]
    on in its group-policy config: shard confinement {e is} pruning,
    and disabling it would break the equivalence it relies on.

    {2 Seed discipline}

    Classifications draw exactly one {!Prng.split} of the store
    generator each, in arrival (re-classification: ascending-id)
    order — the same stream the flat store consumes. Under a fixed
    seed, placements, coverer ids, match sets and counters (except the
    scan counters, which shrink — that is the point) are equal to the
    flat store's, whether items arrive through {!add} or
    {!add_batch}.

    The sharded store does not journal; pair it with the flat store's
    durability hooks when persistence is needed. *)

type id = int
(** Store-assigned subscription identifier; assigned in arrival order,
    identical to the flat store's under the same op sequence. *)

type t

val create :
  ?policy:Subscription_store.policy ->
  ?shards:int ->
  ?domain0:Interval.t ->
  arity:int ->
  seed:int ->
  unit ->
  t
(** [create ~arity ~seed ()] builds an empty sharded store.
    [?shards] (default 8, minimum 1) is the total shard count:
    [shards - 1] first-attribute stripes plus the fallback;
    [shards = 1] degenerates to a single fallback shard — flat-store
    behaviour. [?domain0] (default {!Interval.full}) is the
    first-attribute range to stripe; pass the workload's real
    attribute domain, or nearly all subscriptions land in one stripe.
    [?policy] defaults to [Group_policy Engine.default_config]; a
    group config is normalised with [use_pruning = true] (see above).
    @raise Invalid_argument if [arity < 1] or [shards < 1]. *)

val policy : t -> Subscription_store.policy
(** The (normalised) policy in force. *)

val arity : t -> int
val size : t -> int
val active_count : t -> int
val covered_count : t -> int

val shard_count : t -> int
(** Total shards, stripes + fallback. *)

val fallback_shard : t -> int
(** Index of the fallback shard (always [shard_count - 1]). *)

val home_shard : t -> id -> int
(** The shard the subscription is (if active) or would be (if
    covered) stored in. @raise Not_found for an unknown id. *)

val shard_actives : t -> int array
(** Per-shard active counts, [shard_count] entries — load-balance
    diagnostics; sums to {!active_count}. *)

val splits_consumed : t -> int
(** Generator splits drawn so far; equals the flat store's under the
    same op sequence. *)

val add : t -> Subscription.t -> id * Subscription_store.placement
(** As {!Subscription_store.add}, confined to the consulted shards.
    @raise Invalid_argument on an arity mismatch. *)

val add_batch :
  t -> Subscription.t array -> (id * Subscription_store.placement) array
(** [add_batch t subs] inserts the whole batch: [subs] fed one by one
    through {!add} in index order.
    @raise Invalid_argument if any item's arity mismatches (checked up
    front, before any insertion). *)

val add_with_expiry :
  t -> Subscription.t -> expires_at:float -> id * Subscription_store.placement
(** As {!Subscription_store.add_with_expiry}.
    @raise Invalid_argument on an arity mismatch or NaN lease. *)

val expiry : t -> id -> float
(** [infinity] for unleased subscriptions. @raise Not_found. *)

val renew : t -> id -> expires_at:float -> unit
(** As {!Subscription_store.renew}: unknown ids are a no-op.
    @raise Invalid_argument on a NaN lease. *)

val remove : t -> id -> id list
(** As {!Subscription_store.remove}: drop the subscription, re-check
    the orphans a departing active leaves behind (ascending id, one
    split each) and return the promoted ids. @raise Not_found. *)

val expire : t -> now:float -> id list * id list
(** As {!Subscription_store.expire}: sweep leases, then reclassify the
    orphans of every departed active. Returns (expired, promoted). *)

val find : t -> id -> Subscription.t
(** @raise Not_found. *)

val is_active : t -> id -> bool
(** @raise Not_found. *)

val active : t -> (id * Subscription.t) list
(** Active subscriptions in ascending id order (across all shards). *)

val covered : t -> (id * Subscription.t * id list) list
(** Covered subscriptions with their recorded coverers, ascending. *)

val match_publication : t -> Publication.t -> id list
(** Algorithm 5 with multi-level descent, fanned out through the shard
    map: only the shards whose region overlaps the publication's
    first-attribute value (or box range) — plus the fallback — are
    consulted, and each consulted shard answers through its per-shard
    counting index ({!Counting_matcher}) rather than a linear scan of
    its actives. The hit list is identical to the flat store's. *)

val match_publication_exhaustive : t -> Publication.t -> id list
(** Ground truth against every live subscription, bypassing both the
    two-level structure and the shard map. *)

val check_publication : t -> rng:Prng.t -> Publication.t -> Engine.report
(** As {!Subscription_store.check_publication}, confined to the
    consulted shards: verdict, witness, [k_pruned] and every
    downstream diagnostic equal the flat store's ([k_initial] reflects
    only the gathered candidates). Read-only; never draws from the
    store generator. *)

val stats : t -> Subscription_store.stats
(** Monotone counters since creation. [index_hits] sums the consulted
    shards' counting-index work — compare it against a flat store's to
    measure the fan-out saving; [active_scans] stays zero on the
    indexed match path; all other counters match the flat store's
    exactly under the same seed and op sequence. *)

val validate : t -> bool
(** Structural invariants, for tests: the flat store's coverage
    invariants, plus the shard map's — every active lives in exactly
    its home shard, shard id arrays are strictly ascending and total
    {!active_count}, homes agree with the routing function, and each
    shard's {!Active_set} aliases its entries' subscriptions with
    packed bounds equal to [Flat.pack] of them. *)
