(** Subscription store: active/covered sets, coverage policies,
    publication matching (Algorithm 5), unsubscription promotion (§5).

    A store keeps two sets: the {e active} set [S] of uncovered
    subscriptions — the only ones a broker propagates — and the
    {e covered} (passive) set [SS] of subscriptions subsumed by the
    active set, each remembering which active subscriptions cover it.
    The coverage policy decides where an arriving subscription lands:

    - {!No_coverage}: everything is active (flooding baseline);
    - {!Pairwise_policy}: covered iff a single active subscription
      covers it (Siena-style deterministic baseline);
    - {!Group_policy}: covered iff the engine's probabilistic group
      check says so (the paper's contribution) — with error ≤ δ a
      subscription can be wrongly classified as covered.

    Matching follows Algorithm 5: a publication is tested against the
    active set first; only when some active subscription matches can a
    covered one match, so the covered set is scanned only on a hit.

    {2 Shards}

    The active set is partitioned by the {e first attribute} into
    [shards] pieces, each an {!Active_set} (ids, boxed subscriptions
    and packed bounds, maintained in place, plus a counting index
    built by the shard's first match). The
    [domain0] range is split into [shards - 1] contiguous {e stripes}
    (the outer stripes extended to the unbounded sentinels so the
    stripes cover the whole line), plus one {e fallback} shard. An
    active subscription lives in the unique stripe that fully contains
    its first-attribute interval, or in the fallback when it spans a
    stripe boundary or is unconstrained on that attribute. With
    [shards = 1] (the default) the fallback is the whole active set.

    Every covering check consults the stripes its box overlaps on
    attribute 0, plus the fallback, and hands {!Engine.check} the
    consulted actives that intersect the box, in ascending id order.
    Actives anywhere else are disjoint from the box — precisely the
    candidates the engine's intersection pruning discards first — and
    since the engine prunes {e before} every other stage, the report
    is the one a pruning engine run over the whole active set gives
    (whatever the config's [use_pruning], every gathered candidate
    already intersects the box): same
    verdicts, witnesses, MCS traces (as ids), trial counts. Placements,
    ids, coverer lists, promotions, match sets, the split stream and
    every counter except [index_hits] are therefore the same at every
    shard count under the same seed and op sequence. *)

type id = int
(** Store-assigned subscription identifier, unique per store. *)

type policy =
  | No_coverage
  | Pairwise_policy
  | Group_policy of Engine.config

type placement =
  | Active
  | Covered of id list
      (** The ids of the active subscriptions recorded as coverers: the
          single coverer under pairwise, the MCS-reduced candidate set
          under group coverage. *)

type t
(** A mutable store. *)

val create :
  ?policy:policy ->
  ?shards:int ->
  ?domain0:Interval.t ->
  arity:int ->
  seed:int ->
  unit ->
  t
(** [create ~arity ~seed ()] builds an empty store for subscriptions
    with [arity] attributes. [seed] drives the engine's RSPC draws
    (group policy only): each group classification hands the engine a
    fresh {!Prng.split} of the store generator, so a given seed fixes
    every verdict. Default policy: [Group_policy Engine.default_config].
    [?shards] (default 1) is the total shard count, [shards - 1]
    first-attribute stripes plus the fallback. [?domain0] (default
    {!Interval.full}) is the first-attribute range to stripe; pass the
    workload's real attribute domain, or nearly all subscriptions land
    in one stripe.
    @raise Invalid_argument if [arity < 1], [shards < 1], or [domain0]
    is narrower than the stripe count. *)

val policy : t -> policy
val arity : t -> int
val size : t -> int
(** Total live subscriptions (active + covered). *)

val active_count : t -> int
val covered_count : t -> int

val add : t -> Subscription.t -> id * placement
(** [add t s] inserts [s] and reports where it landed.
    @raise Invalid_argument on an arity mismatch. *)

val add_with_expiry : t -> Subscription.t -> expires_at:float -> id * placement
(** Like {!add} but the subscription carries a lease: it is removed by
    the first {!expire} call with [now >= expires_at]. §5 proposes
    expiration as the broker-friendly alternative to explicit
    unsubscription forwarding. @raise Invalid_argument if [expires_at]
    is NaN. *)

val expiry : t -> id -> float
(** [infinity] for unleased subscriptions. @raise Not_found. *)

val renew : t -> id -> expires_at:float -> unit
(** Replace a subscription's lease deadline — the refresh half of the
    lease protocol: a home broker re-announcing a subscription extends
    its life instead of reinstalling it. Renewing an id the store no
    longer holds (e.g. already reclaimed by {!expire}) is a silent
    no-op: a refresh that races a sweep must not fail, and a journaled
    renew must not resurrect an expired entry on replay.
    @raise Invalid_argument if [expires_at] is NaN. *)

val expire : t -> now:float -> id list * id list
(** [expire t ~now] removes every subscription whose lease has run out
    and re-checks coverage for the covered subscriptions that depended
    on the departed ones. Returns [(expired, promoted)]. Promotions
    never resurrect a subscription that is itself expired at [now]. *)

val remove : t -> id -> id list
(** [remove t id] deletes a subscription. When an {e active}
    subscription leaves, every covered subscription that recorded it as
    a coverer is re-checked against the remaining active set and
    promoted to active if no longer covered (§5's replacement rule).
    Returns the promoted ids. Removing a covered subscription promotes
    nothing. @raise Not_found on an unknown id. *)

val find : t -> id -> Subscription.t
(** @raise Not_found on an unknown id. *)

val is_active : t -> id -> bool
(** @raise Not_found on an unknown id. *)

val active : t -> (id * Subscription.t) list
(** Active subscriptions, ascending id. *)

val active_arrays : t -> id array * Subscription.t array
(** The active set as parallel arrays (ascending id): fresh O(k)
    copies of the ids and subscriptions the store maintains in place. *)

val active_packed : t -> Flat.t
(** The active set's bounds, row for row with {!active_arrays}. On a
    one-shard store it is a copy-free {!Flat.view} of the buffer the
    store maintains in place at every active-set change, valid until
    the store's next mutation ({!add}, {!remove}, {!expire},
    {!apply_op}, ...): read it before mutating, never after. With
    several shards it is a fresh pack. *)

val covered : t -> (id * Subscription.t * id list) list
(** Covered subscriptions with their recorded coverers, ascending id. *)

val fallback_shard : t -> int
(** Index of the fallback shard: [shards - 1]. *)

val home_shard : t -> id -> int
(** The shard the subscription is (if active) or would be (if
    covered) stored in. @raise Not_found on an unknown id. *)

val shard_actives : t -> int array
(** Per-shard active counts, one entry per shard — load-balance
    diagnostics; sums to {!active_count}. *)

val match_publication : t -> Publication.t -> id list
(** Algorithm 5 with its multi-level optimization: ids of all matching
    subscriptions (active and covered), ascending. Only the shards
    whose region overlaps the publication's first-attribute value (or
    box range), plus the fallback, are consulted, each through its
    counting index ({!Counting_matcher}). A shard's first match builds
    that index in one pass over its actives, and later mutations
    maintain it, so a store that is never matched against (a broker's
    per-neighbour sent-set) never pays for one. Then only the covered
    subscriptions recorded under a {e matched} coverer are tested — a
    point inside a (correctly) covered subscription necessarily lies
    inside one of its coverers. Under {!Group_policy} a {e wrongly}
    covered subscription can be missed (its recorded "coverers" do not
    actually cover it) — the δ-bounded loss mode Proposition 5
    analyzes. @raise Invalid_argument if a coverer records a child the
    store no longer holds. *)

val match_publication_exhaustive : t -> Publication.t -> id list
(** Ground truth: match against {e every} live subscription, bypassing
    the two-level structure; used to quantify losses. *)

val check_publication : t -> rng:Prng.t -> Publication.t -> Engine.report
(** The general subsumption question against the {e active} set: is
    the publication's box covered by the union of active
    subscriptions? Read-only — the caller supplies [rng] (queries must
    never draw from the store's own generator, or interleaving them
    with arrivals would perturb later placements). Runs under the
    group-policy config when the store has one,
    {!Engine.default_config} otherwise. The engine sees the gathered
    candidates, so the report's rows index the actives intersecting
    the publication's box, ascending, and [k_initial] counts only
    them. *)

type stats = {
  added : int;
  dropped_covered : int;  (** Arrivals classified as covered. *)
  removed : int;
  promoted : int;
  covered_scans : int;  (** Subscriptions touched in covered-set scans. *)
  index_hits : int;
      (** Per-attribute counting-index hits processed by
          {!match_publication} over the consulted shards — the indexed
          path's unit of work ({!Counting_matcher.inspections}); the
          only counter the shard count changes. *)
}

val stats : t -> stats
(** Monotone counters since creation. *)

val validate : t -> bool
(** Structural invariants, for tests: coverer references are live and
    active, the multi-level child index is the exact inverse of the
    covered-by relation, (pairwise policy) every recorded coverer
    really covers its child, the insertion-order vector agrees with
    the entry table, and each shard's active set holds exactly the
    active entries homed there by the routing function — ascending
    ids, their very subscriptions, bounds equal to [Flat.pack] of
    them. *)

(** {1 Durability: effect journal and crash recovery}

    The store can journal every completed mutation as an {!op} — an
    {e effect} record carrying the classified placements, not the
    inputs — so a write-ahead log replays without re-running the
    probabilistic engine. Replay is deterministic, and the generator
    stream is kept aligned by consuming exactly the {!Prng.split}
    draws the live classifications made (one per group-policy
    classification; counted in {!splits_consumed}). *)

type op =
  | Op_add of {
      id : id;
      sub : Subscription.t;
      placement : placement;
      expires_at : float;
    }  (** One {!add} or {!add_with_expiry}. *)
  | Op_remove of { id : id; reclassified : (id * placement) list }
      (** One {!remove}; [reclassified] lists every orphan re-checked
          after an active departure, with its new placement. *)
  | Op_renew of { id : id; expires_at : float }
      (** One effective {!renew} (no-op renews are not journaled). *)
  | Op_expire of {
      now : float;
      expired : id list;
      reclassified : (id * placement) list;
    }  (** One {!expire} that reclaimed at least one lease. *)

val set_journal : t -> (op -> unit) option -> unit
(** Install (or clear) the journal callback, invoked after each
    completed mutation. Replay via {!apply_op}/{!recover} never
    re-journals. *)

val splits_consumed : t -> int
(** Number of {!Prng.split} draws classifications have consumed so
    far — the generator fast-forward distance recovery needs. *)

val apply_op : t -> op -> unit
(** Apply one journaled effect without classification: placements are
    taken from the record and the implied split draws are consumed, so
    a replayed store tracks the live store's state {e and} generator.
    Unknown ids in removals/renewals/expiries are ignored (replay of a
    prefix must never fail). @raise Invalid_argument if an [Op_add]
    id is not the store's next id or its arity mismatches — a log that
    was not produced by this store's journal. *)

type image = {
  i_next_id : id;
  i_splits : int;
  i_entries : (id * Subscription.t * placement * float) list;
      (** Live entries ascending by id: [(id, sub, placement,
          expires_at)]. *)
}
(** A snapshot of everything {!recover} needs: replaying an image then
    a journal suffix is equivalent to replaying the full journal. *)

val image : t -> image

val empty_image : image
(** The image of a freshly created store: no entries, no consumed
    splits, next id 0. *)

val recover :
  ?policy:policy -> arity:int -> seed:int -> ?image:image -> op list -> t
(** [recover ~arity ~seed ops] rebuilds a one-shard store from a
    snapshot image (default: empty) plus a journaled op suffix. [policy],
    [arity] and [seed] must be those of the original store, whatever
    its shard count (ops record placements, not shards); the result
    then satisfies [equal_state original (recover ...)] — same entries,
    placements, coverer links, active ids, next id and generator
    position. @raise Invalid_argument on a malformed image or an
    [Op_add] inconsistent with the rebuilt state. *)

val equal_state : t -> t -> bool
(** Logical-state equality: policy, arity, next id, consumed splits,
    the full entry table (ids, subscriptions, placements, leases) and
    the active ids. The shard layout is not compared, so a store
    equals its one-shard recovery; {!validate} checks the structure.
    Read-path counters ([stats]) are excluded — they are not part of
    durable state. *)
