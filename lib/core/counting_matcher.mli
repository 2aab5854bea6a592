(** The counting algorithm for publication matching (Yan &
    García-Molina, the paper's reference [18] — "all algorithms rely on
    some version of the counting algorithm").

    Instead of testing each subscription against a publication
    (O(m·k)), the matcher indexes every {e constrained} range in a
    per-attribute {!Interval_index.Dyn}; a publication stabs each index
    once and counts, per subscription, how many of its predicates were
    satisfied. A subscription matches iff the count equals its number
    of constrained attributes. Cost per publication:
    O(Σ_j (log k + hits_j)) — sub-linear in k when selectivity is
    decent.

    The structure is fully incremental: add/remove maintain the
    per-attribute indexes directly (amortized compaction rides the
    mutation path). A populated set is indexed in one pass by
    {!build} instead, which is how a store's {!Active_set} builds its
    index at its first match. The match path allocates no scratch
    state —
    hit counters live in preallocated slot-indexed [int array]s reset
    in O(1) per publication by a generation stamp, and slots recycled
    across removals carry fresh stamps so stale index entries can
    never score. Box publications run the same counting scheme with a
    per-attribute {e containment} query instead of a stab. *)

type t

val create : arity:int -> unit -> t
(** @raise Invalid_argument if [arity < 1]. *)

val build : arity:int -> int array -> Subscription.t array -> len:int -> t
(** [build ~arity ids subs ~len] indexes the first [len] pairs
    [(ids.(i), subs.(i))] in one pass: every constrained range is
    appended to its attribute's index and each index is compacted
    once. It answers every query as [len]
    {!add}s would — {!iter_matches} order aside, which is unspecified
    either way. This is how {!Active_set} builds its index at its
    first match. @raise Invalid_argument if [len] exceeds either
    array, and as {!add} on an arity mismatch or a duplicate id. *)

val arity : t -> int
val size : t -> int

val add : t -> id:int -> Subscription.t -> unit
(** O(#constrained) amortized.
    @raise Invalid_argument on an arity mismatch or a duplicate id. *)

val remove : t -> id:int -> unit
(** O(#constrained) amortized; the subscription's index entries are
    retired lazily (filtered on the query path, reclaimed by the next
    compaction). @raise Not_found for an unknown id. *)

val mem : t -> id:int -> bool

val match_point : t -> int array -> int list
(** Ids of all subscriptions matching the point, ascending.
    @raise Invalid_argument on an arity mismatch. *)

val match_publication : t -> Publication.t -> int list
(** Point publications stab each per-attribute index; box publications
    ask each index for the stored ranges {e containing} the box's
    range — both pure counting, both allocation-free up to the result
    list. @raise Invalid_argument on an arity mismatch. *)

val iter_matches : t -> Publication.t -> f:(int -> unit) -> unit
(** [iter_matches t pub ~f] calls [f id] once per matching
    subscription, in unspecified order, without building the result
    list — the store's hot entry point. Not reentrant: the callback
    must not call back into [t]. *)

val inspections : t -> int
(** Monotone count of per-attribute index hits processed by match
    calls since creation — the matcher's unit of work, the counting
    analogue of the store's scan counters. *)

val rebuild : t -> unit
(** Force-compact every per-attribute index now (e.g. before a latency
    measurement). Matching never compacts; mutations do, amortized. *)
