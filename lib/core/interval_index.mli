(** Incremental centered interval tree over flat [int] arrays: the
    per-attribute index of the counting matcher ({!Counting_matcher}).

    Given a publication value [v], the index enumerates every stored
    interval containing [v] in O(log n + answers); given a box range
    [q], every stored interval containing all of [q], at the same cost.
    Queries read only arrays and allocate nothing.

    Mutations never touch the tree. Additions land in a pending buffer
    that queries scan linearly; removals are mere counters (the owner's
    [live] oracle filters retired entries out of query results). An
    amortized compaction drops the dead entries and rebuilds the tree
    over the rest, in O(n log n), before either can degrade query cost,
    so all compaction work rides on the {e mutation} path and
    publication matching latency stays flat.

    Entries are identified by a [(key, stamp)] pair chosen by the
    owner. Keys may be reused (the counting matcher recycles slot
    numbers across lease expiry sweeps); stamps must be unique per
    insertion, so a stale index entry for a recycled key fails the
    [live ~key ~stamp] check instead of resurrecting. Bounds may be any
    [int]s, [min_int] and [max_int] included. *)

type t

val create : live:(key:int -> stamp:int -> bool) -> unit -> t
(** [create ~live ()] builds an empty index. [live] must answer, for
    any [(key, stamp)] ever inserted, whether that insertion is still
    current; it is consulted on the query path and must be cheap and
    non-allocating. *)

val add : t -> key:int -> stamp:int -> Interval.t -> unit
(** Insert an interval under [(key, stamp)]. Amortized O(log n):
    usually a buffer append, occasionally a compaction. *)

val append : t -> key:int -> stamp:int -> Interval.t -> unit
(** {!add} without the compaction check: a bulk load appends every
    entry, then calls {!compact} once, instead of compacting
    geometrically on the way. *)

val note_dead : t -> unit
(** Tell the index one of its entries was retired (its [live] check
    now fails). Triggers compaction once retirees outnumber half the
    entries. *)

val size : t -> int
(** Live entries (assuming every retirement was noted). *)

val iter_stab : t -> int -> f:(int -> unit) -> unit
(** [iter_stab t v ~f] calls [f key] for every live interval
    containing [v]; at most once per (key, stamp) insertion, in
    unspecified order. Allocation-free. *)

val iter_containing : t -> Interval.t -> f:(int -> unit) -> unit
(** [iter_containing t q ~f] calls [f key] for every live interval
    that {e contains} the whole query interval [q] — the box-matching
    dual of {!iter_stab}, which is the query for [[v, v]].
    Allocation-free. *)

val compact : t -> unit
(** Drop the dead entries and rebuild the tree over the rest now, in
    O(n log n). A bulk load calls it once after its {!append}s. *)
