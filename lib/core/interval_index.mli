(** Centered interval tree: stabbing queries over a set of integer
    intervals.

    Supports the per-attribute lookups of the counting matcher
    ({!Counting_matcher}): given a publication value [v], enumerate the
    identifiers of every stored interval containing [v] in
    O(log n + answers). The tree is static; {!build} constructs it from
    a snapshot in O(n log n). Mutating callers keep a dirty flag and
    rebuild lazily — subscription tables change far more slowly than
    publications arrive (§1), so amortized rebuilds are the right
    trade-off and keep the structure simple and obviously correct. *)

type t

val build : (int * Interval.t) list -> t
(** [build entries] indexes [(id, interval)] pairs. Ids need not be
    distinct (a subscription may contribute several intervals on one
    attribute in extensions); all entries are reported. *)

val empty : t
val size : t -> int

val stab : t -> int -> int list
(** [stab t v] lists the ids of all intervals containing [v], in
    unspecified order. *)

val iter_stab : t -> int -> f:(int -> unit) -> unit
(** Allocation-light variant of {!stab} for the matcher's hot path. *)

val count_stab : t -> int -> int
(** Number of intervals containing [v]. *)

val overlapping : t -> Interval.t -> int list
(** [overlapping t q] lists the ids of all stored intervals sharing at
    least one point with [q], in unspecified order, in
    O(log n + answers) — the range generalisation of {!stab} ({!stab}
    [v] = [overlapping] on the degenerate interval [v,v]). The sharded
    store's shard map uses it to find every stripe a subscription or a
    box publication can overlap. *)

val iter_overlapping : t -> Interval.t -> f:(int -> unit) -> unit
(** Allocation-light variant of {!overlapping}. *)

(** Incremental index for the matcher's data plane.

    The static tree above is rebuilt wholesale by its callers; [Dyn]
    instead absorbs mutations as they happen: additions land in a small
    pending buffer scanned linearly by queries, removals are mere
    counters (the owner's [live] oracle filters retired entries out of
    query results), and an amortized compaction folds both back into a
    fresh static tree before either can degrade query cost. Queries
    therefore never trigger a rebuild — all compaction work rides on
    the {e mutation} path, keeping publication matching latency flat.

    Entries are identified by a [(key, stamp)] pair chosen by the
    owner. Keys may be reused (the counting matcher recycles slot
    numbers across lease expiry sweeps); stamps must be unique per
    insertion, so a stale index entry for a recycled key fails the
    [live ~key ~stamp] check instead of resurrecting. *)
module Dyn : sig
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
      dual of {!iter_stab}. Allocation-free. *)

  val compact : t -> unit
  (** Force a compaction now (e.g. before a latency measurement). *)
end
