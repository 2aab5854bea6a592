(** Flat, cache-friendly subscription kernels (structure-of-arrays).

    The boxed model ([Subscription.t array] of [Interval.t] records)
    costs two pointer indirections per bound on the RSPC hot path. A
    {!t} packs an entire subscription set into a single [int array] in
    SoA layout — the [lo] plane first, then the [hi] plane, each
    [k × m] row-major — so the inner loop of Algorithm 1 is a linear
    walk over machine integers. Combined with {!random_point_into}
    filling a preallocated point buffer (and {!Prng}'s unboxed state),
    one RSPC trial performs {e zero} minor-heap allocation; the bench
    asserts this.

    The candidate-pruning helpers implement the soundness argument of
    DESIGN "Data layout & hot path": a subscription that does not
    intersect the tested box [s] contains no point of [s], so dropping
    it can change neither the group-coverage answer nor any witness. *)

type t
(** A packed subscription set. A pack made by {!pack} or {!gather} is
    immutable. A {!view} of a growable {!rows} buffer shares the
    buffer: it stays valid until that buffer's next {!rows_insert} or
    {!rows_delete}, after which it must not be read. *)

type box
(** A packed tested subscription [s]: one [lo] and one [hi] array of
    length [m]. *)

val pack : m:int -> Subscription.t array -> t
(** [pack ~m subs] packs the set ([k = Array.length subs] rows of [m]
    attributes) in O(k·m). @raise Invalid_argument if [m < 1] or some
    subscription has a different arity. *)

val box_of_sub : Subscription.t -> box

val k : t -> int
(** Number of packed subscriptions. *)

val m : t -> int
(** Number of attributes per subscription. *)

val box_arity : box -> int

val lo : t -> row:int -> attr:int -> int
val hi : t -> row:int -> attr:int -> int

val row_sub : t -> int -> Subscription.t
(** [row_sub t i] re-boxes row [i] (tests, error reporting). *)

val gather : t -> int array -> t
(** [gather t rows] packs the selected rows, preserving order — the
    pruned or MCS-reduced candidate set without re-reading any boxed
    subscription. @raise Invalid_argument on an out-of-range row. *)

val equal : t -> t -> bool
(** Same [k], same [m] and the same bounds row for row, wherever each
    side keeps its planes. *)

(** {1 Growable packs}

    The stores keep their active set packed at all times: rows are
    inserted and deleted in place in a capacity-doubling buffer, and
    {!view} hands the current rows to the engine without copying. *)

type rows
(** A mutable packed set of [m]-attribute rows. *)

val blit_ints : int array -> int -> int array -> int -> int -> unit
(** [blit_ints src src_pos dst dst_pos len]: {!Array.blit} for
    [int array]s, overlap-safe, without the per-element write barrier
    [Array.blit] pays into a major-heap destination.
    @raise Invalid_argument if either range is out of bounds. *)

val rows_create : m:int -> rows
(** An empty buffer. @raise Invalid_argument if [m < 1]. *)

val rows_insert : rows -> at:int -> Subscription.t -> unit
(** [rows_insert r ~at s] makes [s] row [at], shifting the rows from
    [at] on down by one; O(m) plus the shift, amortized.
    @raise Invalid_argument if [at] is outside [0, k] or the arity
    differs. *)

val rows_delete : rows -> at:int -> unit
(** [rows_delete r ~at] removes row [at], shifting the rows after it
    up by one. @raise Invalid_argument if [at] is outside [0, k). *)

val view : rows -> t
(** The buffer's current rows as a {!t}, in O(1) and without copying
    any bound. Valid until the next {!rows_insert} or {!rows_delete}
    on the buffer. *)

val random_point_into : rng:Prng.t -> box -> int array -> unit
(** [random_point_into ~rng box p] overwrites [p] with a uniform point
    of [box] — one {!Prng.int_in} draw per attribute, ascending, so the
    stream matches {!Rspc.random_point} exactly. Allocation-free.
    @raise Invalid_argument if [Array.length p <> box_arity box]. *)

val covers_row : t -> row:int -> int array -> bool
(** [covers_row t ~row p] tests whether packed row [row] contains [p];
    agrees with [Subscription.covers_point] on the boxed original. *)

val escapes : t -> int array -> bool
(** [escapes t p] is true when [p] lies in none of the packed rows —
    the flat equivalent of {!Rspc.escapes}, allocation-free. *)

val intersecting_rows : t -> box -> int array
(** [intersecting_rows t box] lists (ascending) the rows whose
    rectangle intersects [box], in one O(k·m) early-exit scan.
    @raise Invalid_argument on an arity mismatch. *)
