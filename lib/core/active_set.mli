(** The active (uncovered) set of one subscription-store shard, kept
    ready for both questions the store asks of it.

    One value holds, row-aligned and in ascending id order, the active
    ids, their boxed subscriptions and their packed {!Flat} bounds.
    Every membership change updates all three in place — a fresh id
    appends, a re-activated (§5 promoted) id is inserted at its sorted
    position, a departing id is deleted — so admission scans a
    copy-free {!packed} view for candidates, and nothing is ever
    rebuilt from the store's entry table.

    The {!Counting_matcher} over the members is built by the first
    {!iter_matches}, in one pass over the rows
    ({!Counting_matcher.build}), and maintained by every later
    {!add} and {!remove}. A set that is never matched against — a
    broker's per-neighbour sent-set answers covering checks only —
    never holds one. *)

type t

val create : arity:int -> t
(** An empty set of [arity]-attribute subscriptions.
    @raise Invalid_argument if [arity < 1]. *)

val length : t -> int

val add : t -> int -> Subscription.t -> unit
(** [add t id s] inserts [s] at [id]'s sorted position: amortized
    O(m) plus the counting-index insert (once the index exists) when
    [id] exceeds every member (fresh arrivals), plus an O(k·m) shift
    otherwise.
    @raise Invalid_argument if [id] is already a member or the arity
    differs. *)

val remove : t -> int -> unit
(** @raise Not_found if [id] is not a member. *)

val id : t -> int -> int
(** [id t row]: the id in row [row] (ascending over rows).
    @raise Invalid_argument outside [0, length). *)

val sub : t -> int -> Subscription.t
(** [sub t row]: the subscription in row [row].
    @raise Invalid_argument outside [0, length). *)

val to_list : t -> (int * Subscription.t) list
(** Members in ascending id order. *)

val arrays : t -> int array * Subscription.t array
(** Fresh copies of the ids and subscriptions, ascending, O(k). *)

val packed : t -> Flat.t
(** The members' bounds as a {!Flat.view}: row [i] is {!sub}[ t i].
    O(1), no copy; valid until the next {!add} or {!remove}. *)

val iter_matches : t -> Publication.t -> f:(int -> unit) -> unit
(** {!Counting_matcher.iter_matches} over the members. The first call
    builds the index ({!Counting_matcher.build}); later calls only
    query it. *)

val index_hits : t -> int
(** {!Counting_matcher.inspections} of the members' index; 0 while no
    match has built it. *)

val consistent : t -> find:(int -> Subscription.t option) -> bool
(** Invariant check, for the store's [validate]: ids strictly
    ascending; every member [id] has [find id = Some s] with [s]
    physically the member's subscription; the packed bounds equal
    [Flat.pack] of the members; the matcher, once built, indexes
    exactly the members. *)
