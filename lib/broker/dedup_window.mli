(** Capacity-bounded duplicate-suppression window: a ring of the most
    recently seen integer ids, indexed by an open-addressing table of
    ring positions for O(1) expected membership. Both are flat
    [int array]s sized at creation (about three words per id of
    capacity), and no operation allocates.
    Once [capacity] ids are held, remembering a fresh id forgets the
    oldest one — so memory stays constant over arbitrarily long
    simulations, at the cost that an id older than the last [capacity]
    distinct arrivals is no longer recognized as a duplicate. Used for
    publication dedup in brokers and per-link sequence dedup in the
    reliable control channel. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int
val size : t -> int
(** Ids currently remembered; never exceeds {!capacity}. *)

val mem : t -> int -> bool

val admit : t -> int -> bool
(** [admit t id] is [false] if [id] is remembered; otherwise it
    remembers [id], evicting the oldest remembered id when full, and
    is [true]. One lookup for a receiver's duplicate check. *)

val add : t -> int -> unit
(** [ignore (admit t id)]: remember an id, evicting the oldest
    remembered id when full. Adding an id already in the window is a
    no-op. *)

val clear : t -> unit
(** Forget everything (broker restart). *)
