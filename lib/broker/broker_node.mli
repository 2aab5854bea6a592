(** A single broker implementing covering-based reverse path forwarding
    (§2), with the coverage policy applied {e per outgoing neighbour}:
    a subscription is forwarded to neighbour [N] unless the set of
    subscriptions already sent to [N] covers it — exactly the paper's
    Fig. 1 walk-through, where B4 withholds [s2] from B5/B7 (it sent
    them the covering [s1]) but still forwards it to B3 ([s1] came {e
    from} B3).

    The broker is a pure-ish state machine: {!handle} consumes a
    message and returns the actions the network layer must perform
    (forwards and client notifications). This keeps brokers
    independently testable without a simulator.

    With a [lease_ttl], every installed subscription (routing table and
    per-peer sent-sets) carries a lease; {!sweep} reclaims expired
    entries and returns the promotion forwards — the self-healing that
    repairs state stranded by lost [Unsubscribe]s. Refresh waves
    (Subscribe messages with a higher epoch) renew leases and repair
    neighbour state lost to crashes. *)

open Probsub_core

type t

type action =
  | Forward of { to_ : Topology.broker; payload : Message.payload }
  | Notify of { client : int; key : int; pub_id : int }
      (** Deliver publication [pub_id] to a local [client] whose
          subscription [key] matched. *)

val create :
  ?use_advertisements:bool -> ?lease_ttl:float -> ?dedup_capacity:int ->
  ?device:Probsub_store_log.Device.t -> ?recover:bool ->
  id:Topology.broker -> neighbors:Topology.broker list ->
  policy:Subscription_store.policy -> arity:int -> seed:int -> unit -> t
(** One coverage-checking store per outgoing neighbour plus a local
    routing store (the received table of Algorithm 5). With
    [use_advertisements] (default false), subscriptions are only
    forwarded towards neighbours from which an intersecting
    advertisement arrived — Siena-style advertisement routing; when a
    new advertisement opens a route, pending subscriptions are offered
    along it retroactively. [lease_ttl] (default: none) puts every
    installed subscription on a lease of that many simulated seconds.
    [dedup_capacity] (default 4096) bounds the publication-dedup
    window, so arbitrarily long simulations use constant memory.
    With a [device], the routing table is durable: every mutation is
    journalled through a {!Probsub_store_log.Store_log} write-ahead
    log before the handling call returns, and {!restart} recovers it
    instead of starting empty. The device is initialised fresh here
    unless [recover] (default false) is set {e and} the device holds
    recoverable state, in which case the routing table, bindings and
    epochs are rebuilt from it — the path a real server process takes
    when it comes back from kill -9 over its surviving WAL directory.
    Rng draws are sequenced so a durable broker behaves bit-identically
    to a plain one until it crashes.
    @raise Invalid_argument if [lease_ttl] is not positive. *)

val id : t -> Topology.broker

val handle :
  t -> now:float -> origin:Message.origin -> Message.payload -> action list
(** Process one message at simulated time [now] (leases installed or
    renewed by this message run [lease_ttl] from [now]):

    - [Subscribe], unknown key: record in the routing table; for each
      neighbour other than the origin, forward unless that neighbour's
      sent-set covers the subscription.
    - [Subscribe], known key with a {e higher} epoch (a lease refresh):
      renew every lease held for the key, re-offer it to neighbours
      whose sent-set entry is missing (repairing crash loss), and
      re-forward along links where it is active so the wave renews the
      whole dissemination tree. A known key at the current epoch (the
      same wave over another path) is dropped.
    - [Unsubscribe]: drop from the routing table; per neighbour, an
      unsubscribe forward is emitted only if the subscription had
      actually been sent there, and any subscriptions whose cover it
      provided are promoted — i.e. (re)sent (§5).
    - [Advertise]: record and flood; in advertisement mode, offer
      intersecting known subscriptions towards the link it came from.
    - [Unadvertise]: drop and flood. Subscriptions already routed along
      the perished path are left in place (they are harmless and will
      age out with their own unsubscriptions).
    - [Publish]: match against the routing table (Algorithm 5
      two-level matching); notify matching local clients and forward
      towards every neighbour that sent a matching subscription,
      except the link it arrived on. Duplicate publication ids within
      the dedup window are dropped.
    - [Ack]: no-op — the network's reliable-channel layer consumes
      acks before they reach a broker. *)

val sweep : t -> now:float -> int * action list
(** Expire every lease that ran out by [now], across the routing table
    and all per-neighbour sent-sets. Returns the number of reclaimed
    entries and the [Subscribe] forwards for peer-store promotions
    (entries whose expired coverer was the only reason they never
    crossed the link). *)

val reset : t -> unit
(** Forget all state — routing and peer tables, advertisements,
    epochs, the publication dedup window. On a durable broker the
    device is also re-initialised (a deliberate wipe, not a crash).
    Models an amnesiac crash/restart; the lease/refresh machinery
    reinstalls live state. *)

val restart : t -> unit
(** Come back from a crash. A durable broker recovers its routing
    table and key/origin/epoch maps from the device's WAL + snapshot —
    including a WAL damaged by the crash (cut back to the longest
    valid record prefix, with any entry the surviving log cannot fully
    account for removed); per-neighbour sent-sets, advertisements and
    the dedup window are soft state and start empty either way. On a
    broker without a device this is exactly {!reset}. *)

val durable : t -> bool
(** True when the broker journals its routing table to a device. *)

val wal_bytes : t -> int option
(** Current WAL size of a durable broker ([None] otherwise). *)

val compact_wal : t -> unit
(** Snapshot the routing table (with its key/origin/epoch bindings)
    and truncate the WAL. No-op on a non-durable broker. *)

val maybe_compact : ?threshold_bytes:int -> t -> bool
(** {!compact_wal} when the WAL exceeds [threshold_bytes] (default
    32 KiB); returns whether a compaction ran. *)

val knows_subscription : t -> key:int -> bool
(** True when [key] is in the routing table. *)

val client_subscriptions : t -> (int * int * Subscription.t) list
(** Routing-table entries installed by locally connected clients, as
    [(key, client, sub)] ascending by key. On a durable broker this is
    recovered from the WAL by {!restart}, so a real server can resume
    driving lease-refresh waves for its clients after a crash. *)

val subscription_epoch : t -> key:int -> int
(** Latest refresh epoch seen for [key] (0 if unknown or never
    refreshed). *)

val knows_advertisement : t -> key:int -> bool

val routing_table_size : t -> int
(** Live entries in the routing table. *)

val match_counters : t -> int * int
(** [(scans, index_hits)] accumulated by the routing store since
    creation: one-by-one [Publication.matches] tests of covered
    subscriptions during the multi-level descent, and counting-index
    hits processed on the indexed active-set path. Monotone; diff
    around a [handle] call to attribute matching work to one
    message. *)

val fence_epoch : t -> int
(** The highest failover epoch this broker identity has committed to
    (0 when never fenced). Recovered from the WAL on a durable
    broker. *)

val raise_fence : t -> epoch:int -> unit
(** Commit to [epoch]: journalled (durable broker) before the call
    returns, so a later restart still knows. Monotone — lower or equal
    epochs are no-ops. *)

val active_towards : t -> neighbor:Topology.broker -> int
(** Subscriptions actually sent (active) towards a neighbour — the
    per-link subscription state whose growth the covering machinery
    bounds. @raise Invalid_argument for a non-neighbour. *)

val suppressed_towards : t -> neighbor:Topology.broker -> int
(** Subscriptions withheld from a neighbour by covering. *)
