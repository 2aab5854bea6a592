(** Network-wide traffic counters. Subscription traffic is the quantity
    the paper's covering machinery reduces; publication losses are the
    price of an erroneous probabilistic cover (Proposition 5). The
    fault/recovery counters quantify the injected damage and the repair
    work the lease protocol performs. *)

type t = {
  mutable subscribe_msgs : int;  (** Subscribe messages over links. *)
  mutable unsubscribe_msgs : int;
  mutable advertise_msgs : int;
      (** Advertise/unadvertise messages over links. *)
  mutable publish_msgs : int;  (** Publish messages over links. *)
  mutable ack_msgs : int;  (** Link-level control acknowledgements. *)
  mutable notifications : int;  (** Client deliveries. *)
  mutable suppressed_subscriptions : int;
      (** Subscribe forwards withheld because of a covering decision. *)
  mutable duplicate_drops : int;
      (** Messages dropped by duplicate suppression (cyclic routes,
          link-level sequence dedup, stale refresh epochs). *)
  mutable dropped_msgs : int;
      (** Link traversals lost to injected faults, plus in-flight
          messages discarded at a crashed broker. *)
  mutable duplicated_msgs : int;  (** Extra copies injected by faults. *)
  mutable retransmissions : int;
      (** Control messages re-sent after an ack timeout. *)
  mutable lease_renewals : int;
      (** Refresh cycles initiated by subscriber home brokers. *)
  mutable lease_expiries : int;
      (** Leased entries reclaimed by broker sweeps (stranded state
          self-healing). *)
  mutable crashes : int;  (** Broker crash events. *)
  mutable match_scans : int;
      (** One-by-one [Publication.matches] tests performed by routing
          stores while matching publications (covered-set descent plus
          any non-indexed active scans). *)
  mutable match_index_hits : int;
      (** Counting-index hits processed by routing stores while
          matching publications — the indexed data plane's unit of
          work, the quantity that replaces linear active scans. *)
}

val create : unit -> t
val reset : t -> unit
val total_messages : t -> int
(** Link messages of all kinds (notifications excluded). *)

val equal : t -> t -> bool
(** Field-wise equality — the zero-fault bit-identical regression. *)

val pp : Format.formatter -> t -> unit
