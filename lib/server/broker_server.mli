(** A real broker process: a {!Unix.select} event loop serving the
    broker protocol over Unix-domain sockets.

    One listening socket per broker at [sock_dir/broker-<id>.sock].
    The broker dials every neighbour (so each ordered pair of
    neighbours has its own connection carrying that direction's data,
    with handshake replies and acks flowing back on it) and accepts
    connections from peers and clients. All state transitions run
    through the {e same} transport-agnostic machinery the simulator
    uses — {!Probsub_broker.Broker_node} for routing/covering/leases,
    {!Probsub_broker.Reliable_link} for retransmission and dedup — so
    the network semantics proven in the fault-injection suite carry
    over verbatim; only the byte transport and the clock are new.

    Durability: with a [wal_dir], the broker journals its routing table
    through the PR 5 WAL/snapshot device, {e recovering} from an
    existing directory at startup (kill -9 restart) rather than wiping
    it. Lease-refresh waves for locally attached clients are driven
    from the recovered table, which is the recovery guarantee the chaos
    harness audits: after restart plus one refresh interval, routing
    state lost by peers to give-ups or the outage is repaired.

    Maintenance mirrors the simulator: a refresh wave and a lease sweep
    every [refresh_interval], the sweep doubling as the WAL compaction
    tick.

    Replication: with [standby_of], the process runs as a hot standby
    of the broker with the same id — it opens no listening socket,
    dials the primary's socket path, and streams the primary's WAL
    into its own [wal_dir] through {!Repl}, staying a bounded number
    of LSNs behind. When [repl_hb_timeout] passes without hearing the
    primary, the standby recovers a full broker from the replicated
    device, raises the identity's {e fence epoch} (journalled before
    anything is served), binds the primary's socket path and serves in
    its place; clients and peers reconnect transparently and session
    resume makes redelivery idempotent. The epoch rides every
    handshake, so a superseded ex-primary that ever hears a higher
    epoch for its own identity demotes to a fenced state and never
    acks a write again — at most one writable primary per identity. *)

type config = {
  id : int;
  neighbors : int list;
  sock_dir : string;
  wal_dir : string option;  (** durable routing table when present *)
  arity : int;
  seed : int;
  policy : Probsub_core.Subscription_store.policy;
  lease_ttl : float;
  refresh_interval : float;
  rto : float;  (** initial retransmission timeout, doubles per retry *)
  max_retries : int;
  max_queue_bytes : int;  (** per-connection write budget before shed *)
  backoff_base : float;  (** first reconnect delay *)
  backoff_cap : float;  (** reconnect delay ceiling before jitter *)
  standby_of : string option;
      (** Socket path of the primary this process shadows; [None] runs
          a normal primary. *)
  repl_hb_interval : float;  (** primary → standby heartbeat period *)
  repl_hb_timeout : float;
      (** silence after which the standby declares the primary dead *)
}

val config :
  ?wal_dir:string option ->
  ?policy:Probsub_core.Subscription_store.policy ->
  ?lease_ttl:float ->
  ?refresh_interval:float ->
  ?rto:float ->
  ?max_retries:int ->
  ?max_queue_bytes:int ->
  ?backoff_base:float ->
  ?backoff_cap:float ->
  ?standby_of:string option ->
  ?repl_hb_interval:float ->
  ?repl_hb_timeout:float ->
  id:int ->
  neighbors:int list ->
  sock_dir:string ->
  arity:int ->
  seed:int ->
  unit ->
  config
(** Validated constructor; defaults mirror the simulator's recovery
    record (lease 30 s, refresh 10 s, rto 4 s, 6 retries); replication
    heartbeats every 0.5 s with a 2 s failover timeout.
    @raise Invalid_argument on a negative id, a self-neighbour,
    recovery parameters the simulator would also reject, heartbeat
    parameters out of order, or a standby without a [wal_dir]. *)

val socket_path : sock_dir:string -> int -> string

type t

type role = Primary | Standby | Fenced
(** Where the process stands in the failover state machine. [Primary]
    serves clients and peers (and streams its WAL to an attached
    standby); [Standby] applies the stream and watches heartbeats;
    [Fenced] is a superseded ex-primary that holds no socket and never
    acks a write. Transitions: a standby promotes to primary on
    heartbeat loss; a primary demotes to fenced when any same-identity
    handshake carries a higher epoch. *)

type stats = {
  mutable frames_in : int;  (** frames decoded, on every connection *)
  mutable frames_out : int;
      (** frames queued, on every connection; a Notify batch counts
          each of its frames *)
  mutable retransmits : int;  (** acked payloads sent again on timeout *)
  mutable sheds : int;  (** sheddable frames dropped by backpressure *)
}

val create : config -> t
(** Primary: recover (or initialise) the node, probe the socket path
    for a live same-identity owner (entering {!Fenced} instead of
    binding when one answers), bind, dial every neighbour, arm the
    maintenance timers. Standby ([standby_of]): open no socket, dial
    the primary and start replicating. @raise Unix.Unix_error if the
    listening socket cannot be bound. *)

val step : t -> unit
(** One event-loop iteration: fire due timers, select (bounded at
    250 ms), accept, read, write, reap. Never raises on connection
    errors — they feed the backoff machinery. *)

val shutdown : t -> unit
(** Close every connection and the listening socket, removing the
    socket file. *)

val run : ?on_ready:(unit -> unit) -> ?should_stop:(unit -> bool) -> config -> unit
(** [create] then {!step} until [should_stop ()] (polled once per
    iteration), then {!shutdown}. [on_ready] fires once the listening
    socket is accepting — fork-based harnesses signal their parent
    from it. Ignores SIGPIPE process-wide (dead-socket writes surface
    as [EPIPE] and feed reconnect). *)

val node : t -> Probsub_broker.Broker_node.t
val session : t -> int
val stats : t -> stats

val role : t -> role
val epoch : t -> int
(** Current fencing epoch for this broker identity (0 = never
    fenced). *)
