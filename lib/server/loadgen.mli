(** Client runtime and closed-loop load generator for the real broker
    fleet.

    {!client} is a full protocol endpoint: it dials its home broker's
    Unix socket, handshakes (Hello/Welcome with session resume), tracks
    its control traffic through the same {!Probsub_broker.Reliable_link}
    sender the brokers use, publishes on the sheddable channel, and
    records every [Notify] with its wall-clock arrival time. Everything
    is non-blocking; {!poll} pumps reconnects, writes, reads and
    retransmissions.

    {!drive} runs the closed loop the bench and chaos harness share:
    one publication at a time, waiting for its full expected recipient
    set (computed by the {e in-process} matching engine from the
    loadgen's own subscription table), measuring last-arrival latency.
    The [verdicts_match] bit is the acceptance criterion from the
    issue: the canonical serialization of who the sockets delivered to
    is byte-identical to what {!Probsub_core.Publication.matches} says.
*)

open Probsub_core
module Audit = Probsub_broker.Audit

(** {1 Client runtime} *)

type client

type notification = { n_pub : int; n_key : int; n_at : float }

val connect_client :
  ?rto:float ->
  ?max_retries:int ->
  sock_dir:string ->
  broker:int ->
  client:int ->
  seed:int ->
  unit ->
  client
(** A client of broker [broker]; dials lazily from the first {!poll}.
    [rto] (default 0.5 s) governs control-message retransmission. *)

val connect_clients :
  sock_dir:string -> brokers:int -> per_broker:int -> seed:int -> client list
(** [per_broker] default clients of each broker [0 .. brokers - 1],
    broker by broker, with ids and backoff seeds derived from [seed]:
    the client fleet of the chaos harness and [probsub loadgen]. *)

val poll : client -> unit
(** One non-blocking pump: reconnect if due, flush, read, fire due
    retransmission timers. Never blocks, never raises on socket
    errors. *)

val connected : client -> bool
(** Handshake complete on a live connection. *)

val in_flight : client -> int
(** Control messages sent but not yet acked by the broker. *)

val subscribe : client -> key:int -> Subscription.t -> unit
(** Tracked (acked, retransmitted) subscription install. Keys are the
    caller's responsibility to keep network-unique. *)

val unsubscribe : client -> key:int -> unit

val publish : client -> id:int -> Publication.t -> bool
(** Best-effort publish on the sheddable channel; [false] if the
    client is not currently connected and welcomed (the publication is
    not queued — closed-loop drivers retry or skip). *)

val notifications : client -> notification list
(** Every [Notify] received, in arrival order. *)

val home : client -> int
val client_id : client -> int

val backoff_attempts : client -> int
(** Reconnect attempts consumed since the last successful handshake —
    0 right after a Welcome (the backoff resets so the {e next} outage
    starts from the base delay again, not the accumulated cap). *)

val epoch_seen : client -> int
(** Highest fence epoch any Welcome carried (0 before the first
    handshake). Echoed in later Hellos, which is what demotes a stale
    ex-primary the client happens to reach first. *)

val failover_reconnects : client -> int
(** Times this client re-handshook at a {e higher} epoch than it was
    previously welcomed at — i.e. resumed its session against a
    freshly promoted standby. *)

val close_client : client -> unit
(** Send [Bye] best-effort and close the socket. *)

(** {1 Closed-loop driver} *)

val poll_all : client list -> unit

val wait_connected : ?timeout:float -> client list -> bool
(** Pump until every client is connected and welcomed; [false] on
    timeout (default 10 s). *)

val wait_acked : ?timeout:float -> client list -> bool
(** Pump until no client has control traffic in flight. *)

type workload

val install :
  rng:Prng.t -> arity:int -> subs_per_client:int -> client list -> workload
(** Issue [subs_per_client] random box subscriptions per client with
    globally unique keys. Callers should {!wait_acked} afterwards. *)

val random_publication : rng:Prng.t -> arity:int -> Publication.t

val workload_table : workload -> (int * int * (int * Subscription.t) list) list
(** [(broker, client, subscriptions)] per client — the loadgen's own
    record of what it installed, for harnesses that craft targeted
    probes. *)

val expected_recipients : workload -> Publication.t -> (int * int * int) list
(** Ground truth for one publication from the in-process matcher:
    sorted [(broker, client, key)] triples. *)

val delivered_for : workload -> int -> (int * int * int) list
(** Every delivery of [pub_id] observed so far over the sockets,
    duplicates included. *)

type result = {
  clients : int;
  subscriptions : int;
  pubs : int;
  expected : int;  (** deliveries ground truth demanded *)
  delivered : int;  (** deliveries observed over the sockets *)
  pubs_per_sec : float;
  p50_ms : float;  (** last-arrival match latency percentiles… *)
  p99_ms : float;  (** …over publications with a non-empty match set *)
  verdicts_match : bool;
      (** socket-delivered verdicts byte-identical to the in-process
          engine's *)
  audit : Audit.report;
}

val drive :
  ?pub_base:int ->
  rng:Prng.t ->
  arity:int ->
  pubs:int ->
  per_pub_timeout:float ->
  workload ->
  result
(** The closed loop: publish [pubs] publications round-robin across
    the clients, each waiting (bounded by [per_pub_timeout]) for its
    expected recipient set to arrive, then audit everything with
    {!Audit.report_delivered}. *)

val verdict_string : (int * (int * int * int) list) list -> string
(** Canonical verdict serialization: one sorted line per publication,
    recipients as sorted-deduped [broker:client:key] triples. *)
