(** The kill -9 chaos harness: a real multi-process broker fleet,
    exercised end to end and audited with the simulator's oracle.

    {!run} forks [brokers] child processes on a line topology (each
    running {!Broker_server.run} with a WAL directory), connects real
    {!Loadgen} clients over the Unix sockets, installs a random
    workload, and then:

    + drives an audited closed-loop publication phase on the healthy
      fleet;
    + SIGKILLs an interior broker {e mid-refresh-wave} (the kill is
      phase-aligned just after a wave tick, while the wave's Subscribe
      forwards and acks are in flight);
    + restarts it on the same WAL directory — {!Broker_server.create}
      recovers rather than wipes — and measures the wall time until a
      probe publication round-trips across the whole line through the
      restarted broker;
    + drives a second audited phase, which must be spotless: every
      expected delivery exactly once, verdicts byte-identical to the
      in-process engine.

    Both the chaos test (pass/fail across seeds) and the serve bench
    (pubs/sec, latency percentiles, recovery time for
    [BENCH_serve.json]) are this one scenario with different knobs. *)

exception Error of string
(** Environmental failure (a broker that never came up, a probe that
    never round-tripped) — distinct from an audit failure, which is
    reported in {!result}. *)

type config = {
  seed : int;
  brokers : int;
  clients_per_broker : int;
  subs_per_client : int;
  arity : int;
  pubs : int;  (** per measured phase (before and after the kill) *)
  refresh_interval : float;
  per_pub_timeout : float;
}

val config :
  ?brokers:int ->
  ?clients_per_broker:int ->
  ?subs_per_client:int ->
  ?arity:int ->
  ?pubs:int ->
  ?refresh_interval:float ->
  ?per_pub_timeout:float ->
  seed:int ->
  unit ->
  config
(** Defaults: 3 brokers, 2 clients each, 4 subscriptions per client,
    arity 2, 30 publications per phase, 0.5 s refresh interval, 3 s
    per-publication deadline. @raise Invalid_argument on fewer than 2
    brokers or an empty workload. *)

type comeback =
  | Restarted of { recovery_seconds : float }
      (** restart initiation to the first publication round-tripping
          through the restarted broker *)
  | Promoted of {
      detection_seconds : float;
          (** SIGKILL to the promoted standby accepting on the victim's
              socket path *)
      outage_seconds : float;
          (** SIGKILL to the first publication round-tripping through
              the promoted standby *)
      failover_reconnects : int;
          (** clients that re-handshook at the raised epoch *)
    }
(** How the killed victim came back, and what that took. *)

type result = {
  victim : int;
  connections : int;  (** client connections across the fleet *)
  comeback : comeback;
  pre : Loadgen.result;  (** closed-loop phase before the kill *)
  post : Loadgen.result;  (** closed-loop phase after recovery *)
  clean : bool;
      (** both phases audit clean with byte-identical verdicts *)
}

val run : config -> result
(** Execute the scenario, restarting the victim from its WAL, always
    reaping the children and removing the temp directories; the
    comeback is [Restarted]. @raise Error on environmental failure. *)

(** {1 Failover chaos}

    Same fleet and workload, but the interior victim runs with a hot
    standby (same broker identity, own WAL directory, 0.1 s/0.5 s
    replication heartbeats) and is {e never restarted}: the SIGKILL —
    still aligned mid-refresh-wave — must be detected by the standby's
    heartbeat watchdog, which promotes over the replicated WAL, raises
    the fence epoch, binds the victim's socket path and serves in its
    place. *)

val run_failover : config -> result
(** Execute the failover scenario (the same body as {!run}, the victim
    [brokers / 2]); the comeback is [Promoted]. @raise Error on
    environmental failure, including a standby that never takes
    over. *)

val pp_result : Format.formatter -> result -> unit

val json_fields : config -> result -> string
(** The scenario's fields of [BENCH_serve.json] (a [Restarted] result)
    or [BENCH_failover.json] (a [Promoted] one), from ["brokers"] to
    ["verdicts_match"] (both phases clean), one ["  \"key\": value"]
    per line, comma-separated, without the enclosing braces. The bench
    adds its own [bench] and [fast] fields, and the failover bench
    phase A's. *)
