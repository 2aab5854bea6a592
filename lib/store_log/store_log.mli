(** Durable subscription state: the write-ahead log tied to a
    {!Probsub_core.Subscription_store}.

    A log owns a {!Device.t} holding a WAL stream plus a snapshot
    slot. {!fresh} initialises both and hooks the store's effect
    journal so every mutation is framed, checksummed and flushed
    before the call returns. {!recover} is the crash path: it reads
    whatever bytes survived, keeps the longest valid record prefix,
    repairs the log in place, and replays snapshot + suffix into a
    store provably {!Probsub_core.Subscription_store.equal_state} to
    the one that wrote the log. Recovery is total (never raises on
    damaged input) and idempotent (recovering a recovered device is a
    fixpoint). *)

module Store := Probsub_core.Subscription_store

type t
(** An attached log: journal hook installed, WAL positioned for
    appending. *)

val fresh :
  ?policy:Store.policy ->
  device:Device.t ->
  arity:int ->
  seed:int ->
  unit ->
  Store.t * t
(** Start a brand-new durable store: clears the device, writes the
    genesis record, creates the store and attaches its journal. *)

type recovered = {
  r_log : t;
  r_store : Store.t;  (** Journal already re-attached. *)
  r_bindings : Codec.binding list;
      (** Live routing bindings, ascending by store id; each
          [b_epoch] already reflects the latest epoch note, so the
          list can be handed straight back to {!compact}. *)
  r_epochs : (int * int) list;  (** [(key, epoch)] for live bindings. *)
  r_fence : int;
      (** Highest replication fence epoch journalled in the surviving
          log (0 when none was ever raised). *)
  r_repaired : bool;
      (** The WAL held damaged bytes that were cut back to the longest
          valid prefix. *)
}

val recover : device:Device.t -> unit -> (recovered, string) result
(** Rebuild from the device. [Error] only when no recoverable state
    exists at all (no valid snapshot and no genesis record) or the
    surviving records are not a journal this library wrote; damaged
    suffixes are repaired, not fatal. *)

val log_binding : t -> Codec.binding -> unit
(** Journal a routing binding (brokers call this right after the add
    that created the id). *)

val log_epoch : t -> key:int -> epoch:int -> unit
(** Journal a refresh-epoch bump for an already-bound key. *)

val log_fence : t -> epoch:int -> unit
(** Journal a replication fence: the broker identity's monotone epoch
    was raised to [epoch]. Monotone — a fence at or below the current
    one is a no-op, so replaying a fence is idempotent. *)

val fence : t -> int
(** Highest fence epoch journalled so far (0 when none). *)

val compact : t -> Store.t -> bindings:Codec.binding list -> unit
(** Write a snapshot of the store image and [bindings], then truncate
    the WAL. Crash-safe at every point: the snapshot replaces the old
    one atomically and carries [last_lsn], so records still in the WAL
    from before the compaction are skipped on replay rather than
    double-applied. *)

val wal_size : t -> int
(** Current WAL length in bytes (the compaction trigger input). *)

val next_lsn : t -> int
val device : t -> Device.t
