(** Binary codec for durable records, and the checksummed frame format.

    Record payloads are a compact tagged binary encoding (LEB128
    varints, zigzag for signed values, IEEE-754 bits for floats).
    On disk every record travels inside a {e frame}:

    {v
      +----------+----------+---------------------------------+
      | len u32LE| crc u32LE| payload  =  lsn varint ++ body  |
      +----------+----------+---------------------------------+
        4 bytes    4 bytes    len bytes, CRC-32 over payload
    v}

    [len] counts the payload bytes; [crc] is {!Crc32} of the payload.
    A reader accepts a frame only if the header is complete, [len]
    fits in the remaining bytes and is below {!max_frame}, and the
    checksum matches — so any torn write, truncation or bit flip turns
    the damaged frame (and everything after it) into a detectable
    suffix instead of silently corrupt state.

    Decoding is total: {!decode} returns [Error] on malformed bytes
    and never raises. *)

type meta = {
  m_arity : int;
  m_seed : int;
  m_policy : Probsub_core.Subscription_store.policy;
}
(** Everything needed to re-create an empty store identical to the one
    that wrote the log. *)

type binding = {
  b_rid : Probsub_core.Subscription_store.id;
  b_key : int;  (** network-wide subscription key *)
  b_okind : int;  (** origin constructor: 0 client, 1 publisher, 2 link *)
  b_oarg : int;  (** client id / link broker id; 0 for publisher *)
  b_epoch : int;  (** latest refresh epoch seen for the key *)
}
(** A broker's routing-table binding for one store id — the key ↔ id ↔
    origin correspondence that must survive a crash alongside the
    store itself. Kept store-log-generic (plain ints) so this library
    does not depend on the broker layer. *)

type record =
  | Genesis of meta  (** First record of a fresh log. *)
  | Op of Probsub_core.Subscription_store.op  (** One store mutation. *)
  | Bind of binding  (** A new routing binding (brokers only). *)
  | Epoch_note of { key : int; epoch : int }
      (** A refresh bumped the key's epoch without restating the
          binding. *)
  | Snapshot of {
      meta : meta;
      last_lsn : int;
      image : Probsub_core.Subscription_store.image;
      bindings : binding list;
    }
      (** A compaction point: the full store image plus live bindings
          as of [last_lsn]; WAL records with lsn <= [last_lsn] are
          superseded. *)
  | Fence of { epoch : int }
      (** A replication fence: this broker identity's monotone epoch
          was raised to [epoch] (a standby promoted itself, or an
          ex-primary acknowledged a newer writer). Recovery keeps the
          highest fence seen, and compaction re-journals it into the
          fresh WAL so the fence survives truncation — an ex-primary
          can never come back believing it still owns an old epoch. *)

val encode : record -> string
(** Payload bytes (unframed). *)

val decode : string -> (record, string) result
(** Total inverse of {!encode}; [Error reason] on any malformed
    input. *)

val max_frame : int
(** Upper bound on an accepted payload length; a longer [len] field is
    treated as corruption rather than a gigantic allocation. *)

val frame : lsn:int -> string -> string
(** [frame ~lsn payload] wraps an {!encode}d payload in the on-disk
    frame. @raise Invalid_argument if [lsn < 0] or the payload exceeds
    {!max_frame}. *)

type frame_result =
  | Frame of { lsn : int; payload : string; next : int }
      (** A valid frame; [next] is the offset just past it. *)
  | Frame_truncated  (** Clean end of data, or a frame cut short. *)
  | Frame_bad_length  (** [len] exceeds {!max_frame}. *)
  | Frame_bad_crc  (** Complete frame whose checksum mismatches. *)
  | Frame_undecodable of string
      (** Checksum valid but the payload failed varint/lsn parsing. *)

val read_frame : string -> pos:int -> frame_result
(** Parse one frame at [pos]; never raises. [pos = length] yields
    [Frame_truncated] (the clean-EOF case). *)

(** Primitive field encodings (LEB128 varints, zigzag, IEEE-754 bits),
    shared with the wire protocol of {!Probsub_server} so the two
    layers cannot drift. Reads are total. *)
module Prim : sig
  val write_uv : Buffer.t -> int -> unit
  (** Unsigned LEB128. @raise Invalid_argument on a negative value. *)

  val write_sv : Buffer.t -> int -> unit
  (** Zigzag-encoded signed varint. *)

  val write_f64 : Buffer.t -> float -> unit
  (** IEEE-754 bits, little-endian. *)

  val write_subscription : Buffer.t -> Probsub_core.Subscription.t -> unit
  (** Arity, then each range as two signed varints. *)

  val read_uv : string -> pos:int -> (int * int, string) result
  (** Value and the position just past it; [Error] on truncation or
      overflow — never raises. *)

  val read_sv : string -> pos:int -> (int * int, string) result
  val read_f64 : string -> pos:int -> (float * int, string) result

  val read_subscription :
    string -> pos:int -> (Probsub_core.Subscription.t * int, string) result
end

(** Incremental frame decoder for byte streams: a socket read lands
    straight in the decoder's free tail ({!read_into}), whole frames
    pop out, and the partial tail stays buffered until its bytes
    arrive — so transports never need whole-frame reads or a read
    buffer of their own. Agrees with {!read_frame} on every split of
    the same byte string (fuzzed). Unlike WAL recovery, a stream has
    no longest-valid-prefix to fall back to: the first damaged frame
    poisons the decoder permanently ([D_corrupt] is sticky) and the
    connection must be torn down and re-established.

    The buffer starts at 4 KiB. It grows only when a single frame
    needs more (or the caller reads again without draining), and goes
    back to 4 KiB as soon as a {!next} leaves it empty. *)
module Decoder : sig
  type t

  type item =
    | D_frame of { lsn : int; payload : string }
        (** One complete frame, CRC-verified. *)
    | D_need_more  (** The buffered tail is a clean prefix of a frame. *)
    | D_corrupt of string
        (** Bad length, checksum or lsn; sticky — every later {!next}
            returns it again. *)

  val create : unit -> t

  val read_into : t -> read:(bytes -> int -> int -> int) -> int
  (** [read_into t ~read] calls [read buf off len] once, with
      [buf.[off .. off + len - 1]] the decoder's free tail ([len >= 1];
      once the head frame's header is in, large enough for that frame,
      growing the window by at most a doubling per call), and
      keeps the [n] bytes [read] reports filling there; returns [n].
      Shaped for [Unix.read fd]: an exception from [read] propagates
      and keeps nothing. @raise Invalid_argument if [n] is negative or
      exceeds [len]. *)

  val feed_string : t -> string -> unit
  (** Append a chunk held in memory (tests, traced replays). *)

  val next : t -> item
  (** Pop the next complete frame, if the buffer holds one. *)

  val buffered : t -> int
  (** Bytes held for the partial tail (0 when fully drained). *)
end
