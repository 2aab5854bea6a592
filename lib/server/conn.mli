(** One non-blocking socket connection: incremental frame decoding on
    the read side, a bounded write queue with class-aware shedding on
    the write side.

    Reads tolerate arbitrary fragmentation — every read lands straight
    in the free tail of a {!Probsub_store_log.Codec.Decoder}, so torn
    frames simply wait for their remaining bytes, and the connection
    keeps no read buffer of its own. Writes queue whole frames; when the queue
    exceeds its byte budget the {e oldest sheddable} frames
    (publication forwards, notifications) are dropped first, and
    control traffic is never shed — a congested link loses data-plane
    freshness, not protocol correctness. A partially-written head frame
    is also never shed, whatever its class: removing half-sent bytes
    would corrupt the stream for everything behind it. *)

type t

val create : ?max_queue_bytes:int -> Unix.file_descr -> t
(** Takes ownership of [fd] and makes it non-blocking.
    [max_queue_bytes] (default 1 MiB) bounds the write queue.
    @raise Invalid_argument if it is below 1. *)

val fd : t -> Unix.file_descr
val closed : t -> bool
val queued_bytes : t -> int

val shed_total : t -> int
(** Sheddable frames dropped by backpressure over the connection's
    lifetime. *)

val wants_write : t -> bool
(** True when queued bytes remain — include the fd in the select write
    set. *)

val send : t -> cls:Wire.cls -> string -> int
(** Queue pre-framed bytes; returns how many older sheddable frames
    were dropped to respect the budget (0 when it fits). A closed
    connection discards silently. *)

val send_msg : t -> seq:int -> Wire.msg -> int
(** {!send} of [Wire.frame ~seq msg] under [msg]'s class. *)

val flush : t -> [ `Ok | `Closed ]
(** Write as much of the queue as the socket accepts without blocking.
    [`Closed] on a connection-fatal error (the fd is closed). *)

val recv : t -> [ `Data of int | `Blocked | `Eof ]
(** Read once, straight into the decoder's free tail
    ({!Probsub_store_log.Codec.Decoder.read_into}): up to the 4 KiB
    the decoder starts with, more only when one frame needs it. Drain
    with {!next} after each [`Data]; a drained connection's decoder is
    back at 4 KiB. [`Eof] covers both orderly shutdown and
    connection-fatal errors. *)

val next : t -> [ `Msg of int * Wire.msg | `Pending | `Corrupt of string ]
(** Pop the next decoded message ([seq, msg]); [`Corrupt] is sticky —
    tear the connection down. *)

val close : t -> unit
(** Idempotent. *)
