(** Priority queue of timestamped events — the heart of the
    discrete-event simulator. A binary min-heap ordered by [(time,
    sequence)]: ties in time are delivered in insertion order, which
    keeps simulations deterministic. *)

type 'a t

type handle
(** Names a cancelable scheduled event (retransmission and lease
    timers). Handles are never reused within a queue. *)

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** [push q ~time e] schedules [e] at [time].
    @raise Invalid_argument if [time] is negative or NaN. *)

val push_cancelable : 'a t -> time:float -> 'a -> handle
(** Like {!push} but returns a handle the event can be cancelled by.
    Cancellation is lazy: the slot is skimmed off when it surfaces, or
    swept out with every other cancelled slot once they outnumber the
    live events — so scheduling stays O(log n), cancelling amortized
    O(1), and cancelled far-future events do not pile up. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] prevents the event named by [h] from ever being
    popped. Returns false if it already fired or was already
    cancelled. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, if any. *)

val peek_time : 'a t -> float option
(** Earliest scheduled time without removing the event. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val drain : 'a t -> f:(time:float -> 'a -> unit) -> unit
(** Pop everything in order, applying [f]. Events pushed by [f] itself
    are processed too (the usual simulation loop). *)
