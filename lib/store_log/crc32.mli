(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.

    Every WAL and snapshot record is framed with a CRC of its payload;
    recovery trusts a record only when the stored and recomputed
    checksums agree, which is what makes "longest valid prefix" a
    well-defined notion under torn writes and bit flips. *)

val string_crc : string -> pos:int -> len:int -> int
(** Checksum of [len] bytes of [s] starting at [pos], as a value in
    [0, 2^32). @raise Invalid_argument on an out-of-range slice. *)

val bytes_crc : bytes -> pos:int -> len:int -> int
(** {!string_crc} over a [bytes] slice, read in place. *)
