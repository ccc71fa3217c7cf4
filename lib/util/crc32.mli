(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the zlib
    checksum, with no dependency beyond the stdlib.  It guards the wire and
    journal frames and the snapshot token trailer: a torn tail or a flipped
    byte must be detectable with what the binary always has.  Detects every
    error burst of up to 32 bits, so every single-byte corruption. *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** Checksum of [len] bytes at [pos], as a non-negative 32-bit value. *)

val string : string -> int

val substring : string -> pos:int -> len:int -> int

val strings : string list -> int
(** The checksum of the concatenation, without building it. *)
