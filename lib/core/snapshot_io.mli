(** The one saved form of an estimator — the spool file format and the
    cluster's sketch token, one byte string for both.

    Estimator state leaves a process only as this token: a serving family
    writes it from the estimator's fold source
    ({!Adaptive.Make.source}, via [Delphic_server.Families.encode]) and
    reads it back through the fold ({!Adaptive.Make.fold}).  Elements are
    opaque byte strings — each serving family supplies its own element
    codec — and this format carries everything else.

    A token is v4, a compact binary layout (all integers LEB128
    varints, all floats their IEEE-754 bits big-endian):

    {v
    "\x00DS4"                                         magic
    varint len | family                               e.g. "rect", "cov:14:2"
    f64 epsilon | f64 delta | f64 log2-universe
    varint exact-capacity | varint items | varint merges
    u8 flags                                          bit 0 exact-active,
                                                      bit 1 has a sketch
    varint n-exact
    [sketch header]  u8 mode | f64 capacity-scale | f64 coupon-scale
                     | varint items, max-bucket, skipped, membership-calls,
                       cardinality-calls, sampling-calls
                     | varint min-level | varint n-sketch
    n-exact  × (f64 ts | varint len | element)
    n-sketch × (varint level | f64 ts | varint len | element)
    u32 CRC-32 of every byte before it
    v}

    The header's min-level (the highest entry level, i.e. [log2 1/p₀]) lets
    a fold pick its common sampling level before reading any entry.  Floats
    are bit-exact, so [decode (encode s)] is {!equal} to [s] — the qcheck
    property in [test/test_snapshot_io.ml].  Anything else — another
    version, a truncated or corrupt token, text — decodes to [Error], never
    an exception; the CRC trailer makes every truncation and every
    single-byte corruption of a token an [Error] (a spool file has no frame
    checksum around it). *)

type sketch = {
  mode : Params.mode;
  capacity_scale : float;
  coupon_scale : float;
  s_items : int;  (** items the sketch itself has processed *)
  max_bucket : int;
  skipped : int;
  membership_calls : int;
  cardinality_calls : int;
  sampling_calls : int;
  min_level : int;
      (** the highest level among the sketch entries (0 when empty) — the
          sketch's minimum sampling probability [2^-min_level]; {!make}
          derives it and {!decode} rejects a token whose entries disagree
          with it *)
}
(** The sketch section's scalars. *)

type header = {
  family : string;
      (** the protocol family token, e.g. ["rect"], ["dnf:40"],
          ["cov:14:2"]; opaque to this module (no whitespace) *)
  epsilon : float;
  delta : float;
  log2_universe : float;
  exact_capacity : int;  (** the adaptive wrapper's exact-mode budget *)
  items : int;
  merges : int;
      (** how many sketch merges produced this state (0 for a single-stream
          session) *)
  exact_active : bool;
  sketch : sketch option;  (** [None] on universes below the sketching floor *)
}
(** Everything but the entries. *)

type t
(** A validated token: a {!header} plus the exact-table entries
    (last-occurrence timestamp, encoded element) and the sketch entries
    (sampling level, last-occurrence timestamp, encoded element).  The
    entries stay in the token bytes — decoding costs the header and one
    validation pass, and {!iter_exact}/{!iter_sketch} read the elements in
    place. *)

val make : header -> exact:(float * string) list -> sketch:(int * float * string) list -> t
(** The token of these entry lists, written through {!writer} and opened
    again; the header's [min_level] is derived from [sketch] (which is
    ignored when the header has no sketch).  Raises [Invalid_argument] like
    {!writer}, or on a negative sketch level. *)

val header : t -> header

val exact_entries : t -> (float * string) list
val sketch_entries : t -> (int * float * string) list
(** The entries as lists, copied out of the token (tests compare these). *)

val exact_count : t -> int
val sketch_count : t -> int

val iter_exact : t -> (float -> string -> int -> int -> unit) -> unit
(** [iter_exact t f] calls [f ts s pos len] for each exact entry in order,
    the element being the [len] bytes of [s] at [pos] (for a decoded token,
    [s] is the token itself — no substring per element). *)

val iter_sketch : t -> (int -> float -> string -> int -> int -> unit) -> unit
(** [f level ts s pos len] for each sketch entry, in order. *)

val equal : t -> t -> bool
(** Same header and the same entries in the same order. *)

val version : int
(** The format version (4), the only one {!decode} reads. *)

val encode : t -> string
(** The token's bytes. *)

val decode : string -> (t, string) result
(** [Error] for anything that is not a whole, valid v4 token. *)

val of_wire : string -> (t, string) result
(** {!decode} under the name the sketch-token call sites use: a [SKETCH]
    reply or [MERGE] request carries the raw token bytes (the v1 text
    protocol percent-armors them at its own boundary). *)

(** {2 Writing a token from tables}

    An estimator streams its tables straight into a token, with no
    intermediate {!t}. *)

type writer

val writer : header -> exact:int -> sketch:int -> writer
(** Start a token with this header, announcing [exact] exact entries and
    [sketch] sketch entries (ignored without a sketch).  Elements are
    length-prefixed, so any bytes are fine inside them.  Raises
    [Invalid_argument] if the family token is empty or contains
    whitespace. *)

val add_exact : writer -> float -> Buffer.t -> unit
(** Append an exact entry: timestamp and the element bytes in the buffer. *)

val add_sketch : writer -> int -> float -> Buffer.t -> unit
(** Append a sketch entry (level, timestamp, element bytes), after every
    exact entry. *)

val finish : writer -> string
(** The token.  Raises [Invalid_argument] if the entry counts differ from
    the announced ones (also from {!add_exact}/{!add_sketch} on overflow). *)

val save : ?fsync:bool -> path:string -> t -> unit
(** Writes v4.  Atomic: writes [path ^ ".tmp"] then renames, so a crash
    mid-write never leaves a truncated snapshot behind.  With [fsync]
    (default [false]) the temporary file is fsynced before the rename — a
    checkpoint that the write-ahead journal is about to truncate against
    must survive power loss, not merely process death. *)

val load : path:string -> (t, string) result
