(** Versioned codec for estimator snapshots — the spool file format and the
    cluster's sketch token, one byte string for both.

    {!Vatic}, {!Ext_vatic} and {!Adaptive} expose in-memory [snapshot]
    records parameterised by the family's element type.  Durability must not
    be tied to those records (they change as the estimators evolve), so this
    module defines a neutral, {e versioned} interchange form in which
    elements are opaque byte strings — each serving family supplies its own
    element codec (see [Delphic_server.Families]) and this format carries
    everything else.

    {!encode} writes v4, a compact binary layout (all integers LEB128
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
    a fold pick its common sampling level before reading any entry.
    {!decode} reads v4 and still reads the line-oriented v1..v3 text
    snapshots of earlier releases (v1 without [merges], v1/v2 with every
    timestamp 0), telling the two apart by the first byte.  Floats are
    bit-exact, so [decode (encode s)] is {!equal} to [s] — the qcheck
    property in [test/test_snapshot_io.ml].  Unknown versions and truncated
    or corrupt input decode to [Error], never an exception; the CRC trailer
    makes every truncation and every single-byte corruption of a v4 token
    an [Error] (a spool file has no frame checksum around it). *)

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
          session; v1 snapshots decode with 0) *)
  exact_active : bool;
  sketch : sketch option;  (** [None] on universes below the sketching floor *)
}
(** Everything but the entries. *)

type t
(** A snapshot: a {!header} plus the exact-table entries (last-occurrence
    timestamp, encoded element) and the sketch entries (sampling level,
    last-occurrence timestamp, encoded element).  A decoded v4 token keeps
    its entries in the token bytes — decoding costs the header and one
    validation pass, and {!iter_exact}/{!iter_sketch} read the elements in
    place — while {!make} and the text decoder hold them as lists. *)

val make : header -> exact:(float * string) list -> sketch:(int * float * string) list -> t
(** A snapshot from entry lists; the header's [min_level] is derived from
    [sketch] (which is ignored when the header has no sketch). *)

val header : t -> header
val exact_entries : t -> (float * string) list
val sketch_entries : t -> (int * float * string) list

val exact_count : t -> int
val sketch_count : t -> int

val iter_exact : t -> (float -> string -> int -> int -> unit) -> unit
(** [iter_exact t f] calls [f ts s pos len] for each exact entry in order,
    the element being the [len] bytes of [s] at [pos] (for a decoded token,
    [s] is the token itself — no substring per element). *)

val iter_sketch : t -> (int -> float -> string -> int -> int -> unit) -> unit
(** [f level ts s pos len] for each sketch entry, in order. *)

val equal : t -> t -> bool
(** Same header and the same entries in the same order, however held. *)

val version : int
(** Current format version (4).  {!decode} still reads v1..v3. *)

val encode : t -> string
(** The v4 binary token (a decoded token encodes to its own bytes).
    Elements are length-prefixed, so any bytes are fine inside them.
    Raises [Invalid_argument] if the family token is empty or contains
    whitespace. *)

val decode : string -> (t, string) result

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
    [sketch] sketch entries (ignored without a sketch).  Raises like
    {!encode}. *)

val add_exact : writer -> float -> Buffer.t -> unit
(** Append an exact entry: timestamp and the element bytes in the buffer. *)

val add_sketch : writer -> int -> float -> Buffer.t -> unit
(** Append a sketch entry (level, timestamp, element bytes), after every
    exact entry. *)

val finish : writer -> string
(** The token.  Raises [Invalid_argument] if the entry counts differ from
    the announced ones (also from {!add_exact}/{!add_sketch} on overflow). *)

val restrict : cutoff:float -> t -> t
(** Drop every exact and sketch entry whose last-occurrence timestamp is
    strictly before [cutoff] — the snapshot-level window restriction used by
    windowed [EXPR] queries.  Items/merge counters are untouched: the result
    is a query-time view of the trailing window, not a rewritten history
    ([min_level] follows the entries kept).  [restrict ~cutoff:neg_infinity]
    keeps every entry. *)

val save : ?fsync:bool -> path:string -> t -> unit
(** Writes v4.  Atomic: writes [path ^ ".tmp"] then renames, so a crash
    mid-write never leaves a truncated snapshot behind.  With [fsync]
    (default [false]) the temporary file is fsynced before the rename — a
    checkpoint that the write-ahead journal is about to truncate against
    must survive power loss, not merely process death. *)

val load : path:string -> (t, string) result
