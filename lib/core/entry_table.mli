(** A hash table from keys to (level, timestamp) entries, stored flat.

    The estimators hold tens of thousands of (element, sampling level,
    last-occurrence timestamp) entries, and a cluster gather rebuilds such
    a table from every worker's token.  [Stdlib.Hashtbl] would spend four
    small heap objects per entry (bucket cell, value tuple, boxed float,
    key); this table keeps levels and timestamps in flat arrays (open
    addressing, linear probing, tombstones), so an entry allocates nothing
    beyond its key and the GC sees a handful of large blocks. *)

module Make (K : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end) : sig
  type t

  val create : int -> t
  (** An empty table sized for about [n] entries (it grows as needed). *)

  val length : t -> int

  val level : t -> K.t -> int
  (** The level held for the key, or [-1] when absent. *)

  val upsert : t -> K.t -> int -> float -> int
  (** [upsert t x level ts] sets the key's level; a present key keeps the
      newer of its two timestamps.  Returns the previous level, [-1] when
      the key was absent. *)

  val add : t -> K.t -> int -> float -> unit
  (** Insert a key known to be absent (no lookup; a present key would be
      duplicated). *)

  val remove : t -> K.t -> unit

  val compact : t -> unit
  (** Shrink a table much larger than its live entries need (and drop its
      tombstones). *)

  val iter : (K.t -> int -> float -> unit) -> t -> unit
  val fold : (K.t -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a

  val iter_levels : (K.t -> int -> unit) -> t -> unit
  (** {!iter} without the timestamps — allocation-free, where {!iter} boxes
      each timestamp it hands out. *)

  val count_since : t -> float -> int array -> unit
  (** [count_since t cutoff counts] adds one to [counts.(level)] for every
      entry whose timestamp is at least [cutoff].  Allocation-free, where a
      windowed sum through {!iter} boxes each timestamp. *)

  val filter_levels : (K.t -> int -> int) -> t -> unit
  (** [f x level] returns the entry's new level, or a negative number to
      remove it; timestamps are kept.  Allocation-free; safe to call during
      no other traversal. *)
end
