(** Adaptive exact-then-sketch union counter.

    Theorem 1.2's sampling regime is vacuous when the union is small (and
    [Params.create] refuses universes below [~2·ln(4/δ)/ε²] outright): at
    those sizes one can simply hold the distinct elements.  This wrapper
    gives the best of both:

    - while every processed set is small and the running union fits
      [exact_capacity], it materialises sets by coupon collection and the
      estimate is {e exact};
    - the moment anything outgrows the budget it hands over to a VATIC
      sketch that has been fed the whole stream from the start, so the
      transition loses nothing.

    On universes too small for VATIC the wrapper runs exact-only (and
    raises if the exact budget is ever exceeded — at that point the
    parameters were unsatisfiable anyway). *)

module Make (F : Delphic_family.Family.FAMILY) : sig
  type t

  val create :
    ?mode:Params.mode ->
    ?exact_capacity:int ->
    epsilon:float ->
    delta:float ->
    log2_universe:float ->
    seed:int ->
    unit ->
    t
  (** [exact_capacity] defaults to the VATIC bucket bound
      [B·(max_level+1)] — exact mode never uses more memory than the sketch
      it replaces. *)

  val process : ?ts:float -> t -> F.t -> unit
  (** Raises [Failure] only in the exact-only regime (universe too small for
      VATIC) when the capacity is exceeded.  [ts] (default 0) is the logical
      ingest timestamp; both the exact table and the shadow sketch record the
      newest timestamp per element, the invariant {!estimate_window} needs. *)

  val estimate : t -> float

  val estimate_window : t -> cutoff:float -> float
  (** Union size restricted to elements whose last occurrence is at or after
      [cutoff].  Exactly correct in the exact regime (a count over the
      timestamped table); the restricted Horvitz–Thompson sum
      ({!Vatic.Make.estimate_window}) in the sketch regime.
      Non-destructive. *)

  val is_exact : t -> bool
  (** Whether {!estimate} currently returns the exact union size. *)

  val exact_size : t -> int option
  (** The exact distinct count while in exact mode. *)

  val items_processed : t -> int

  val max_bucket_size : t -> int
  (** Largest sketch bucket observed (0 while no sketch exists). *)

  val sketch_size : t -> int
  (** Current sketch bucket occupancy (0 while no sketch exists). *)

  val skipped_sets : t -> int
  (** Sets the underlying sketch dropped at the probability floor (0 in
      exact-only mode). *)

  val describe : t -> string
  (** One-line state description for UIs: "exact (n distinct)" or
      "sketch (...)" . *)

  val epsilon : t -> float
  val delta : t -> float
  val log2_universe : t -> float

  (** {2 Membership probes and union sampling}

      The entry points of the set-expression evaluator
      ({!Delphic_expr.Expr.Eval}): draw union samples here, probe each
      operand session there. *)

  type probe =
    | Absent  (** not held — certainly outside the union while exact *)
    | Member  (** held by the exact table: a true membership indicator *)
    | Sampled of float
        (** held by the sketch bucket at level ℓ; the payload is the
            Horvitz–Thompson weight [2^ℓ], an unbiased estimate of the
            membership indicator (no false positives) *)

  val probe : t -> F.elt -> probe

  val probe_weight : t -> F.elt -> float
  (** [probe] collapsed to its weight: 0, 1, or [2^ℓ]. *)

  val sample_union_n : t -> int -> F.elt list
  (** [n] i.i.d. draws from the running union: uniform over the exact table
      while exact (an {e exactly} uniform sample), the sketch's one-pass
      subsample draw at scale ({!Vatic.Make.sample_union_n}).  Empty when
      nothing has been processed or [n <= 0]. *)

  (** {2 Checkpointing and merging}

      The state — both the exact table and the shadow sketch — leaves a
      process only as a {!Snapshot_io} token written from {!source}
      ([Delphic_server.Families.encode]) and comes back through {!fold}
      (the one-source fold is a verbatim copy).  PRNG state is not saved:
      the copy draws fresh coins from the seed given to {!fold}, which the
      guarantees do not depend on. *)

  type sketch_header = {
    capacity_scale : float;
    coupon_scale : float;
    sketch_items : int;
    max_bucket : int;
    skipped : int;
    membership_calls : int;
    cardinality_calls : int;
    sampling_calls : int;
  }
  (** The shadow sketch's parameters and counters. *)

  type header = {
    mode : Params.mode;
    epsilon : float;
    delta : float;
    log2_universe : float;
    exact_capacity : int;
    items : int;
    exact_active : bool;
    sketch : sketch_header option;  (** [None] below VATIC's universe floor *)
  }
  (** An estimator's parameters and counters: everything but its entries. *)

  type source = {
    header : header;
    exact_size : int;  (** entries [iter_exact] yields *)
    iter_exact : (F.elt -> float -> unit) -> unit;
        (** (element, last-occurrence timestamp) of the exact table *)
    sketch_min_level : int;  (** highest level [iter_sketch] yields (0 when empty) *)
    sketch_size : int;  (** entries [iter_sketch] yields *)
    iter_sketch : (F.elt -> int -> float -> unit) -> unit;
        (** (element, level, last-occurrence timestamp) of the sketch bucket *)
  }
  (** An estimator seen through iterators: a live one ({!source}) or a
      decoded token whose elements are decoded on the fly — the cluster
      folds k worker tokens without building an estimator per token. *)

  val source : t -> source
  (** The estimator's own tables, iterated in place (no copy). *)

  val check_fold : source list -> header
  (** The header check {!fold} starts with: every source has the same ε,
      δ, log2u, mode and exact capacity, and a consistent header.  Returns
      the first source's header (entries unread).  Raises
      [Invalid_argument] on an empty list, a mismatch or an inconsistent
      header — with the message {!fold} would raise. *)

  val fold : source list -> seed:int -> t
  (** The one fold: a copy, a token read back and {!merge} are all
      this.  A single source is copied verbatim.  With several, exact
      tables union while every source is exact and the result fits the
      budget (an overflow hands over to the sketch exactly as a single
      stream does); otherwise the
      exact sources' union is replayed into a fresh sketch and folded with
      every sketching source in one {!Vatic.Make.fold} pass — one coin per
      distinct element at the first holder's level, newest timestamp wins.
      Sources are unchanged.  Raises [Invalid_argument] on an empty list,
      a parameter mismatch, an inconsistent header (sketch mode without a
      sketch, a non-positive exact capacity) or a sketch entry level
      outside the sketch's range, [Failure] if an exact-only (unsketchable)
      union outgrows the budget. *)

  val merge : t -> t -> seed:int -> t
  (** The two-source {!fold} — the sharded-stream merge. *)
end
