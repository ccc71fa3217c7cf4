(** VATIC (Algorithm 1): streaming [(ε, δ)]-estimation of [|∪ S_i|] for
    Delphic set streams of {e unknown} length, with space and update time
    polynomial in [(log |Ω|, 1/ε, log 1/δ)] and independent of the stream
    size — the paper's main contribution (Theorem 1.2).

    The sketch is a bucket [X] of (element, sampling-level) pairs, where
    level [ℓ] encodes the dyadic probability [p = 2^{-ℓ}].  Processing a set
    [S_i] first deletes [X ∩ S_i] (so survival of an element depends only on
    its {e last} occurrence — the key to M-independence), then inserts a
    [Bin(|S_i|, p)]-sized uniform sample of [S_i] at the level dictated by
    the current bucket occupancy, halving adaptively as the bucket fills. *)

module Make (F : Delphic_family.Family.FAMILY) : sig
  type t

  val create :
    ?mode:Params.mode ->
    ?capacity_scale:float ->
    ?coupon_scale:float ->
    epsilon:float ->
    delta:float ->
    log2_universe:float ->
    seed:int ->
    unit ->
    t
  (** [log2_universe] is [log2 |Ω|] for the universe the stream's sets live
      in (e.g. [d · log2 |Δ|] for boxes in [Δ^d]). *)

  val params : t -> Params.t

  val process : ?ts:float -> t -> F.t -> unit
  (** Feed the next set of the stream.  [ts] (default 0) is the logical
      ingest timestamp recorded on every bucket entry the set contributes;
      because processing deletes [X ∩ S_i] first, a retained entry's
      timestamp is always its element's {e last} occurrence time, and
      re-insertion keeps the newest timestamp per element — the invariant
      windowed queries ({!estimate_window}) rely on. *)

  val process_element : ?ts:float -> t -> F.elt -> unit
  (** Feed one element as the singleton set [{x}], at oracle cost O(1)
      instead of [process]'s O(|X|) membership pass.  A stream of
      singletons covering a union — each element stamped with its
      last-occurrence [ts] — is a valid Delphic stream for that union, so
      every estimate guarantee carries over; this is the replay primitive
      behind {!Adaptive}'s lazy exact→sketch hand-over. *)

  val estimate : t -> float
  (** Current estimate of [|∪ S_i|] over the items processed so far
      (lines 18–21: subsample everything down to the minimum level [p_0],
      return [|X|/p_0]).  Non-destructive — processing may continue — but
      randomized: repeated calls may differ slightly. *)

  val estimate_horvitz_thompson : t -> float
  (** The estimator of the paper's footnote 5: the direct sum
      [Σ_{(s,ℓ) ∈ X} 2^ℓ] without the final resampling step.  Accuracy is
      statistically indistinguishable from {!estimate} (ablation A4), but
      this variant is deterministic given the sketch — repeated queries
      agree exactly; the published algorithm resamples only to streamline
      the analysis. *)

  val estimate_window : t -> cutoff:float -> float
  (** {!estimate_horvitz_thompson} restricted to bucket entries whose last
      occurrence is at or after [cutoff]: an unbiased estimate of
      [|{x : last occurrence of x ≥ cutoff}|], i.e. the union over the
      trailing window.  Non-destructive — a small-window query never
      perturbs later, larger-window ones — and deterministic given the
      sketch.  With [cutoff = neg_infinity] it equals
      {!estimate_horvitz_thompson} exactly. *)

  val sample_union : t -> F.elt option
  (** Approximate-uniform draw from [∪ S_i] (the adaptation noted in the
      paper's conclusion): a uniform element of the level-[p_0] subsample.
      [None] when the sketch is empty. *)

  val sample_union_n : t -> int -> F.elt list
  (** [n] i.i.d. draws (with replacement) from one level-[p_0] subsample —
      a single bucket pass however large [n] is, which is what the
      set-expression evaluator's Monte-Carlo loop needs.  {!sample_union}
      is the [n = 1] wrapper.  Empty list when the sketch (or the
      subsample) is empty or [n <= 0]. *)

  val probe_level : t -> F.elt -> int option
  (** The sampling level at which the bucket currently holds [x], [None]
      when absent.  The bucket holds only elements of [∪ S_i] (no false
      positives) and holds a union element at level [ℓ] with probability
      [2^{-ℓ}], so [1[held] · 2^ℓ] is an unbiased Horvitz–Thompson estimate
      of the membership indicator — the probe the set-expression estimator
      evaluates. *)

  (** {2 Instrumentation} *)

  val bucket_size : t -> int
  (** Current [|X|]. *)

  val max_bucket_size : t -> int
  (** Largest [|X|] observed — the space-complexity quantity of Theorem
      1.2. *)

  val current_level : t -> int
  (** The level [⌈|X|/B⌉] that the next insertion would start from. *)

  val min_sampling_level : t -> int
  (** Level of the least-likely sampled element currently held ([log2 1/p_0]);
      0 when empty. *)

  val items_processed : t -> int

  val skipped_sets : t -> int
  (** Sets dropped because the admissible probability floor was reached
      (probability ≤ δ/2 per Theorem 1.2's analysis; should be 0). *)

  type oracle_calls = {
    membership : int;
    cardinality : int;
    sampling : int;
  }

  val oracle_calls : t -> oracle_calls
  (** Total Delphic queries issued, the update-time quantity of Theorem
      1.2. *)

  (** {2 Checkpointing}

      A sketch is a few thousand (element, level) pairs plus its parameters,
      so it checkpoints cheaply.  Its state leaves a process only as a
      {!Snapshot_io} token written from its {!source} and comes back through
      {!fold} (the one-source fold is a verbatim copy).  The PRNG state is
      not saved: the copy draws fresh coins from the seed given to {!fold},
      which the guarantees do not depend on. *)

  type header = {
    mode : Params.mode;
    capacity_scale : float;
    coupon_scale : float;
    epsilon : float;
    delta : float;
    log2_universe : float;
    items : int;
    max_bucket : int;
    skipped : int;
    calls : oracle_calls;
  }
  (** A sketch's parameters and counters: everything but its bucket. *)

  (** {2 Mergeability}

      The union operation is order- and partition-insensitive, so a stream
      may be sharded across workers and the per-worker sketches combined —
      the distributed-streams setting of Dasgupta et al.'s theta-sketch
      framework, applied to VATIC's level-sampled bucket.  Like a theta
      sketch union, the combination is one pass over all k inputs at their
      smallest common sampling probability. *)

  type source = {
    header : header;
    min_level : int;  (** the highest level [iter] yields (0 when empty) *)
    size : int;  (** how many entries [iter] yields *)
    iter : (F.elt -> int -> float -> unit) -> unit;
        (** calls back with (element, level, last-occurrence timestamp) *)
  }
  (** A bucket seen through an iterator: a live estimator's table
      ({!source}) or a decoded token's entries — the cluster folds worker
      tokens without building an estimator per token. *)

  val source : t -> source
  (** The estimator's own table, iterated in place (no copy). *)

  val fold : source list -> seed:int -> t
  (** [fold sources ~seed] is a sketch of the union of the sources'
      sharded sub-streams, built in one pass: with L0 the largest of the
      non-empty sources' [min_level]s, each distinct element gets exactly
      one coin [2^(ℓ-L0)] at the level [ℓ] of the first source holding it,
      its newest timestamp across all sources wins, and the
      capacity/halving rule is re-applied.  Empty sources are skipped; a
      single non-empty source is copied verbatim (the exact identity).
      Counters add up; the result draws future coins from [seed].

      Caveat: inclusion events are independent across shards (no shared
      hash), so coverage shared by several shards is double-counted in
      expectation at small [p₀] — the estimate lies between [|∪|] and the
      sum of the shard union sizes.  Shard by hash-of-set so duplicate sets
      land on one worker and the gap stays bounded by the geometric overlap
      between {e distinct} sets.

      Raises [Invalid_argument] on an empty list, on sources built with
      different [(ε, δ, log2|Ω|, mode, B)] parameters, or on an entry level
      outside [[0, max_level]] (or above its source's [min_level]). *)

  val merge : t -> t -> seed:int -> t
  (** The two-source {!fold}; inputs are unchanged. *)
end
