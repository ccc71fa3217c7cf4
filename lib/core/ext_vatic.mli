(** EXT-VATIC (Algorithm 2): union-size estimation for streams over
    {e Approximate-Delphic} families (Theorem 1.5).

    The estimator only sees an [(α, γ, η)]-oracle — cardinalities are
    [(α, γ)]-approximate and sampling is [η]-near-uniform — and outputs a
    value guaranteed (w.p. [>= 1-δ]) to lie in

    {v [ (1-ε)/(2(1+η)(1+α)) · |∪S_i| ,  (1+ε)(1+η)(1+α) · |∪S_i| ] v}

    Structure follows VATIC with three amendments: small sets are measured
    exactly by coupon collection (Thresh₁/Thresh₂), large ones through the
    median-amplified cardinality oracle; the initial sampling probability is
    capped at [1/(2(1+α)²)] (Claim 5.2); and the final estimate divides out
    one [(1+α)] factor. *)

module Make (A : Delphic_family.Family.APPROX_FAMILY) : sig
  type t

  val create :
    ?mode:Params.mode ->
    epsilon:float ->
    delta:float ->
    log2_universe:float ->
    alpha:float ->
    gamma:float ->
    eta:float ->
    seed:int ->
    unit ->
    t
  (** The [(α, γ, η)] arguments must (conservatively) bound the oracle's
      actual parameters; [gamma] must be < 1/2 so the median trick can
      amplify. *)

  val process : ?ts:float -> t -> A.t -> unit
  (** [ts] (default 0) tags the bucket entries this set contributes with a
      logical ingest timestamp; a retained entry always carries its
      element's newest occurrence time (see {!Vatic.Make.process}). *)

  val estimate : t -> float

  val estimate_window : t -> cutoff:float -> float
  (** Estimate restricted to elements whose last occurrence is at or after
      [cutoff] — the Horvitz–Thompson sum over in-window entries with the
      same [(1+α)] correction as {!estimate}.  Non-destructive and
      deterministic given the sketch. *)

  val sample_union : t -> A.elt option
  (** Approximate-uniform draw from [∪ S_i] (the conclusion's remark covers
      both algorithms): a uniform element of the minimum-probability
      subsample.  The η-tilt of the oracle carries through, so uniformity is
      within the same (1+η)-band as the sampler's.  [None] when empty. *)

  val sample_union_n : t -> int -> A.elt list
  (** [n] i.i.d. draws (with replacement) from one minimum-rate subsample —
      a single bucket pass however large [n] is.  {!sample_union} is the
      [n = 1] wrapper. *)

  val probe_weight : t -> A.elt -> float option
  (** The Horvitz–Thompson membership weight [1/p] for an element the
      bucket holds at retention probability [p = p_init · 2^{-j}], [None]
      when absent.  No false positives; the η-tilt of the sampling oracle
      carries into the weight's bias band. *)

  val window : t -> float * float
  (** Multiplicative guarantee [(lo, hi)] such that the output is within
      [[lo·|∪S_i|, hi·|∪S_i|]] with probability [1-δ]. *)

  (** {2 Instrumentation} *)

  val bucket_size : t -> int
  val max_bucket_size : t -> int
  val items_processed : t -> int
  val skipped_sets : t -> int

  type oracle_calls = {
    membership : int;
    cardinality : int;
    sampling : int;
  }

  val oracle_calls : t -> oracle_calls

  (** {2 Merging}

      No serving family runs on an Approximate-Delphic oracle, so this
      estimator has no saved form: its state lives in one process, and
      {!merge} is its only combination.  (The served estimators save their
      state as a {!Snapshot_io} token and read it back through
      {!Adaptive.Make.fold}.) *)

  val merge : t -> t -> seed:int -> t
  (** Sharded-stream union, same contract and caveats as
      {!Vatic.Make.merge} expressed in halving counts: downsample both
      buckets to the common minimum rate [j₀], union with dedup, re-apply
      the capacity/halving rule.  Merging with an empty sketch is the exact
      identity on the bucket.  Raises [Invalid_argument] on an
      [(ε, δ, log2|Ω|, α, γ, η, mode)] mismatch. *)
end
