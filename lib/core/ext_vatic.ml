module Bigint = Delphic_util.Bigint
module Rng = Delphic_util.Rng
module Binomial = Delphic_util.Binomial

module Make (A : Delphic_family.Family.APPROX_FAMILY) = struct
  module Tbl = Hashtbl.Make (struct
    type t = A.elt

    let equal = A.equal_elt
    let hash = A.hash_elt
  end)

  type oracle_calls = { membership : int; cardinality : int; sampling : int }

  type t = {
    mode : Params.mode;
    epsilon : float;
    delta : float;
    log2_universe : float;
    alpha : float;
    gamma : float;
    eta : float;
    bucket_capacity : int; (* B *)
    thresh1 : int;
    thresh2 : int;
    log2_p_init : float; (* log2 (1 / (2(1+α)²)) *)
    log2_p_min : float; (* log2 (L / |Ω|) *)
    coupon_factor : float; (* ln(4|Ω|/δ) *)
    median_reps : int; (* amplification count for the cardinality oracle *)
    rng : Rng.t;
    bucket : (int * float) Tbl.t;
        (* element -> (halving count j with p = p_init · 2^-j,
                       last-occurrence ingest timestamp) *)
    scratch : unit Tbl.t;
        (* reusable distinct-sample workspace shared by [estimate_set_size]
           and the coupon loop of [process]; always left empty between
           uses *)
    mutable counts : int array; (* counts.(j) = elements held at halving count j *)
    mutable top : int; (* highest occupied j; -1 when the bucket is empty *)
    mutable items : int;
    mutable max_bucket : int;
    mutable skipped : int;
    mutable membership_calls : int;
    mutable cardinality_calls : int;
    mutable sampling_calls : int;
  }

  let ln2 = log 2.0

  let create ?(mode = Params.Practical) ~epsilon ~delta ~log2_universe ~alpha ~gamma
      ~eta ~seed () =
    if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Ext_vatic: need 0 < epsilon < 1";
    if delta <= 0.0 || delta >= 1.0 then invalid_arg "Ext_vatic: need 0 < delta < 1";
    if log2_universe <= 0.0 then invalid_arg "Ext_vatic: need log2_universe > 0";
    if alpha < 0.0 then invalid_arg "Ext_vatic: need alpha >= 0";
    if gamma < 0.0 || gamma >= 0.5 then invalid_arg "Ext_vatic: need 0 <= gamma < 1/2";
    if eta < 0.0 then invalid_arg "Ext_vatic: need eta >= 0";
    (* ln |Ω| and ln(c·|Ω|/δ) computed in log space. *)
    let ln_universe = log2_universe *. ln2 in
    let l = log (8.0 /. delta) /. (epsilon *. epsilon) *. (2.0 *. (1.0 +. eta)) in
    let ln_2u_delta = log 2.0 +. ln_universe -. log delta in
    let bucket_capacity =
      match mode with
      | Params.Paper -> int_of_float (Float.ceil (l *. ln_2u_delta))
      | Params.Practical -> int_of_float (Float.ceil (6.0 *. l))
    in
    (* Thresh₁ = 3·ln(2(1+η)|Ω|/L): below it a set is small enough to be
       counted exactly by coupon collection; above it Claim 5.2's
       |S| >= 3·ln(2(1+η)/p) precondition holds for every admissible p. *)
    let thresh1 =
      Stdlib.max 1
        (int_of_float
           (Float.ceil (3.0 *. (log (2.0 *. (1.0 +. eta)) +. ln_universe -. log l))))
    in
    let t1 = float_of_int thresh1 in
    let thresh2 =
      int_of_float
        (Float.ceil
           ((1.0 +. eta) *. t1 *. (log (8.0 /. delta) +. ln_universe +. log t1)))
    in
    let median_reps =
      if gamma = 0.0 then 1
      else begin
        (* Median amplification to failure δ/(4|Ω|): Chernoff on q Bernoulli
           trials with success 1-γ needs q >= ln(4|Ω|/δ) / (2(1/2-γ)²). *)
        let q =
          Float.ceil
            ((log 4.0 +. ln_universe -. log delta)
            /. (2.0 *. ((0.5 -. gamma) ** 2.0)))
        in
        let q = int_of_float q in
        if q mod 2 = 0 then q + 1 else q
      end
    in
    let log2_p_init = -.(log (2.0 *. ((1.0 +. alpha) ** 2.0)) /. ln2) in
    let log2_p_min = (log l /. ln2) -. log2_universe in
    if log2_p_min > log2_p_init then
      invalid_arg
        "Ext_vatic.create: universe too small for these parameters (the \
         probability floor L/|U| exceeds the initial rate 1/(2(1+alpha)^2)) — \
         count the union exactly instead";
    {
      mode;
      epsilon;
      delta;
      log2_universe;
      alpha;
      gamma;
      eta;
      bucket_capacity;
      thresh1;
      thresh2;
      log2_p_init;
      log2_p_min;
      coupon_factor = log 4.0 +. ln_universe -. log delta;
      median_reps;
      rng = Rng.create ~seed;
      bucket = Tbl.create 1024;
      scratch = Tbl.create 256;
      counts = Array.make 64 0;
      top = -1;
      items = 0;
      max_bucket = 0;
      skipped = 0;
      membership_calls = 0;
      cardinality_calls = 0;
      sampling_calls = 0;
    }

  let bucket_size t = Tbl.length t.bucket
  let max_bucket_size t = t.max_bucket
  let items_processed t = t.items
  let skipped_sets t = t.skipped

  (* Per-level occupancy histogram, as in {!Vatic.Make}: keeps the maximum
     halving count an O(1) read instead of a bucket fold.  All bucket
     mutation funnels through these helpers. *)

  let ensure_level t j =
    if j >= Array.length t.counts then begin
      let grown = Array.make (2 * (j + 1)) 0 in
      Array.blit t.counts 0 grown 0 (Array.length t.counts);
      t.counts <- grown
    end

  let note_add t j =
    ensure_level t j;
    t.counts.(j) <- t.counts.(j) + 1;
    if j > t.top then t.top <- j

  let note_remove t j =
    t.counts.(j) <- t.counts.(j) - 1;
    while t.top >= 0 && t.counts.(t.top) = 0 do
      t.top <- t.top - 1
    done

  (* Keep the newest timestamp per retained element (see Vatic.bucket_add):
     expiry must never make an entry look older than its last occurrence. *)
  let bucket_add ?(ts = 0.0) t x j =
    let ts =
      match Tbl.find_opt t.bucket x with
      | Some (old, old_ts) ->
          note_remove t old;
          Float.max old_ts ts
      | None -> ts
    in
    Tbl.replace t.bucket x (j, ts);
    note_add t j

  let max_halving_count t = Stdlib.max t.top 0

  let oracle_calls t =
    {
      membership = t.membership_calls;
      cardinality = t.cardinality_calls;
      sampling = t.sampling_calls;
    }

  let window t =
    let lo = (1.0 -. t.epsilon) /. (2.0 *. (1.0 +. t.eta) *. (1.0 +. t.alpha)) in
    let hi = (1.0 +. t.epsilon) *. (1.0 +. t.eta) *. (1.0 +. t.alpha) in
    (lo, hi)

  (* Fixed-point multiplication of a cardinality by (1+α). *)
  let scale_up v factor =
    let fixed = int_of_float (Float.ceil (factor *. 1048576.0)) in
    Bigint.max Bigint.one (Bigint.shift_right (Bigint.mul_int v fixed) 20)

  (* (α, δ/4|Ω|)-approximate cardinality via the median trick
     (Observation 5.1(1)). *)
  let amplified_cardinality t s =
    let samples =
      Array.init t.median_reps (fun _ ->
          t.cardinality_calls <- t.cardinality_calls + 1;
          A.approx_cardinality s t.rng)
    in
    Array.sort Bigint.compare samples;
    samples.(t.median_reps / 2)

  (* Lines 10-18: estimate E_i.  Small sets are measured exactly by drawing
     Thresh₂ near-uniform samples and counting distinct values; larger sets
     go through the amplified oracle, inflated by (1+α) so that E_i(1+α)
     upper-bounds |S_i| (Observation 5.1(1)). *)
  let estimate_set_size t s =
    let seen = t.scratch in
    let k = ref 0 in
    while !k < t.thresh2 && Tbl.length seen <= t.thresh1 do
      incr k;
      let y = A.approx_sample s t.rng in
      if not (Tbl.mem seen y) then Tbl.replace seen y ()
    done;
    t.sampling_calls <- t.sampling_calls + !k;
    let distinct = Tbl.length seen in
    Tbl.clear seen;
    if distinct <= t.thresh1 then Bigint.of_int distinct
    else scale_up (amplified_cardinality t s) (1.0 +. t.alpha)

  let remove_covered t s =
    t.membership_calls <- t.membership_calls + bucket_size t;
    Tbl.filter_map_inplace
      (fun x ((j, _) as e) ->
        if A.mem s x then begin
          note_remove t j;
          None
        end
        else Some e)
      t.bucket

  (* Draw Bin(card, 2^log2p) with the same large-value guards as VATIC. *)
  let binomial_of_cardinality rng card ~log2p =
    let l2n = Bigint.log2 card in
    let l2np = l2n +. log2p in
    if l2np < -40.0 then 0.0
    else if l2n > 1000.0 then 2.0 ** Float.min l2np 1020.0
    else Binomial.sample_bigint rng ~n:card ~p:(2.0 ** log2p)

  let process ?(ts = 0.0) t s =
    t.items <- t.items + 1;
    remove_covered t s;
    let e = estimate_set_size t s in
    (* Line 19-20: initial probability 1/(2(1+α)²), drawn over E_i(1+α). *)
    let j = ref 0 in
    let log2p () = t.log2_p_init -. float_of_int !j in
    let n =
      ref
        (binomial_of_cardinality t.rng
           (scale_up e (1.0 +. t.alpha))
           ~log2p:(log2p ()))
    in
    (* Lines 21-22: halve until the insertion fits the capacity. *)
    let capacity = float_of_int t.bucket_capacity in
    let needed () =
      Float.ceil ((float_of_int (bucket_size t) +. !n) /. capacity)
    in
    while log2p () > -.(needed ()) && log2p () >= t.log2_p_min do
      incr j;
      n := Binomial.halve t.rng !n
    done;
    if log2p () < t.log2_p_min then t.skipped <- t.skipped + 1
    else begin
      (* Lines 24-29. *)
      let wanted = int_of_float !n in
      if wanted > 0 then begin
        let budget =
          int_of_float (Float.ceil (4.0 *. float_of_int wanted *. t.coupon_factor))
        in
        let fresh = t.scratch in
        let drawn = ref 0 in
        while Tbl.length fresh < wanted && !drawn < budget do
          incr drawn;
          let y = A.approx_sample s t.rng in
          if not (Tbl.mem fresh y) then Tbl.replace fresh y ()
        done;
        t.sampling_calls <- t.sampling_calls + !drawn;
        Tbl.iter (fun y () -> bucket_add ~ts t y !j) fresh;
        Tbl.clear fresh;
        if bucket_size t > t.max_bucket then t.max_bucket <- bucket_size t
      end
    end

  (* Survivor count only — nothing materialised (see Vatic.subsample). *)
  let subsample t =
    let j0 = max_halving_count t in
    let kept = ref 0 in
    Tbl.iter
      (fun _ (j, _) ->
        if Rng.bernoulli_pow2 t.rng (j - j0) then incr kept)
      t.bucket;
    (j0, !kept)

  (* Lines 30-33. *)
  let estimate t =
    if bucket_size t = 0 then 0.0
    else begin
      let j0, kept = subsample t in
      let log2_p0 = t.log2_p_init -. float_of_int j0 in
      float_of_int kept /. (2.0 ** log2_p0) /. (1.0 +. t.alpha)
    end

  (* Horvitz-Thompson sum over entries whose last occurrence is inside the
     window, with the same (1+α) correction as [estimate] — the windowed
     counterpart of {!Vatic.Make.estimate_window}, expressed through the
     retention probability p_init·2^-j. *)
  let estimate_window t ~cutoff =
    let acc = ref 0.0 in
    Tbl.iter
      (fun _ (j, ts) ->
        if ts >= cutoff then
          acc := !acc +. (2.0 ** (float_of_int j -. t.log2_p_init)))
      t.bucket;
    !acc /. (1.0 +. t.alpha)

  (* Membership probe, as in {!Vatic.Make.probe_level}: an element held at
     halving count j was retained with probability p_init·2^-j, so the
     Horvitz-Thompson membership weight is 2^(j - log2_p_init). *)
  let probe_weight t x =
    match Tbl.find_opt t.bucket x with
    | None -> None
    | Some (j, _) -> Some (2.0 ** (float_of_int j -. t.log2_p_init))

  (* One bucket pass materialising the j0-rate subsample, then n uniform
     index draws — i.i.d. with replacement, O(|X| + n). *)
  let sample_union_n t n =
    if n <= 0 || bucket_size t = 0 then []
    else begin
      let j0 = max_halving_count t in
      let survivors = ref [] in
      let kept = ref 0 in
      Tbl.iter
        (fun x (j, _) ->
          if Rng.bernoulli_pow2 t.rng (j - j0) then begin
            incr kept;
            survivors := x :: !survivors
          end)
        t.bucket;
      if !kept = 0 then []
      else begin
        let arr = Array.of_list !survivors in
        List.init n (fun _ -> arr.(Rng.int t.rng !kept))
      end
    end

  let sample_union t =
    match sample_union_n t 1 with [] -> None | x :: _ -> Some x

  (* Same merge semantics as Vatic.merge, expressed in halving counts j
     (p = p_init·2^-j): downsample both buckets to the common minimum rate
     j0, union with dedup, re-apply the capacity/halving rule of process
     (stopping at the probability floor rather than discarding data). *)
  let merge (a : t) (b : t) ~seed =
    if
      a.epsilon <> b.epsilon || a.delta <> b.delta
      || a.log2_universe <> b.log2_universe
      || a.alpha <> b.alpha || a.gamma <> b.gamma || a.eta <> b.eta
      || a.mode <> b.mode
      || a.bucket_capacity <> b.bucket_capacity
    then invalid_arg "Ext_vatic.merge: parameter mismatch";
    let t =
      create ~mode:a.mode ~epsilon:a.epsilon ~delta:a.delta
        ~log2_universe:a.log2_universe ~alpha:a.alpha ~gamma:a.gamma ~eta:a.eta ~seed ()
    in
    (if bucket_size a = 0 then
       Tbl.iter (fun x (j, ts) -> bucket_add ~ts t x j) b.bucket
     else if bucket_size b = 0 then
       Tbl.iter (fun x (j, ts) -> bucket_add ~ts t x j) a.bucket
     else begin
       let j0 = ref (Stdlib.max (max_halving_count a) (max_halving_count b)) in
       (* one coin per distinct element: an element retained by both buckets
          flips only shard a's coin, as in Vatic.merge, and keeps the newest
          of the two shards' timestamps *)
       let ts_in other x ts =
         match Tbl.find_opt other.bucket x with
         | Some (_, other_ts) -> Float.max ts other_ts
         | None -> ts
       in
       let absorb ~dup ~other src =
         Tbl.iter
           (fun x (j, ts) ->
             if (not (dup x)) && Rng.bernoulli_pow2 t.rng (j - !j0)
             then bucket_add ~ts:(ts_in other x ts) t x !j0)
           src.bucket
       in
       absorb ~dup:(fun _ -> false) ~other:b a;
       absorb ~dup:(Tbl.mem a.bucket) ~other:a b;
       let capacity = float_of_int t.bucket_capacity in
       let log2p () = t.log2_p_init -. float_of_int !j0 in
       let needed () = Float.ceil (float_of_int (bucket_size t) /. capacity) in
       while log2p () > -.(needed ()) && log2p () -. 1.0 >= t.log2_p_min do
         incr j0;
         (* survivors migrate in place; every entry sits at the
            pre-increment j0 *)
         Tbl.filter_map_inplace
           (fun _ (j, ts) ->
             note_remove t j;
             if Rng.bool t.rng then begin
               note_add t !j0;
               Some (!j0, ts)
             end
             else None)
           t.bucket
       done
     end);
    t.items <- a.items + b.items;
    t.max_bucket <- Stdlib.max (Stdlib.max a.max_bucket b.max_bucket) (bucket_size t);
    t.skipped <- a.skipped + b.skipped;
    t.membership_calls <- a.membership_calls + b.membership_calls;
    t.cardinality_calls <- a.cardinality_calls + b.cardinality_calls;
    t.sampling_calls <- a.sampling_calls + b.sampling_calls;
    t
end
