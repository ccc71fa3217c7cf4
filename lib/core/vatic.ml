module Bigint = Delphic_util.Bigint
module Rng = Delphic_util.Rng
module Binomial = Delphic_util.Binomial

let log_src = Logs.Src.create "delphic.vatic" ~doc:"VATIC estimator internals"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Make (F : Delphic_family.Family.FAMILY) = struct
  module Key = struct
    type t = F.elt

    let equal = F.equal_elt
    let hash = F.hash_elt
  end

  module Tbl = Hashtbl.Make (Key)
  module Bucket = Entry_table.Make (Key)

  type oracle_calls = { membership : int; cardinality : int; sampling : int }

  type t = {
    params : Params.t;
    rng : Rng.t;
    bucket : Bucket.t;
        (* element -> (sampling level ℓ, i.e. p = 2^-ℓ,
                       ingest timestamp of the element's last occurrence) *)
    scratch : unit Tbl.t;
        (* reusable coupon-draw workspace for [process]; always left empty
           between updates so the sketch never pins a processed set's
           elements *)
    mutable counts : int array; (* counts.(ℓ) = elements held at level ℓ *)
    mutable top : int; (* highest occupied level; -1 when the bucket is empty *)
    mutable items : int;
    mutable max_bucket : int;
    mutable skipped : int;
    mutable membership_calls : int;
    mutable cardinality_calls : int;
    mutable sampling_calls : int;
  }

  let make ?mode ?capacity_scale ?coupon_scale ?(size = 1024) ~epsilon ~delta
      ~log2_universe ~seed () =
    let params =
      Params.create ?mode ?capacity_scale ?coupon_scale ~epsilon ~delta ~log2_universe ()
    in
    {
      params;
      rng = Rng.create ~seed;
      bucket = Bucket.create size;
      scratch = Tbl.create 256;
      counts = Array.make (Stdlib.max 8 (params.Params.max_level + 2)) 0;
      top = -1;
      items = 0;
      max_bucket = 0;
      skipped = 0;
      membership_calls = 0;
      cardinality_calls = 0;
      sampling_calls = 0;
    }

  let create ?mode ?capacity_scale ?coupon_scale ~epsilon ~delta ~log2_universe ~seed () =
    make ?mode ?capacity_scale ?coupon_scale ~epsilon ~delta ~log2_universe ~seed ()

  let params t = t.params
  let bucket_size t = Bucket.length t.bucket
  let max_bucket_size t = t.max_bucket
  let items_processed t = t.items
  let skipped_sets t = t.skipped

  (* The per-level occupancy histogram [counts]/[top] shadows the bucket so
     the level queries the hot path issues on every update — minimum
     sampling level, Horvitz-Thompson sum — are O(1)/O(top) instead of a
     fold over the whole bucket.  All bucket mutation funnels through these
     three helpers. *)

  let ensure_level t l =
    if l >= Array.length t.counts then begin
      let grown = Array.make (2 * (l + 1)) 0 in
      Array.blit t.counts 0 grown 0 (Array.length t.counts);
      t.counts <- grown
    end

  let note_add t l =
    ensure_level t l;
    t.counts.(l) <- t.counts.(l) + 1;
    if l > t.top then t.top <- l

  let note_remove t l =
    t.counts.(l) <- t.counts.(l) - 1;
    while t.top >= 0 && t.counts.(t.top) = 0 do
      t.top <- t.top - 1
    done

  (* Re-inserting an element keeps the newest timestamp seen for it: a
     retained entry must never look older than the element's last occurrence,
     or window expiry would under-count (DESIGN.md, "Windowed estimation"). *)
  let bucket_add t x l ts =
    let old = Bucket.upsert t.bucket x l ts in
    if old >= 0 then note_remove t old;
    note_add t l

  let level_for t occupancy =
    (* ⌈occupancy / B⌉ *)
    let b = t.params.Params.bucket_capacity in
    (occupancy + b - 1) / b

  let current_level t = level_for t (bucket_size t)
  let min_sampling_level t = Stdlib.max t.top 0

  let oracle_calls t =
    {
      membership = t.membership_calls;
      cardinality = t.cardinality_calls;
      sampling = t.sampling_calls;
    }

  (* Draw Bin(card, 2^-level) as an integral float.  Guards:
     - negligible mean (< 2^-40): the draw is 0 with overwhelming
       probability, and pretending it is biases nothing detectable;
     - card beyond float range (> 2^1000): only the magnitude matters — the
       halving loop will shrink the value by that many more levels before
       anything is materialised, so the deterministic mean (relative
       deviation < 2^-500) is used. *)
  let binomial_of_cardinality rng card ~level =
    let l2n = Bigint.log2 card in
    let l2np = l2n -. float_of_int level in
    if l2np < -40.0 then 0.0
    else if l2n > 1000.0 then 2.0 ** Float.min l2np 1020.0
    else Binomial.sample_bigint rng ~n:card ~p:(Float.ldexp 1.0 (-level))

  let remove_covered t s =
    t.membership_calls <- t.membership_calls + bucket_size t;
    (* single in-place pass: no doomed-list allocation, no second traversal *)
    Bucket.filter_levels
      (fun x l ->
        if F.mem s x then begin
          note_remove t l;
          -1
        end
        else l)
      t.bucket

  let process ?(ts = 0.0) t s =
    t.items <- t.items + 1;
    (* Lines 4-6: only the last occurrence of an element can keep it in X. *)
    remove_covered t s;
    (* Lines 7-8: initial level from current occupancy. *)
    let level = ref (current_level t) in
    t.cardinality_calls <- t.cardinality_calls + 1;
    let n = ref (binomial_of_cardinality t.rng (F.cardinality s) ~level:!level) in
    (* Lines 9-10: halve until the sample would fit the capacity at its own
       level, or the probability floor is crossed. *)
    let max_level = t.params.Params.max_level in
    let capacity = float_of_int t.params.Params.bucket_capacity in
    (* The needed level is computed in float space: right after line 8, N can
       exceed native-int range by hundreds of orders of magnitude. *)
    let needed () =
      Float.ceil ((float_of_int (bucket_size t) +. !n) /. capacity)
    in
    while float_of_int !level < needed () && !level <= max_level do
      incr level;
      n := Binomial.halve t.rng !n
    done;
    if !level > max_level then begin
      t.skipped <- t.skipped + 1;
      (* The analysis makes this a <= delta/2 probability event across the
         whole stream; seeing it repeatedly means the parameters are off. *)
      Log.warn (fun m ->
          m "item %d skipped: probability floor reached (skips so far: %d)" t.items
            t.skipped)
    end
    else begin
      (* Lines 12-17: collect N distinct uniform samples of S, giving each
         element of S an independent 2^-level chance (Claim 2.5), with the
         coupon-collector budget K bounding worst-case update time. *)
      let wanted = int_of_float !n in
      if wanted > 0 then begin
        let budget = Params.max_samples t.params ~n_distinct:wanted in
        let fresh = t.scratch in
        let drawn = ref 0 in
        while Tbl.length fresh < wanted && !drawn < budget do
          incr drawn;
          let y = F.sample s t.rng in
          if not (Tbl.mem fresh y) then Tbl.replace fresh y ()
        done;
        t.sampling_calls <- t.sampling_calls + !drawn;
        Tbl.iter (fun y () -> bucket_add t y !level ts) fresh;
        Tbl.clear fresh;
        if bucket_size t > t.max_bucket then t.max_bucket <- bucket_size t
      end
    end

  (* One singleton update: {x} processed exactly as [process] would a
     one-element Delphic set, at oracle cost O(1) instead of O(|X|) — the
     membership pass is a single bucket lookup, the cardinality is 1, and
     Bin(1, 2^-ℓ) is a Bernoulli coin.  A stream of singletons covering a
     union U, each carrying its element's last-occurrence timestamp, is a
     valid Delphic stream for U, so feeding a sketch this way preserves
     every (ε,δ) guarantee — this is how the adaptive wrapper rebuilds a
     sketch from its exact table at the exact→sketch hand-over. *)
  let process_element ?(ts = 0.0) t x =
    t.items <- t.items + 1;
    t.membership_calls <- t.membership_calls + 1;
    (match Bucket.level t.bucket x with
    | -1 -> ()
    | l ->
      Bucket.remove t.bucket x;
      note_remove t l);
    let level = ref (current_level t) in
    t.cardinality_calls <- t.cardinality_calls + 1;
    let n =
      ref (if Rng.bernoulli_pow2 t.rng (- !level) then 1.0 else 0.0)
    in
    let max_level = t.params.Params.max_level in
    let capacity = float_of_int t.params.Params.bucket_capacity in
    let needed () =
      Float.ceil ((float_of_int (bucket_size t) +. !n) /. capacity)
    in
    while float_of_int !level < needed () && !level <= max_level do
      incr level;
      n := Binomial.halve t.rng !n
    done;
    if !level > max_level then begin
      t.skipped <- t.skipped + 1;
      Log.warn (fun m ->
          m "element skipped: probability floor reached (skips so far: %d)"
            t.skipped)
    end
    else if !n >= 1.0 then begin
      t.sampling_calls <- t.sampling_calls + 1;
      bucket_add t x !level ts;
      if bucket_size t > t.max_bucket then t.max_bucket <- bucket_size t
    end

  (* Lines 18-21 on a virtual copy: subsample every element down to the
     minimum probability p0 and return |X| / p0.  Only the survivor count
     matters for the estimate, so nothing is materialised. *)
  let subsample t =
    let p0_level = min_sampling_level t in
    let kept = ref 0 in
    Bucket.iter_levels
      (fun _ l -> if Rng.bernoulli_pow2 t.rng (l - p0_level) then incr kept)
      t.bucket;
    (p0_level, !kept)

  let estimate t =
    if bucket_size t = 0 then 0.0
    else begin
      let p0_level, kept = subsample t in
      Float.ldexp (float_of_int kept) p0_level
    end

  (* Footnote 5 of the paper: the "natural" estimator is Σ_j N(p_j)/p_j;
     the published algorithm resamples down to p_0 purely to simplify the
     concentration argument.  This is the direct Horvitz-Thompson sum — it
     skips the extra Bernoulli noise, is deterministic given the sketch, and
     A4 in EXPERIMENTS.md measures its variance advantage.  The level
     histogram makes it a sum over occupied levels, not a bucket fold. *)
  let estimate_horvitz_thompson t =
    let acc = ref 0.0 in
    for l = 0 to t.top do
      if t.counts.(l) > 0 then
        acc := !acc +. Float.ldexp (float_of_int t.counts.(l)) l
    done;
    !acc

  (* The same Horvitz-Thompson sum restricted to entries whose last
     occurrence is inside the window.  Survival in the bucket depends only on
     the last occurrence (lines 4-6 delete X ∩ S_i before re-inserting), so
     an entry with ts ≥ cutoff is held with exactly probability 2^-ℓ among
     the elements whose last occurrence is in the window — the restricted
     sum is unbiased for |{x : last occurrence of x ≥ cutoff}|.  The level
     histogram has no time axis, so one bucket pass counts the windowed
     entries per level first.  Every partial sum is a whole multiple of the
     lowest power far below 2^53 of it, so the sum is exact in any order
     and equals the per-entry sum bit for bit. *)
  let estimate_window t ~cutoff =
    let counts = Array.make (t.top + 1) 0 in
    Bucket.count_since t.bucket cutoff counts;
    let acc = ref 0.0 in
    for l = 0 to t.top do
      if counts.(l) > 0 then acc := !acc +. Float.ldexp (float_of_int counts.(l)) l
    done;
    !acc

  (* Membership probe for the expression evaluator: the bucket never holds
     an element outside ∪S_i, and holds x ∈ ∪S_i at level ℓ with probability
     2^-ℓ, so 1[held]·2^ℓ is an unbiased Horvitz-Thompson estimate of the
     membership indicator with no false positives. *)
  let probe_level t x = match Bucket.level t.bucket x with -1 -> None | l -> Some l

  (* One pass over the bucket materialising the level-p0 subsample, then n
     uniform index draws — i.i.d. with replacement over the subsample, at
     O(|X| + n) instead of n full-table reservoir scans. *)
  let sample_union_n t n =
    if n <= 0 || bucket_size t = 0 then []
    else begin
      let p0_level = min_sampling_level t in
      let survivors = ref [] in
      let kept = ref 0 in
      Bucket.iter_levels
        (fun x l ->
          if Rng.bernoulli_pow2 t.rng (l - p0_level) then begin
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

  (* ---- the fold: k entry sources into one bucket ----

     A source is a bucket seen through an iterator — a live estimator's
     table or a decoded token's entries — plus the header carrying its
     parameters and counters.  Folding is the one merge primitive: a copy
     is the one-source case, [merge] the two-source case, and a cluster
     gather hands all k worker tokens over in one call. *)

  type source = {
    header : header;
    min_level : int;
    size : int;
    iter : (F.elt -> int -> float -> unit) -> unit;
  }

  let source t =
    let p = t.params in
    {
      header =
        {
          mode = p.Params.mode;
          capacity_scale = p.Params.capacity_scale;
          coupon_scale = p.Params.coupon_scale;
          epsilon = p.Params.epsilon;
          delta = p.Params.delta;
          log2_universe = p.Params.log2_universe;
          items = t.items;
          max_bucket = t.max_bucket;
          skipped = t.skipped;
          calls = oracle_calls t;
        };
      min_level = min_sampling_level t;
      size = bucket_size t;
      iter = (fun f -> Bucket.iter f t.bucket);
    }

  (* Halve until the occupancy fits the capacity at its own level, exactly
     as [process] does for an insertion; past the probability floor the
     bucket is kept over-full rather than discarding data.  Every entry sits
     at the pre-increment [l0], so survivors migrate level in place — no
     rebuild. *)
  let rehalve t l0 =
    let l0 = ref l0 in
    let max_level = t.params.Params.max_level in
    while level_for t (bucket_size t) > !l0 && !l0 < max_level do
      incr l0;
      Bucket.filter_levels
        (fun _ l ->
          note_remove t l;
          if Rng.bool t.rng then begin
            note_add t !l0;
            !l0
          end
          else -1)
        t.bucket
    done

  (* Sharded-stream union of k sketches that sample disjoint (or
     overlapping) sub-streams of one logical stream.  Every entry is
     downsampled to the common minimum sampling probability p0 = 2^-L0, L0
     the largest of the sources' minimum sampling levels, in one pass:

     - each distinct element gets exactly one coin, 2^(l-L0) at the level l
       of the first source holding it — a later source's copy is visible as
       a duplicate and flips nothing, since a second independent coin would
       push its inclusion probability above 2^-L0;
     - its newest timestamp across all sources wins (the element's last
       occurrence across the sharded stream);

     then the capacity/halving rule is re-applied so the folded bucket obeys
     the same occupancy invariant a single-stream sketch would.

     Coverage shared between sources is still double-counted in expectation
     (inclusion events are independent across estimators — there is no
     shared hash as in theta sketches), so the folded estimate lies between
     |∪| and the sum of the per-source union sizes; the cluster therefore
     keeps each session's stream on one estimator and folds only external
     merges.  Empty sources are
     skipped, and a single non-empty source is copied verbatim — no coin,
     no halving — so a copy and a merge with an empty sketch are the exact
     identity. *)
  let fold sources ~seed =
    let h =
      match sources with
      | [] -> invalid_arg "Vatic.fold: no sources"
      | s :: _ -> s.header
    in
    let t =
      make ~mode:h.mode ~capacity_scale:h.capacity_scale ~coupon_scale:h.coupon_scale
        ~size:(List.fold_left (fun n s -> n + s.size) 16 sources)
        ~epsilon:h.epsilon ~delta:h.delta ~log2_universe:h.log2_universe ~seed ()
    in
    let p = t.params in
    List.iter
      (fun s ->
        let q = s.header in
        if
          q.epsilon <> p.Params.epsilon
          || q.delta <> p.Params.delta
          || q.log2_universe <> p.Params.log2_universe
          || q.mode <> p.Params.mode
          || (Params.create ~mode:q.mode ~capacity_scale:q.capacity_scale
                ~coupon_scale:q.coupon_scale ~epsilon:q.epsilon ~delta:q.delta
                ~log2_universe:q.log2_universe ())
               .Params.bucket_capacity
             <> p.Params.bucket_capacity
        then invalid_arg "Vatic.merge: parameter mismatch")
      sources;
    let max_level = p.Params.max_level in
    let check_level l =
      if l < 0 || l > max_level then
        invalid_arg (Printf.sprintf "Vatic.fold: entry level %d outside [0, %d]" l max_level)
    in
    (match List.filter (fun s -> s.size > 0) sources with
    | [] -> ()
    | [ s ] ->
      s.iter (fun x l ts ->
          check_level l;
          bucket_add t x l ts)
    | live ->
      let l0 = List.fold_left (fun m s -> Stdlib.max m s.min_level) 0 live in
      let bucket = t.bucket in
      (* level -2 marks an element whose coin came up tails: it stays in the
         table until the pass ends so its later copies are recognised *)
      let rec go = function
        | [] -> ()
        | s :: later ->
          (* the last source's tails need no mark: no copy can follow *)
          let mark = later <> [] in
          s.iter (fun x l ts ->
              check_level l;
              if l > s.min_level then invalid_arg "Vatic.fold: entry above its source's level";
              match Bucket.level bucket x with
              | -2 -> ()
              | -1 ->
                if Rng.bernoulli_pow2 t.rng (l - l0) then Bucket.add bucket x l0 ts
                else if mark then Bucket.add bucket x (-2) 0.0
              | lv -> ignore (Bucket.upsert bucket x lv ts));
          go later
      in
      go live;
      Bucket.filter_levels
        (fun _ l ->
          if l >= 0 then note_add t l;
          l)
        bucket;
      rehalve t l0;
      Bucket.compact bucket);
    let sum f = List.fold_left (fun acc s -> acc + f s.header) 0 sources in
    t.items <- sum (fun h -> h.items);
    t.max_bucket <-
      List.fold_left (fun m s -> Stdlib.max m s.header.max_bucket) (bucket_size t) sources;
    t.skipped <- sum (fun h -> h.skipped);
    t.membership_calls <- sum (fun h -> h.calls.membership);
    t.cardinality_calls <- sum (fun h -> h.calls.cardinality);
    t.sampling_calls <- sum (fun h -> h.calls.sampling);
    t

  let merge a b ~seed = fold [ source a; source b ] ~seed
end
