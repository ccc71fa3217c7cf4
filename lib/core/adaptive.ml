module Bigint = Delphic_util.Bigint
module Rng = Delphic_util.Rng

module Make (F : Delphic_family.Family.FAMILY) = struct
  module Vatic = Vatic.Make (F)

  module Tbl = Hashtbl.Make (struct
    type t = F.elt

    let equal = F.equal_elt
    let hash = F.hash_elt
  end)

  type t = {
    mode : Params.mode;
    epsilon : float;
    delta : float;
    log2_universe : float;
    capacity : int;
    coupon_factor : float;
    rng : Rng.t;
    mutable exact : float Tbl.t;
        (* element -> last-occurrence timestamp; exact windowed counts are
           exact too *)
    mutable exact_active : bool;
    sketch : Vatic.t option; (* None when the universe is below VATIC's floor *)
    mutable items : int;
  }

  let create ?mode ?exact_capacity ~epsilon ~delta ~log2_universe ~seed () =
    (* Validate the shared parameters here so that only the universe-size
       floor (the one condition exact mode genuinely rescues) falls back to
       exact-only; a bad epsilon or delta must still raise. *)
    if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Adaptive.create: need 0 < epsilon < 1";
    if delta <= 0.0 || delta >= 1.0 then invalid_arg "Adaptive.create: need 0 < delta < 1";
    if log2_universe <= 0.0 then invalid_arg "Adaptive.create: need log2_universe > 0";
    let sketch =
      match
        Vatic.create ?mode ~epsilon ~delta ~log2_universe ~seed:(seed + 1) ()
      with
      | v -> Some v
      | exception Invalid_argument _ -> None
    in
    let capacity =
      match (exact_capacity, sketch) with
      | Some c, _ ->
        if c <= 0 then invalid_arg "Adaptive.create: exact_capacity must be positive";
        c
      | None, Some v ->
        let p = Vatic.params v in
        p.Params.bucket_capacity * (p.Params.max_level + 1)
      | None, None ->
        (* Tiny universe: the whole of it fits by definition. *)
        1 + int_of_float (Float.ceil (2.0 ** log2_universe))
    in
    let mode =
      match (mode, sketch) with
      | Some m, _ -> m
      | None, Some v -> (Vatic.params v).Params.mode
      | None, None -> Params.Practical
    in
    {
      mode;
      epsilon;
      delta;
      log2_universe;
      capacity;
      coupon_factor = log 4.0 +. (log2_universe *. log 2.0) -. log delta;
      rng = Rng.create ~seed;
      exact = Tbl.create 256;
      exact_active = true;
      sketch;
      items = 0;
    }

  let items_processed t = t.items
  let is_exact t = t.exact_active
  let epsilon t = t.epsilon
  let delta t = t.delta
  let log2_universe t = t.log2_universe

  let exact_size t = if t.exact_active then Some (Tbl.length t.exact) else None

  (* Materialise all |S| elements; None when |S| is too large for the
     exact budget.  Families that expose [iter_elements] are walked
     directly (O(|S|), always completes); pure Delphic oracles fall back
     to sampling with the coupon-collector budget, which additionally
     returns None on the (probability <= delta-ish) incomplete draw. *)
  let enumerate t s =
    match Bigint.to_int (F.cardinality s) with
    | None -> None
    | Some card ->
      if card > t.capacity then None
      else begin
        let seen = Tbl.create (2 * card) in
        match F.iter_elements with
        | Some iter ->
          iter s (fun x -> Tbl.replace seen x ());
          Some seen
        | None ->
          let budget =
            int_of_float (Float.ceil (4.0 *. float_of_int card *. t.coupon_factor))
          in
          let drawn = ref 0 in
          while Tbl.length seen < card && !drawn < budget do
            incr drawn;
            Tbl.replace seen (F.sample s t.rng) ()
          done;
          if Tbl.length seen = card then Some seen else None
      end

  (* The sketch is lazy: while the exact table is authoritative, sets are
     NOT fed to VATIC — that was the dominant per-add cost (an O(|X|)
     membership pass per set just to keep a sketch warm that exact mode
     never consults).  At the exact→sketch hand-over the sketch is rebuilt
     by replaying the exact table as a stream of singletons: same union,
     each element at its last-occurrence timestamp, so every estimate and
     windowed-estimate guarantee survives the switch
     ({!Vatic.process_element}). *)
  let replay_into exact v =
    Tbl.iter (fun x ts -> Vatic.process_element ~ts v x) exact

  let deactivate t =
    (match t.sketch with Some v -> replay_into t.exact v | None -> ());
    t.exact_active <- false;
    t.exact <- Tbl.create 1

  let process ?(ts = 0.0) t s =
    t.items <- t.items + 1;
    if t.exact_active then begin
      match enumerate t s with
      | None -> (
        match t.sketch with
        | None ->
          failwith "Adaptive.process: set exceeds exact capacity on a universe too small for sketching"
        | Some v ->
          (* the un-enumerable set was never absorbed into the table, so
             replay the table first, then feed the set in stream order *)
          deactivate t;
          Vatic.process ~ts v s)
      | Some elements ->
        Tbl.iter
          (fun x () ->
            match Tbl.find_opt t.exact x with
            | Some old_ts -> Tbl.replace t.exact x (Float.max old_ts ts)
            | None -> Tbl.replace t.exact x ts)
          elements;
        if Tbl.length t.exact > t.capacity then begin
          if Option.is_none t.sketch then
            failwith "Adaptive.process: union exceeds exact capacity on a universe too small for sketching"
          else deactivate t (* the overflowing set is in the table: replay covers it *)
        end
    end
    else match t.sketch with Some v -> Vatic.process ~ts v s | None -> ()

  let estimate t =
    if t.exact_active then float_of_int (Tbl.length t.exact)
    else
      match t.sketch with
      | Some v -> Vatic.estimate v
      | None -> assert false (* exact mode never deactivates without a sketch *)

  (* Union size restricted to elements whose last occurrence is ≥ cutoff.
     Exact regime: a plain count over the timestamped table — exactly
     correct.  Sketch regime: the restricted Horvitz-Thompson sum. *)
  let estimate_window t ~cutoff =
    if t.exact_active then begin
      let n = ref 0 in
      Tbl.iter (fun _ ts -> if ts >= cutoff then incr n) t.exact;
      float_of_int !n
    end
    else
      match t.sketch with
      | Some v -> Vatic.estimate_window v ~cutoff
      | None -> assert false (* exact mode never deactivates without a sketch *)

  let max_bucket_size t =
    match t.sketch with Some v -> Vatic.max_bucket_size v | None -> 0

  let sketch_size t =
    match t.sketch with Some v -> Vatic.bucket_size v | None -> 0

  let skipped_sets t =
    match t.sketch with Some v -> Vatic.skipped_sets v | None -> 0

  (* Membership probe for the set-expression evaluator.  The exact regime
     holds every distinct element, so the probe is the true indicator; the
     sketch regime answers with the Horvitz-Thompson weight 2^ℓ of a bucket
     hit (unbiased for the indicator, no false positives). *)
  type probe = Absent | Member | Sampled of float

  let probe t x =
    if t.exact_active then if Tbl.mem t.exact x then Member else Absent
    else
      match t.sketch with
      | Some v -> (
        match Vatic.probe_level v x with
        | Some level -> Sampled (Float.ldexp 1.0 level)
        | None -> Absent)
      | None -> assert false (* exact mode never deactivates without a sketch *)

  let probe_weight t x =
    match probe t x with Absent -> 0.0 | Member -> 1.0 | Sampled w -> w

  (* n i.i.d. union draws: uniform over the exact table while exact (a true
     uniform sample of ∪S_i), the sketch's subsample draw at scale. *)
  let sample_union_n t n =
    if n <= 0 then []
    else if t.exact_active then begin
      let k = Tbl.length t.exact in
      if k = 0 then []
      else begin
        let arr = Array.of_list (Tbl.fold (fun x _ acc -> x :: acc) t.exact []) in
        List.init n (fun _ -> arr.(Rng.int t.rng k))
      end
    end
    else
      match t.sketch with
      | Some v -> Vatic.sample_union_n v n
      | None -> assert false

  let describe t =
    if t.exact_active then
      Printf.sprintf "exact (%d distinct elements held)" (Tbl.length t.exact)
    else
      Printf.sprintf "sketch (max bucket %d, %d sets skipped)" (max_bucket_size t)
        (skipped_sets t)

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

  type header = {
    mode : Params.mode;
    epsilon : float;
    delta : float;
    log2_universe : float;
    exact_capacity : int;
    items : int;
    exact_active : bool;
    sketch : sketch_header option;
  }

  let vatic_header (h : header) (sk : sketch_header) =
    {
      Vatic.mode = h.mode;
      capacity_scale = sk.capacity_scale;
      coupon_scale = sk.coupon_scale;
      epsilon = h.epsilon;
      delta = h.delta;
      log2_universe = h.log2_universe;
      items = sk.sketch_items;
      max_bucket = sk.max_bucket;
      skipped = sk.skipped;
      calls =
        {
          Vatic.membership = sk.membership_calls;
          cardinality = sk.cardinality_calls;
          sampling = sk.sampling_calls;
        };
    }

  (* ---- the fold: k entry sources into one estimator ---- *)

  type source = {
    header : header;
    exact_size : int;
    iter_exact : (F.elt -> float -> unit) -> unit;
    sketch_min_level : int;
    sketch_size : int;
    iter_sketch : (F.elt -> int -> float -> unit) -> unit;
  }

  let source (t : t) =
    let vs = Option.map Vatic.source t.sketch in
    let sketch_header (v : Vatic.source) =
      let h = v.Vatic.header in
      {
        capacity_scale = h.Vatic.capacity_scale;
        coupon_scale = h.Vatic.coupon_scale;
        sketch_items = h.Vatic.items;
        max_bucket = h.Vatic.max_bucket;
        skipped = h.Vatic.skipped;
        membership_calls = h.Vatic.calls.membership;
        cardinality_calls = h.Vatic.calls.cardinality;
        sampling_calls = h.Vatic.calls.sampling;
      }
    in
    {
      header =
        {
          mode = t.mode;
          epsilon = t.epsilon;
          delta = t.delta;
          log2_universe = t.log2_universe;
          exact_capacity = t.capacity;
          items = t.items;
          exact_active = t.exact_active;
          sketch = Option.map sketch_header vs;
        };
      exact_size = Tbl.length t.exact;
      iter_exact = (fun f -> Tbl.iter f t.exact);
      sketch_min_level = (match vs with Some s -> s.Vatic.min_level | None -> 0);
      sketch_size = (match vs with Some s -> s.Vatic.size | None -> 0);
      iter_sketch = (fun f -> match vs with Some s -> s.Vatic.iter f | None -> ());
    }

  let vatic_source s =
    Option.map
      (fun sk ->
        {
          Vatic.header = vatic_header s.header sk;
          min_level = s.sketch_min_level;
          size = s.sketch_size;
          iter = s.iter_sketch;
        })
      s.header.sketch

  (* The header check every fold starts with, also run on its own by a
     query that reads several estimators side by side without folding
     them (a sketch-regime EXPR): one ε, δ, log2u, mode and exact
     capacity, and consistent headers.  Returns the first source's. *)
  let check_fold sources =
    let h =
      match sources with
      | [] -> invalid_arg "Adaptive.fold: no sources"
      | s :: _ -> s.header
    in
    List.iter
      (fun s ->
        let q = s.header in
        if
          q.epsilon <> h.epsilon || q.delta <> h.delta
          || q.log2_universe <> h.log2_universe
          || q.mode <> h.mode || q.exact_capacity <> h.exact_capacity
        then invalid_arg "Adaptive.merge: parameter mismatch";
        if Option.is_some q.sketch <> Option.is_some h.sketch then
          invalid_arg "Adaptive.merge: sketch presence mismatch";
        if (not q.exact_active) && Option.is_none q.sketch then
          invalid_arg "Adaptive.fold: source is in sketch mode but has no sketch")
      sources;
    if h.exact_capacity <= 0 then invalid_arg "Adaptive.fold: exact_capacity must be positive";
    h

  (* Sharded-stream fold of k adaptive estimators over the same family and
     parameters, in one pass over their entries:

     - a single source is copied verbatim (a copy or a decoded token),
       less the exact table a sketching source no longer reads;
     - while every source is exact, the tables union (newest timestamp per
       element) and the result stays exact if it fits the budget — the
       lazy sketch stays empty, rebuilt by [deactivate] on overflow
       exactly as a single stream hands over;
     - otherwise the result runs on a sketch: the exact sources' tables
       union into one and are replayed into a fresh sketch (a valid sketch
       of those shards' streams, the hand-over argument of [deactivate]),
       which goes first in one {!Vatic.fold} with every sketching source. *)
  let fold sources ~seed =
    let h = check_fold sources in
    let empty_sketch ~seed =
      Option.map
        (fun sk ->
          Vatic.fold
            [ { Vatic.header = vatic_header h sk; min_level = 0; size = 0; iter = ignore } ]
            ~seed)
        h.sketch
    in
    let union srcs =
      let tbl =
        Tbl.create (Stdlib.max 256 (List.fold_left (fun n s -> n + s.exact_size) 0 srcs))
      in
      List.iter
        (fun s ->
          s.iter_exact (fun x ts ->
              match Tbl.find_opt tbl x with
              | Some old_ts -> if ts > old_ts then Tbl.replace tbl x ts
              | None -> Tbl.add tbl x ts))
        srcs;
      tbl
    in
    let make ~exact ~exact_active ~sketch =
      {
        mode = h.mode;
        epsilon = h.epsilon;
        delta = h.delta;
        log2_universe = h.log2_universe;
        capacity = h.exact_capacity;
        coupon_factor = log 4.0 +. (h.log2_universe *. log 2.0) -. log h.delta;
        rng = Rng.create ~seed;
        exact;
        exact_active;
        sketch;
        items = List.fold_left (fun n s -> n + s.header.items) 0 sources;
      }
    in
    match sources with
    | [ s ] ->
      make
        ~exact:(if h.exact_active then union [ s ] else Tbl.create 1)
        ~exact_active:h.exact_active
        ~sketch:(Option.map (fun v -> Vatic.fold [ v ] ~seed:(seed + 1)) (vatic_source s))
    | _ when List.for_all (fun s -> s.header.exact_active) sources ->
      let t =
        make ~exact:(union sources) ~exact_active:true ~sketch:(empty_sketch ~seed:(seed + 1))
      in
      if Tbl.length t.exact > t.capacity then begin
        if Option.is_none t.sketch then
          failwith
            "Adaptive.merge: merged union exceeds exact capacity on a universe too small for sketching"
        else deactivate t
      end;
      t
    | _ ->
      let exact_side = List.filter (fun s -> s.header.exact_active) sources in
      let replayed =
        match (exact_side, empty_sketch ~seed:(seed + 2)) with
        | [], _ | _, None -> []
        | _, Some fresh ->
          replay_into (union exact_side) fresh;
          [ Vatic.source fresh ]
      in
      let sketching =
        List.filter_map
          (fun s -> if s.header.exact_active then None else vatic_source s)
          sources
      in
      make ~exact:(Tbl.create 1) ~exact_active:false
        ~sketch:(Some (Vatic.fold (replayed @ sketching) ~seed:(seed + 1)))

  let merge a b ~seed = fold [ source a; source b ] ~seed
end
