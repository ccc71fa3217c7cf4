(* Scoring, after the run: latency percentiles, error shares, and every
   EST/WIN/EXPR answer against its exact truth bracket.

   The bracket of a query runs from the union of the sets acknowledged
   before it was sent to the union of the sets sent before its reply
   arrived.  Within a session, frames go out in stream order on one
   connection, so both ends are stream prefixes found by binary search. *)

module L = Loadgen

(* Per-session view of the frame log, in send order. *)
type lane = {
  stream : Truth.stream;
  ends : int array;  (** stream index just past each frame *)
  sent : float array;
  acked_by : float array;  (** latest ack time over the frames up to here *)
  stamps : float array;
}

let lanes (spec : Spec.t) (frames : L.frame list) =
  Array.mapi
    (fun i s ->
      let fs = Array.of_list (List.filter (fun (f : L.frame) -> f.session = i) frames) in
      let acked_by = Array.make (Array.length fs) 0.0 in
      Array.iteri
        (fun j (f : L.frame) ->
          acked_by.(j) <- (if j = 0 then f.acked else Float.max acked_by.(j - 1) f.acked))
        fs;
      {
        stream = s.Spec.truth;
        ends = Array.map (fun (f : L.frame) -> f.first + f.count) fs;
        sent = Array.map (fun (f : L.frame) -> f.sent) fs;
        acked_by;
        stamps = Array.map (fun (f : L.frame) -> f.stamp) fs;
      })
    spec.Spec.sessions

(* Number of leading elements of the nondecreasing array [a] satisfying
   [ok]. *)
let count_prefix a ok =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ok a.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Stream sets acknowledged before [sent] and sets sent before [replied]. *)
let window lane ~sent ~replied =
  let at k = if k = 0 then 0 else lane.ends.(k - 1) in
  (at (count_prefix lane.acked_by (fun t -> t <= sent)), at (count_prefix lane.sent (fun t -> t < replied)))

let est_bracket lane (q : L.query) =
  let lo, hi = window lane ~sent:q.sent ~replied:q.replied in
  Truth.bracket (Truth.prefix lane.stream lo) (Truth.prefix lane.stream hi)

(* The sets stamped at or after the cutoff are a stream suffix starting at
   the first frame whose stamp reaches it. *)
let win_bracket lane ~seconds (q : L.query) =
  let cutoff = q.at -. seconds in
  let k = count_prefix lane.stamps (fun s -> s < cutoff) in
  let from = if k = 0 then 0 else lane.ends.(k - 1) in
  let lo, hi = window lane ~sent:q.sent ~replied:q.replied in
  Truth.bracket (Truth.range lane.stream ~lo:from ~hi:lo) (Truth.range lane.stream ~lo:from ~hi)

(* (A & B) \ C over the leaves' prefixes at both bracket ends, memoised by
   the prefix lengths (capped at one pool lap). *)
let expr_bracket memo (lanes : lane array) (q : L.query) =
  let value pick =
    let n i =
      let lo, hi = window lanes.(i) ~sent:q.sent ~replied:q.replied in
      min (pick (lo, hi)) (Array.length lanes.(i).stream.Truth.pool)
    in
    let key = (n Spec.a, n Spec.b, n Spec.c) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let na, nb, nc = key in
      let boxes i hi = Truth.boxes lanes.(i).stream ~lo:0 ~hi in
      let v = Truth.and_minus ~a:(boxes Spec.a na) ~b:(boxes Spec.b nb) ~c:(boxes Spec.c nc) in
      Hashtbl.add memo key v;
      v
  in
  Truth.bracket (value fst) (value snd)

type result = {
  metrics : Report.metric list;  (** [calls] is the sample count *)
  attempted : int;
  failed : int;
  correct : bool;
  problems : string list;  (** wrong or missing answers: the run is incorrect *)
  notes : string list;  (** percentiles resting on fewer samples than the rule wants *)
}

let ms x = x *. 1000.0

let in_window (p : L.phase) t = t >= p.measure_from && t < p.until

let score (spec : Spec.t) ~(frames : L.frame list) (p : L.phase) =
  let lanes = lanes spec frames in
  let memo = Hashtbl.create 16 in
  let problems = ref [] and notes = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let fs = List.filter (fun (f : L.frame) -> in_window p f.sent) p.sent in
  let qs = List.filter (fun (q : L.query) -> in_window p q.due) p.queries in
  let frame_ok (f : L.frame) = f.acked < infinity in
  let failed_frames = List.length (List.filter (fun f -> not (frame_ok f)) fs) in
  let failed_queries = List.length (List.filter (fun (q : L.query) -> match q.outcome with L.Failed _ -> true | _ -> false) qs) in
  let attempted = List.length fs + List.length qs in
  let failed = failed_frames + failed_queries in
  let frame_lat = List.filter_map (fun (f : L.frame) -> if frame_ok f then Some (ms (f.acked -. f.due)) else None) fs in
  let lat kind =
    List.filter_map
      (fun (q : L.query) ->
        match q.outcome with
        | L.Failed _ -> None
        | _ when q.kind = kind -> Some (ms (q.replied -. q.due))
        | _ -> None)
      qs
  in
  let pct name xs q =
    let n = List.length xs in
    if n = 0 then (problem "%s: no samples" name; Float.nan)
    else begin
      if not (Pct.enough ~n q) then
        note "%s: %d samples leave %d beyond the percentile (want %d)" name n (Pct.beyond ~n q) Pct.min_beyond;
      Pct.percentile xs q
    end
  in
  let tolerance = if spec.Spec.exact then 0.0 else Spec.epsilon in
  let answers = ref [] and expr_errs = ref [] and lowsupport = ref 0 and expr_answers = ref 0 in
  List.iter
    (fun (q : L.query) ->
      match (q.kind, q.outcome) with
      | _, L.Failed _ -> ()
      | Spec.Expr, L.Low_support ->
        incr expr_answers;
        incr lowsupport
      | Spec.Expr, L.Value v ->
        incr expr_answers;
        expr_errs := (Truth.score ~tolerance:0.0 (expr_bracket memo lanes q) v).Truth.rel_err :: !expr_errs
      | (Spec.Est_live | Spec.Est_idle | Spec.Win), L.Value v ->
        let br =
          match q.kind with
          | Spec.Est_live -> est_bracket lanes.(Spec.a) q
          | Spec.Est_idle -> est_bracket lanes.(Spec.b) q
          | _ -> win_bracket lanes.(Spec.a) ~seconds:spec.Spec.win_seconds q
        in
        if not (Float.is_finite v && v > 0.0) then problem "%s answered %g" (Spec.kind_name q.kind) v
        else if (not spec.Spec.exact) && (v < br.Truth.lo /. 10.0 || v > br.Truth.hi *. 10.0) then
          problem "%s answered %g outside ten times its truth [%g, %g]" (Spec.kind_name q.kind) v br.Truth.lo br.Truth.hi;
        answers := Truth.score ~tolerance br v :: !answers
      | _, L.Low_support -> problem "%s answered LOWSUPPORT" (Spec.kind_name q.kind))
    qs;
  let verdicts = !answers in
  let n_ans = List.length verdicts in
  let fails = List.length (List.filter (fun v -> not v.Truth.inside) verdicts) in
  if spec.Spec.exact && fails > 0 then problem "%d of %d exact-regime answers differ from the exact union" fails n_ans;
  if n_ans = 0 then problem "no EST/WIN answers";
  let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let n = List.length in
  let pct' name xs q unit = Report.metric ~calls:(n xs) name (pct name xs q) unit in
  let lat_ms kind name q = pct' name (lat kind) q "ms" in
  let rel_errs = List.map (fun v -> v.Truth.rel_err) verdicts in
  let metrics =
    [
      pct' "ingest_frame_p50_ms" frame_lat 0.5 "ms";
      pct' "ingest_frame_p99_ms" frame_lat 0.99 "ms";
      lat_ms Spec.Est_live "est_p50_ms" 0.5;
      lat_ms Spec.Est_live "est_p90_ms" 0.9;
      lat_ms Spec.Est_idle "est_idle_p50_ms" 0.5;
      lat_ms Spec.Win "win_p50_ms" 0.5;
      lat_ms Spec.Win "win_p90_ms" 0.9;
      lat_ms Spec.Expr "expr_p50_ms" 0.5;
      lat_ms Spec.Expr "expr_p90_ms" 0.9;
      Report.metric ~calls:attempted "error_share" (share failed attempted) "share";
      Report.metric ~calls:n_ans "accuracy_fail_share" (share fails n_ans) "share";
      Report.metric ~calls:n_ans "est_rel_err_p50" (Pct.median rel_errs) "ratio";
      Report.metric ~calls:n_ans "est_err_factor_p50" (Pct.median (List.map (fun v -> v.Truth.factor) verdicts)) "ratio";
      Report.metric ~calls:!expr_answers "expr.lowsupport_share" (share !lowsupport !expr_answers) "share";
      Report.metric ~calls:(n !expr_errs) "expr.rel_err_p50" (if !expr_errs = [] then 0.0 else Pct.median !expr_errs) "ratio";
      Report.metric ~calls:(n qs) "loadgen.late_p99_ms"
        (Pct.percentile (List.map (fun (q : L.query) -> ms (q.sent -. q.due)) qs) 0.99)
        "ms";
    ]
  in
  { metrics; attempted; failed; correct = !problems = []; problems = List.rev !problems; notes = List.rev !notes }

(* A run whose processes misbehaved is incorrect whatever its answers. *)
let with_problems r = function
  | [] -> r
  | ps -> { r with problems = r.problems @ ps; correct = false }

(* The capacity phase: the sets acknowledged after the first ack at or past
   [from], over the time from that ack to the last one before [until]
   (NaN with fewer than two).  Also the phase's attempted and failed
   frames. *)
let capacity (frames : L.frame list) ~from ~until =
  let rate =
    match List.filter (fun (f : L.frame) -> f.acked >= from && f.acked < until) frames with
    | first :: (_ :: _ as rest) ->
      let last = List.fold_left (fun t (f : L.frame) -> Float.max t f.acked) first.acked rest in
      float_of_int (List.fold_left (fun n (f : L.frame) -> n + f.count) 0 rest) /. (last -. first.acked)
    | _ -> Float.nan
  in
  let failed = List.length (List.filter (fun (f : L.frame) -> f.acked = infinity) frames) in
  (rate, List.length frames, failed)

(* Sets acknowledged in each half second from [from], for the log. *)
let half_seconds (frames : L.frame list) ~from =
  let last = List.fold_left (fun t (f : L.frame) -> if f.acked < infinity then Float.max t f.acked else t) from frames in
  let bins = Array.make (1 + int_of_float ((last -. from) *. 2.0)) 0 in
  List.iter
    (fun (f : L.frame) ->
      if f.acked >= from && f.acked < infinity then begin
        let i = int_of_float ((f.acked -. from) *. 2.0) in
        bins.(i) <- bins.(i) + f.count
      end)
    frames;
  Array.to_list bins
