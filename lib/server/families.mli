(** A running estimation session with its family packed away.

    The service supports several Delphic families behind one untyped wire
    protocol; this module hides each family's element and set types behind a
    uniform handle.  Each handle wraps a {!Delphic_core.Adaptive} estimator
    (exact while small, VATIC sketch at scale), parses [ADD] payloads with
    the family's {!Delphic_stream.Parsers} line format, and converts to and
    from the neutral {!Delphic_core.Snapshot_io} form for durability. *)

type t

val create :
  family:Protocol.family ->
  epsilon:float ->
  delta:float ->
  log2_universe:float ->
  seed:int ->
  (t, string) result
(** [Error] carries the estimator's refusal message (bad ε/δ, universe too
    small, …). *)

val family : t -> Protocol.family

val family_token : t -> string

val params : t -> float * float * float
(** The session's creation triple [(epsilon, delta, log2_universe)] — what a
    coordinator needs to re-register the session when rebuilding routing
    state from a [SESSIONS] enumeration. *)

val add : ?ts:float -> t -> lineno:int -> string -> unit
(** Parse one set line and feed it to the estimator.  [ts] (default 0) is
    the logical ingest timestamp recorded per element (see
    {!Delphic_core.Adaptive.Make.process}).  Raises
    {!Delphic_stream.Parsers.Parse_error} on a malformed payload — the
    caller turns that into an [ERR PARSE] reply; the estimator state is
    untouched by a rejected line. *)

val estimate : t -> float

val estimate_window : t -> cutoff:float -> float
(** Union size restricted to elements whose last occurrence is at or after
    [cutoff] ({!Delphic_core.Adaptive.Make.estimate_window}): exactly
    correct in the exact regime, the restricted Horvitz–Thompson sum when
    sketching.  Non-destructive. *)

val items : t -> int

val entries : t -> int
(** Exact distinct elements held, or current sketch occupancy. *)

val is_exact : t -> bool

val describe : t -> string

val encode : ?merges:int -> ?cutoff:float -> t -> (string, string) result
(** The session as one binary {!Delphic_core.Snapshot_io} token, written
    straight from the estimator's tables — no intermediate record.
    [merges] (default 0) stamps the snapshot's merge count (the session
    registry tracks it, not the estimator).  With [cutoff], only entries
    last seen at or after it are kept — the windowed fetch. *)

val to_io : ?merges:int -> t -> Delphic_core.Snapshot_io.t
(** {!encode}, decoded: the snapshot a spool file or checkpoint saves. *)

type source =
  | Decoded of Delphic_core.Snapshot_io.t
      (** a decoded snapshot token, its entries read in place *)
  | Live of t  (** a session's own estimator, read in place *)

val fold : source list -> seed:int -> (t, string) result
(** The one fold: k same-family sources into a new session in a single pass
    over their entries ({!Delphic_core.Adaptive.Make.fold} — one coin per
    distinct element at the first holder's level, newest timestamp wins;
    exact tables union while everything is exact).  Token elements are
    decoded straight into the folded table; no session is restored per
    token.  A single source is copied verbatim.  Sources are unchanged.
    [Error] on an empty list, a family, shape or parameter mismatch, an
    unknown family token or an undecodable element. *)

val of_io : Delphic_core.Snapshot_io.t -> seed:int -> (t, string) result
(** The one-source {!fold} of a decoded snapshot.  The snapshot's [merges]
    count is the caller's to keep. *)

val merge : t -> t -> seed:int -> (t, string) result
(** The two-source {!fold} of live sessions. *)

val copy : t -> seed:int -> (t, string) result
(** The one-source {!fold} of a live session: a deep copy sharing no
    mutable state with the input.  An [EXPR] query clones each leaf under
    its session lock and then evaluates lock-free on the clones, so
    concurrent ingestion never blocks on a long query. *)

val restrict : t -> cutoff:float -> seed:int -> (t, string) result
(** A copy keeping only entries whose last occurrence is at or after
    [cutoff] (the windowed {!encode}, folded back).  The
    input is unchanged; windowed [EXPR] queries restrict each cloned leaf
    and then run the ordinary expression machinery on the views. *)

val eval_expr :
  leaves:(string * t) list ->
  expr:Protocol.Expr_ast.t ->
  samples:int ->
  seed:int ->
  (Protocol.Expr_ast.outcome, string) result
(** Evaluate a set expression by sample-and-probe
    ({!Delphic_expr.Expr.Eval}) — the one [EXPR] evaluation the registry
    and the coordinator share.  [leaves] maps each distinct leaf name of
    [expr] to its session handle.  The leaves are first checked as {!fold}
    checks its sources, so a mix of families, rect dimensions or
    parameters (ε, δ, log2u, mode, exact capacity) is an [Error] with the
    fold's message in either regime.  While every leaf is exact, [samples]
    draws come from the leaves' {!fold} (seeded by [seed]; a single leaf
    is its own union) and the probes are indicators.  Once any leaf
    sketches, the draws come from each leaf in turn (the stratified
    scheme) and no union is folded: a fold's draws would be survivors of
    the very buckets the probes read. *)

val expr_estimate :
  union:t ->
  leaves:(string * t) list ->
  expr:Protocol.Expr_ast.t ->
  samples:int ->
  (Protocol.Expr_ast.outcome, string) result
(** Compatibility only, for callers that fold [union] themselves (the
    benchmark's in-process replay): {!eval_expr} with [union] — which must
    be the fold of [leaves] — in place of its own fold.  [union] is read
    only while every leaf is exact. *)
