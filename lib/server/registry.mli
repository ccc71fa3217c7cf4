(** Session table of the estimation service.

    Maps session names to running {!Families} estimators plus per-session
    counters (items processed, parse rejects, last estimate).  A registry
    has no lock: one thread owns it.  In a server that is the event-loop
    thread, which dispatches every request and runs the periodic
    checkpoint's {!snapshot_all} inline, so operations on the table and on
    each session are serial, which matches the stream semantics (sets are
    processed one at a time).

    {!dispatch} is the full request → response step minus the socket — the
    unit under test in [test/test_protocol.ml] and the hot path measured by
    the [serve/*] micro-benchmarks. *)

type t

val create : ?clock:(unit -> float) -> seed:int -> unit -> t
(** [seed] is the base PRNG seed; each opened or restored session derives a
    distinct seed from it.  [clock]
    (default [Unix.gettimeofday]) supplies the query instant for [WIN] and
    windowed [EXPR] requests that do not pin one — injectable so tests and
    WAL replay are deterministic. *)

val dispatch : t -> Protocol.request -> Protocol.response

val open_session :
  t ->
  name:string ->
  family:Protocol.family ->
  epsilon:float ->
  delta:float ->
  log2_universe:float ->
  (unit, Protocol.error) result

val add : ?ts:float -> t -> name:string -> payload:string -> (unit, Protocol.error) result
(** One bad payload yields [Error (Bad_line _)] and bumps the session's
    reject counter; the session stays usable.  [ts] (default 0) is the
    logical ingest timestamp recorded per element; the TCP server resolves a
    missing [t=] to its receive clock {e before} dispatching, so a bare
    registry only sees explicit timestamps. *)

val add_batch :
  ?ts:float ->
  t -> name:string -> payloads:string list -> (int * (int * string) list, Protocol.error) result
(** Feed a whole [ADDB] frame with one session lookup.  Returns
    [(accepted, errors)] where [errors] pairs each rejected payload's
    0-based index in the frame with its parse message; payloads after a bad
    one still land.  [Error] only when the session does not exist. *)

val add_log :
  ?ts:float -> t -> name:string -> payloads:string list -> (int, Protocol.error) result
(** Apply an [ADDL] frame — a backup replica copy — to the estimator on
    arrival, exactly as {!add_batch} would, so every acknowledged set is
    already in the estimator when the next read comes.  The ack lists no
    errors: a malformed payload only bumps the session's reject counter,
    because the primary copy already reported it to the sender.  Returns
    the payload count. *)

val estimate : t -> name:string -> (float, Protocol.error) result

val win :
  t -> name:string -> seconds:float -> at:float option -> (float, Protocol.error) result
(** Union estimate restricted to elements last seen within the trailing
    [seconds] of the query instant ([at], or the registry clock when
    [None]).  [seconds = infinity] agrees with {!estimate}'s
    Horvitz–Thompson variant exactly.  Non-destructive; does not update the
    STATS [last_estimate]. *)

val stats : t -> name:string -> (Protocol.stats, Protocol.error) result

val close : t -> name:string -> (unit, Protocol.error) result

val snapshot_to : t -> name:string -> path:string -> (unit, Protocol.error) result

val restore_from : t -> name:string -> path:string -> (unit, Protocol.error) result
(** Opens session [name] from a snapshot file; fails if the name is taken. *)

val fetch : ?cutoff:float -> t -> name:string -> (string, Protocol.error) result
(** The session's state as one binary {!Delphic_core.Snapshot_io} token —
    the worker half of the cluster's gather step.  With [cutoff], entries
    last seen before that absolute instant are dropped from the token
    ({!Families.encode}) — the windowed gather.  Each call encodes afresh;
    a repeated gather asks the versioned [FETCH] through {!dispatch}, which
    answers [UNCHANGED] while the version it names is still the session's.
    Every mutation draws a new version from one counter per process
    (starting at 1), so version 0 always gets the token. *)

val merge_in : t -> name:string -> encoded:string -> (unit, Protocol.error) result
(** Fold a snapshot token into session [name] (the two-source
    {!Families.fold}); the session's item and merge counters
    absorb the peer's.  [Error (Bad_params _)] on an undecodable token or a
    family/parameter mismatch, leaving the session untouched. *)

val default_expr_samples : int
(** Union draws per [EXPR] query when the request carries no [m=] (256). *)

val expr_plan :
  expr:Protocol.Expr_ast.t -> m:int option -> (string list * int, Protocol.error) result
(** The distinct leaf names an [EXPR] reads and its draw count ([m], default
    {!default_expr_samples}, clamped to 65536 — more samples only cost
    time).  [Error (Bad_params _)] when the expression names more than
    {!Delphic_expr.Expr.max_leaves} distinct sessions — checked before any
    leaf is read, here and on a coordinator. *)

val expr_query :
  ?w:float ->
  t ->
  expr:Protocol.Expr_ast.t ->
  m:int option ->
  (Protocol.Expr_ast.outcome, Protocol.error) result
(** Evaluate a set expression over open sessions by sample-and-probe
    ({!Families.eval_expr}).  Each leaf session is cloned and the query
    runs on the clones, which are folded into a union only while every
    leaf is exact.  [m] is the union-sample count (default 256,
    capped at 65536).  [w] restricts every leaf to the trailing [w] seconds
    of the registry clock — the cutoff is computed once, before any leaf is
    cloned, so all leaves see the same instant.  [Error (Bad_params _)] when
    the expression names more than {!Delphic_expr.Expr.max_leaves} distinct
    sessions or mixes families, rect dimensions or parameters — exact or
    sketching alike; [Error (Unknown_session _)] on an unopened leaf. *)

val names : t -> string list

val snapshot_all : ?fsync:bool -> t -> dir:string -> (string * (string, string) result) list
(** Persist every open session to [dir/<name>.snap] (creating [dir]);
    returns per-session outcomes ([Ok path] or the failure message).  Used
    by the server's graceful shutdown and its journal checkpoints.  [fsync] (default [false]) forces
    each snapshot to stable storage before its rename — required when the
    caller is a {!Wal} checkpoint about to truncate the journal. *)

val restore_all : ?consume:bool -> t -> dir:string -> (string * (unit, string) result) list
(** Re-open every [dir/<name>.snap].  With [consume] (the default) each
    successfully restored spool file is removed so stale state cannot
    resurrect later — the graceful-shutdown spool contract.  Checkpoint
    recovery passes [~consume:false]: the checkpoint must survive the
    restore so a second crash before the next checkpoint can recover
    again. *)
