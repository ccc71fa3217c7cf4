(** Scatter/gather coordinator for sharded union estimation.

    A coordinator owns a pool of workers — ordinary
    {!Delphic_server.Server} instances, unchanged — and presents the same
    request protocol as a single server.  One placement rule: a session
    lives on its ring window.  Its home is position
    [Hashtbl.hash session mod n], and the [replicas] workers from there on
    each hold a full copy of its one estimator.

    - [OPEN] broadcasts, so every worker holds a same-parameter session
      and a standby can rebuild the session table from any one of them;
      a worker outside the window keeps its copy empty;
    - [ADD]/[ADDB] go to every usable replica of the session — [ADDB] to
      the first, [ADDL] (a backup copy, applied on arrival) to the rest —
      and are framed into batches (consecutive same-session runs, up to
      [batch] payloads per frame) shipped as one coalesced write when the
      staging queue hits the batch high-water mark, with a bounded window
      of unacknowledged payloads;
    - [WIN] and [STATS] are answered by the first usable replica in ring
      order, which holds the estimator; [EST]/[SNAPSHOT]/[EXPR] read one
      copy: that replica ships its sketch (a binary snapshot token), and
      the coordinator decodes it.  Replicas are alternatives, never
      addends, so a healthy cluster answers exactly what one estimator
      over the whole stream would — the (ε,δ) guarantee of the paper.

    Failure handling: every RPC is bounded by a timeout ({!Rpc}).  A
    failure only records; one placement step re-routes.  A worker that
    fails — a lost reply, a failed write, a refused or timed-out dial — is
    quarantined with exponential backoff (the one retry schedule: no dial
    is retried in the same call), its unanswered asks fail, and its
    unacknowledged frames and never-sent payloads are {e parked}, payload
    by payload and oldest first, in one waiting FIFO per session.  A
    replica that skipped or refused sets is {e incomplete}: it is neither
    fed nor read until, at its reconnect, it is replaced by a complete
    peer's copy ([CLOSE], [OPEN], [MERGE] of a freshly fetched token).
    New ingest joins the FIFO while no replica is usable and fewer than
    [window] sets wait, and is refused past that with an error naming the
    session.  The FIFO is staged again only by placement, once a replica
    is complete: ahead of the session's next payload, before each replica
    a read asks, and at {!flush} and {!shutdown} — at-least-once, and a set
    an estimator sees twice is a duplicate the union ignores.  So every
    session has exactly one estimator, whatever fails.  A gather that had
    to fall back to a last good token (or found nothing at all) flags the
    estimate [degraded] in the reply.
    Every reconnect, connection blips included, re-opens every session on
    the worker, one [OPEN] round trip each: [SESSION-EXISTS] means the
    worker kept the session (or recovered it from its write-ahead
    journal), and an [OPEN] that succeeds means a worker reached before
    came back without it, so that replica is incomplete.  A standby
    re-opens nothing: it writes nothing to workers until promoted.  An
    acknowledgement-time refusal (e.g. [UNKNOWN-SESSION]) marks the
    replica incomplete and parks the refused payloads instead of counting
    them delivered. *)

type t

val create :
  ?replicas:int ->
  ?timeout:float ->
  ?dial_timeout:float ->
  ?backoff:float ->
  ?window:int ->
  ?batch:int ->
  ?io:Rpc.io ->
  ?proto:Rpc.proto ->
  ?clock:(unit -> float) ->
  ?epoch:int ->
  workers:(string * int) list ->
  seed:int ->
  unit ->
  t
(** [workers] are [host, port] pairs; connections are opened lazily.
    [replicas] (default 1, clamped to the pool size) is the number of full
    copies of each session, on its home ring position and the successors:
    with R = 2 any single worker can be lost with no estimate degradation,
    because the gather reads the surviving copy.
    [dial_timeout] (default 2s) bounds each TCP connect separately from the
    per-reply [timeout].  A dial is made once per call: one that times out
    (black-holed host) or is refused quarantines the worker at once.
    [epoch] (default 0 = fencing off) is the fencing epoch announced on
    every worker connection with [COORD] before any other traffic; workers
    refuse mutations from connections stamped with a superseded epoch, which
    is how a deposed primary's late writes die.
    [io] (default {!Rpc.default_io}) supplies the socket operations for
    every worker connection — the fault-injection hook: the chaos tests
    pass [Delphic_harness.Chaos] wrappers here and the coordinator's
    retry/quarantine/rejoin machinery runs against a deliberately lossy
    transport.  Every worker connection speaks wire v2 ({!Rpc}): ADDB
    batches and SKETCH replies travel as binary records (no %-armoring,
    ADDB splice-journalled by the worker).  [proto] is ignored, kept only
    for source compatibility with callers that still pass [~proto:Rpc.V2].
    [timeout] (default 2s) bounds every connect/send/recv — a read gives
    the {e whole} collect phase one [timeout] as a shared absolute deadline,
    so one slow worker costs at most one timeout however many are slow, and
    each replica asked gets an equal share of what is left with the usable
    replicas after it, so a hung home leaves its peer time to answer fresh;
    a failed worker is next dialed after a quarantine that starts at twice
    [backoff] (default 50ms), doubles per consecutive failure up to 30s,
    and is jittered by ±25%; [window] (default 256) is the
    unacknowledged-payload depth per worker, and the number of new sets a
    session may park while none of its replicas is usable; [batch] (default 64) is both
    the per-worker staging high-water mark and the maximum payloads per
    [ADDB] frame — [batch = 1] ships one one-payload [ADDB] per set.
    [clock] (default [Unix.gettimeofday]) supplies the query instant for
    un-pinned [WIN] and [EXPR w=], taken exactly — injectable for
    deterministic tests.  Raises [Invalid_argument] on an empty pool or
    nonsensical knobs. *)

val dispatch : t -> Delphic_server.Protocol.request -> Delphic_server.Protocol.response
(** The full request → response step, same contract as
    {!Delphic_server.Registry.dispatch} — plug into {!Frontend} to serve
    the cluster over TCP. *)

val open_session :
  t ->
  name:string ->
  family:Delphic_server.Protocol.family ->
  epsilon:float ->
  delta:float ->
  log2_universe:float ->
  (unit, Delphic_server.Protocol.error) result
(** Fails only if {e no} worker is reachable; workers joining later are
    brought up to date by the resync-on-reconnect path.  A session some
    worker already held (opened by an earlier coordinator) is adopted: its
    placement history is unknown, so each replica is read once — one
    holding fewer items than the fullest copy, or not answering, is
    incomplete and gets replaced from a complete peer. *)

val add :
  ?ts:float ->
  t -> name:string -> payload:string -> (unit, Delphic_server.Protocol.error) result
(** Fire-and-forget into the pipeline: the payload is staged on the
    session's usable replicas and framed into an [ADDB] at the next flush
    point, or, with none usable, waits in the session's FIFO.  [Error]
    names the session when [window] sets already wait there.  Waiting sets
    exist only in this coordinator's memory: a crash or a standby takeover
    loses them — at most [window] new sets plus each dead or refusing
    replica's unacknowledged window per session.  [ts] is the
    ingest timestamp forwarded to the worker ([t=] on the wire); [None]
    lets the worker stamp its own receive time.  Parse errors surface
    asynchronously in {!stats} ([parse_rejects]), not here. *)

val add_batch :
  ?ts:float ->
  t ->
  name:string ->
  payloads:string list ->
  (int * (int * string) list, Delphic_server.Protocol.error) result
(** A whole client [ADDB] frame under one lock acquisition.  Every payload
    of the session goes to the same replicas, so the frame re-batches there
    whole (only same-timestamp runs share a frame).  Every frame the call staged is written to its worker before it returns,
    so the sets reach the worker estimators without waiting for a read; a
    worker with [window] payload units unacked is drained to half that
    first, which bounds what the next gather waits for.  Returns
    [(accepted, errors)] where [errors] pairs a payload's 0-based
    frame index with the routing failure (a full waiting FIFO, as with
    {!add}); parse errors surface later in [parse_rejects]. *)

val estimate :
  t -> name:string -> (float * bool * int list, Delphic_server.Protocol.error) result
(** The estimate, whether it is degraded, and the stale shard list: the
    home position when no replica answered fresh this gather, so the value
    rests on the last good token.  [degraded] is exactly [stale_shards <> []]:
    with replication a dead replica whose peer answers does not degrade
    the answer.  A fresh gather stores its token as the last good one — the
    degraded fallback of every read.  An idle session costs one short round
    trip: the gather's fetch names the version of the token its memo holds
    from that worker on that connection, and the worker answers
    [UNCHANGED]. *)

val win :
  t ->
  name:string ->
  seconds:float ->
  at:float option ->
  (float * bool * int list, Delphic_server.Protocol.error) result
(** Cluster-wide windowed estimate.  The query instant is pinned once
    ([at], or the coordinator's clock) and forwarded as [WIN … at=] to the
    first usable replica, whose own answer is returned.  When no replica
    answers, the last good token is re-windowed against the same instant
    and the answer is degraded, with the home as the stale shard.  A [WIN]
    never refreshes the last good token or the memo. *)

val stats : t -> name:string -> (Delphic_server.Protocol.stats, Delphic_server.Protocol.error) result
(** The first usable replica's [STATS], with [parse_rejects] (the payloads
    this coordinator's acks listed as malformed) and [last_estimate] (its
    last {!estimate}) laid over the worker's own.  When no replica answers,
    the figures come from the last good token.  A [STATS] never refreshes
    the last good token or the memo. *)

val expr_query :
  ?w:float ->
  t ->
  expr:Delphic_server.Protocol.Expr_ast.t ->
  m:int option ->
  (Delphic_server.Protocol.Expr_ast.outcome * bool, Delphic_server.Protocol.error) result
(** Evaluate a set expression cluster-wide.  Each leaf session is gathered
    exactly as {!estimate} gathers it — same degraded/last-good fallback,
    same memo — and the sample-and-probe evaluation
    ({!Delphic_server.Families.eval_expr}, the one the worker registry runs)
    runs coordinator-side, so workers need no new verb.  The leaves are
    folded into a cross-session union only while every leaf is exact; a
    sketching leaf switches to per-leaf draws and nothing is folded, but a
    mix of families, rect dimensions or parameters is refused with
    [Bad_params] in either regime.  [w] windows the
    query: one cutoff is computed up front and every gathered leaf is
    restricted against it before evaluation.  The [bool] flags a degraded
    answer (any leaf's gather was).  [m] as in
    {!Delphic_server.Registry.expr_query}. *)

val fetch : ?cutoff:float -> t -> name:string -> (string, Delphic_server.Protocol.error) result
(** The gathered sketch as one wire token — coordinators compose: a parent
    coordinator can treat this one as a worker.  The gather is un-windowed
    and refreshes the last good token like {!estimate}'s; [cutoff]
    restricts only what is encoded. *)

val snapshot_to : t -> name:string -> path:string -> (unit, Delphic_server.Protocol.error) result

val merge_in : t -> name:string -> encoded:string -> (unit, Delphic_server.Protocol.error) result
(** Merge an external sketch into every usable replica; the next gather
    reads it back.  Refused, naming the session, while no replica is
    usable: a token is not a set the waiting FIFO can replay.  Its elements
    carry coins independent of the session's own — the merge caveat of
    DESIGN.md §3; nothing else ever joins a session's estimator. *)

val close : t -> name:string -> (unit, Delphic_server.Protocol.error) result
(** Flush, [CLOSE] on every worker, and forget the session, dropping any
    sets still waiting for a replica. *)

val live_workers : t -> int
(** Workers with an open connection right now (0 before any operation —
    connections are lazy). *)

val shard_freshness : t -> int list
(** Per ring position, the live replicas of its window that are complete
    for every session homed there; all zeros before the first connection.
    Feeds the [shard_fresh=] field of the frontend's [STATS] reply. *)

val epoch : t -> int
(** The fencing epoch this coordinator announces (0 = fencing off). *)

val is_fenced : t -> bool
(** True once any worker has refused this coordinator's epoch — a newer
    primary owns the pool, and every mutation fails with [ERR FENCED]. *)

val set_read_only : t -> bool -> unit
(** Flip standby mode.  A coordinator starts as a primary.  A standby
    serves every query, refuses every mutation with [ERR READONLY], and
    writes nothing to workers: no re-open and no replica repair.
    [set_read_only t false] is the promotion switch —
    normally driven by {!Failover}, after {!sync_sessions} and
    {!announce_epoch}.  Promotion adopts every session as {!open_session}
    adopts one it finds already held, since a standby never saw which
    replicas the old primary skipped. *)

val max_known_epoch : t -> int
(** The highest epoch this coordinator has announced, been fenced by, or
    seen any worker carry in a [HELLO] — probing every quarantine-free
    worker first, so a takeover learns the deposed primary's epoch from the
    workers (the durable truth).  A takeover must announce strictly more. *)

val announce_epoch : t -> epoch:int -> int
(** Adopt [epoch] (clearing any fence it supersedes) and stamp every live
    worker connection with a synchronous [COORD]; fresh connections are
    stamped on connect.  Returns the number of workers that accepted.
    Raises [Invalid_argument] if [epoch] is lower than the current one. *)

val sync_sessions : t -> int
(** Rebuild the session table from the workers' [SESSIONS] listings — the
    standby's takeover path (every OPEN was broadcast, so the union over
    reachable workers recovers the table; locally known sessions are kept).
    Returns the number of sessions learned. *)

val session_descs : t -> Delphic_server.Protocol.session_desc list
(** The sessions this coordinator routes, sorted by name — what [SESSIONS]
    serves. *)

val flush : t -> unit
(** Ship every staged payload and drain every pipelined ingest ack.
    {!close} and {!shutdown} call it; a gather does not — its [FETCH]
    queues behind the worker's staged frames, and reading the reply
    retires the acks owed ahead of it.  Sets waiting for a replica are
    released onto the complete replicas connected now; nothing is dialed,
    so with none connected they keep waiting for a gather, the session's
    next payload or {!shutdown}.
    Exposed for tests and benchmarks. *)

val shutdown : t -> unit
(** Dial once more — quarantined or not — the replicas of every session
    with sets waiting, flush, then close every worker connection.  The
    workers keep running — they own the sessions.  Sets that still found no
    replica are lost, and their count is logged. *)
