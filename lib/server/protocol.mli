(** Wire protocol of the delphic estimation service: a pure request/response
    codec with typed errors, fully unit-testable without sockets.

    The protocol is newline-delimited text, one request per line, one
    response line per request — scriptable with [nc]/[telnet].  Grammar
    (trailing [\r] tolerated, verbs case-insensitive):

    {v
    OPEN <session> <family> <eps> <delta> <log2u>   open an estimation session
    ADD <session> [t=<secs>] <set-line>             feed one set (family line format)
    ADDB <session> [t=<secs>] <k> <tok1> ... <tokk> feed k sets in one frame
    EST <session>                                   current union-size estimate
    WIN <session> <seconds> [at=<abs-secs>]         estimate over the trailing window
    STATS <session>                                 session counters
    STATS                                           process-wide stats (reply: SRVSTATS ...)
    SNAPSHOT <session> <path>                       persist the session to a file
    SNAPSHOT <session> [cut=<abs-secs>]             reply with the wire-encoded sketch
    SNAPSHOT ver=<n> <session> [cut=<abs-secs>]     the same, or UNCHANGED if still at version n
    RESTORE <session> <path>                        open a session from a snapshot
    MERGE <session> <wire-snapshot>                 fold a peer's sketch into the session
    CLOSE <session>                                 drop the session
    EXPR [m=<samples>] [w=<secs>] <expression>      set-expression cardinality estimate
    PING                                            liveness probe
    HELLO                                           identity probe (reply: HELLO <generation> [epoch=<e>])
    COORD <epoch>                                   stamp this connection with a coordinator epoch
    SESSIONS                                        enumerate open sessions with their parameters
    LEASE                                           coordinator lease probe (reply: LEASE epoch=<e> role=...)
    v}

    [t=<secs>] is the optional logical ingest timestamp of an [ADD]/[ADDB]
    frame (no family line format starts with ["t="], so the token is
    unambiguous); when absent the server stamps its own receive time from an
    injectable clock.  [WIN] answers with the same [EST <float>] reply shape
    restricted to elements last seen in the trailing [<seconds>]; [at=]
    pins the query clock for reproducible runs.  [SNAPSHOT <s> cut=<abs>]
    is the windowed cluster fetch: the coordinator computes the absolute
    cutoff once and ships it, so every replica expires against the same
    instant.  [EXPR w=<secs>] restricts every leaf of the expression to the
    trailing window before evaluation.

    [ADDB] is the batched ingestion verb: each [tok] is one [ADD] payload
    percent-armored into a single space-free token ({!armor_payload}, the
    escape every text-line token uses), so a whole batch rides
    on one line and is answered by one line.  The reply is
    [OKB <accepted> [ERRAT <i> <msg>]...] ({!Ok_batch}): [accepted] counts
    payloads the estimator took, and each [ERRAT] pinpoints a rejected
    payload by its 0-based index in the frame — later payloads still land
    (a bad set costs itself, not its batch).

    [SNAPSHOT] with no path ({!Fetch}) and [MERGE] are the cluster verbs:
    any server can act as a worker, shipping its sketch to a coordinator as
    a binary {!Delphic_core.Snapshot_io} token (percent-armored into one
    space-free token on a v1 text line, raw bytes in a v2 reply record), or
    absorbing a peer's.

    [<family>] is [rect] (axis-parallel boxes, dimension fixed by the first
    [ADD]), [dnf:<nvars>] (DIMACS-style terms), or [cov:<nbits>:<strength>]
    (test vectors, t-wise coverage).  [ADD] payloads reuse the
    {!Delphic_stream.Parsers} line formats verbatim.

    [EXPR] evaluates a set expression over open sessions — the grammar is
    that of {!Delphic_stream.Parsers.expr_of_string}: session names combined
    with [& | \ ^] and parentheses, [&] binding tighter, e.g.
    [EXPR (A & B) \ C].  The reply is
    [EXPR <float> support=<f> m=<d> probes=exact|sketch [DEGRADED]] when the
    estimator certifies a value, or
    [EXPR LOWSUPPORT support=<f> need=<f> m=<d> probes=...] when the
    evidence mass fell short ({!Expr_reply}).  A malformed expression is
    [ERR BAD-EXPR <column> <msg>].

    Responses: [OK [<info>]], [EST <float>], [EXPR ...], [STATS k=v ...],
    [PONG], or [ERR <CODE> <detail>].  Every response renders to exactly one
    line and parses back losslessly
    ({!parse_response} ∘ {!render_response} = id, the codec property tested
    in [test/test_protocol.ml]). *)

module Expr_ast = Delphic_expr.Expr

type family =
  | Rect  (** boxes; the dimension is pinned by the session's first [ADD] *)
  | Dnf of { nvars : int }
  | Cov of { nbits : int; strength : int }

type request =
  | Open of {
      session : string;
      family : family;
      epsilon : float;
      delta : float;
      log2_universe : float;
    }
  | Add of { session : string; payload : string; ts : float option }
      (** [ts] is the optional [t=<secs>] ingest timestamp; [None] means
          "stamp at receive time" (the server resolves it before journaling
          so WAL replay preserves window semantics) *)
  | Add_batch of { session : string; payloads : string list; ts : float option }
      (** wire form [ADDB <session> [t=<secs>] <k> <tok>{k}]; payloads are
          carried verbatim in memory and armored only on the wire; [ts]
          stamps the whole frame *)
  | Add_log of { session : string; payloads : string list; ts : float option }
      (** wire form [ADDL ...], the backup-copy twin of [Add_batch]:
          coordinators ship a payload's replica copies this way.  The
          receiver applies the payloads to the estimator on arrival and
          acks in the same [Ok_batch] shape with an empty error list — a
          malformed payload only bumps the session's reject counter, since
          the primary copy already reported it to the sender. *)
  | Est of { session : string }
  | Win of { session : string; seconds : float; at : float option }
      (** wire form [WIN <session> <seconds> [at=<abs-secs>]]: the union
          estimate restricted to elements last seen within the trailing
          [seconds]; [at] pins the query clock (absent ⇒ server clock).
          Replies with {!Estimate}. *)
  | Stats of { session : string }
  | Snapshot of { session : string; path : string }
  | Restore of { session : string; path : string }
  | Fetch of { session : string; cutoff : float option }
      (** wire form [SNAPSHOT <session> [cut=<abs-secs>]] — the sketch comes
          back inline as a {!Sketch} reply instead of being written
          server-side; with [cutoff], entries last seen before the absolute
          instant are dropped from the reply (the cluster's windowed
          gather) *)
  | Fetch_since of { session : string; cutoff : float option; since : int }
      (** wire form [SNAPSHOT ver=<since> <session> [cut=<abs-secs>]]: a
          {!Fetch} answered with {!Sketch_at}, whose token is [None] while
          the session is still at version [since].  Versions are drawn
          from one counter per server process and start at 1, so
          [since = 0] always gets the token. *)
  | Merge of { session : string; encoded : string }
      (** [encoded] is the raw {!Delphic_core.Snapshot_io} token; the text
          line carries it percent-armored ({!armor_payload}) *)
  | Close of { session : string }
  | Expr of { expr : Expr_ast.t; m : int option; w : float option }
      (** wire form [EXPR [m=<samples>] [w=<seconds>] <expression>]; [m]
          overrides the server's default union-sample count, [w] restricts
          every leaf to the trailing window.  Unknown or malformed option
          tokens are rejected with {!Bad_expr} naming the token and its
          1-based column. *)
  | Ping
  | Hello
      (** wire form [HELLO] — identity probe: the server answers
          [HELLO <generation>] ({!Hello_reply}), where the generation is a
          number that changes every time the process (re)starts.  The
          cluster coordinator uses it to tell "same worker, same state"
          apart from "worker restarted and lost its unjournalled tail".
          Pre-crash-safety servers answer [ERR UNSUPPORTED HELLO], which
          callers treat as "generation unknown, assume restart". *)
  | Server_stats
      (** wire form [STATS] with no session — process-wide figures: live
          connections, sheds, per-domain dispatch balance
          ({!Server_stats_reply}).  Older servers answer [ERR ARITY]. *)
  | Coord_epoch of { epoch : int }
      (** wire form [COORD <epoch>] — a coordinator announcing its fencing
          epoch on this connection.  The worker remembers the highest epoch
          it has ever seen; a mutation arriving later on a connection stamped
          with a lower epoch is refused with [ERR FENCED <current>] — the
          deposed-primary write fence.  Connections that never announce
          (direct clients) are never fenced.  Reply: {!Epoch_reply}. *)
  | Sessions
      (** wire form [SESSIONS] — enumerate open sessions with their creation
          parameters ({!Sessions_reply}).  A warm-standby coordinator taking
          over rebuilds its routing table from this: the workers, not a
          coordinator journal, are the durable truth. *)
  | Lease
      (** wire form [LEASE] — the standby's heartbeat probe against the
          active coordinator.  Reply {!Lease_reply} carries the primary's
          fencing epoch; a run of missed leases triggers takeover at a
          higher epoch. *)

type error =
  | Empty_request
  | Unknown_command of string
  | Wrong_arity of { command : string; expected : string }
  | Bad_number of { what : string; value : string }
  | Bad_family of string
  | Bad_session_name of string
  | Unknown_session of string
  | Session_exists of string
  | Bad_params of string
      (** estimator construction refused the (ε, δ, log2|Ω|) triple *)
  | Bad_expr of { pos : int; msg : string }
      (** an [EXPR] expression failed to parse; [pos] is the 1-based column
          in the expression text *)
  | Bad_line of { line : int; msg : string }
      (** an [ADD] payload failed to parse; [line] counts the session's
          [ADD]s, so the client can locate the bad set in its own stream *)
  | Io_error of string
  | Server_error of string
  | Fenced of int
      (** a mutation arrived on a connection stamped with a stale coordinator
          epoch; the payload is the epoch currently in force *)
  | Read_only of string
      (** the node answers queries but refuses mutations — a warm standby
          whose primary is still alive, or a deposed primary that has been
          fenced *)

type stats = {
  family : string;  (** family token, e.g. ["dnf:40"] *)
  items : int;  (** sets processed *)
  entries : int;  (** exact distinct elements held, or sketch bucket size *)
  exact : bool;  (** still in the exact regime? *)
  last_estimate : float;  (** estimate at the last [EST] (0 before any) *)
  parse_rejects : int;  (** [ADD] lines rejected so far *)
  merges : int;  (** peer sketches folded in via [MERGE] *)
}

(** Probe regime of an [EXPR] answer: [Probes_exact] when every leaf session
    was still holding its elements exactly (the documented bound applies as
    stated), [Probes_sketch] when at least one leaf answered with
    Horvitz–Thompson weights from its sketch bucket (unbiased, heuristic
    bound). *)
type expr_quality = Probes_exact | Probes_sketch

(** Reply payload of the bare [STATS] verb.  [dispatched] is per event-loop
    domain, index-aligned with the acceptor's round-robin deal order — the
    list length is the domain count.  [wal_queue], [wal_last_group] and
    [wal_groups] are always 0: they described the journal's group-commit
    writer, which was removed, and stay on the wire and in this record only
    for compatibility with readers that parse them. *)
type server_stats = {
  conns : int;
  shed : int;
  dispatched : int list;
  wal_queue : int;
  wal_last_group : int;
  wal_groups : int;
  shard_fresh : int list;
      (** per-shard fresh-replica counts from the coordinator's most recent
          gather, index-aligned with the hash ring ([[]] on plain servers
          and on coordinators that have not gathered yet); rides the wire as
          an optional [shard_fresh=a,b,...] token *)
}

(** One open session as enumerated by the [SESSIONS] verb: the name plus the
    creation parameters a coordinator needs to rebuild its routing entry. *)
type session_desc = {
  sd_name : string;
  sd_family : string;  (** family token, e.g. ["rect"], ["dnf:40"] *)
  sd_epsilon : float;
  sd_delta : float;
  sd_log2_universe : float;
}

type response =
  | Ok_reply of string option
  | Ok_batch of { accepted : int; errors : (int * string) list }
      (** reply to {!Add_batch}: payloads accepted, plus [(index, message)]
          for each rejected payload (0-based index into the frame) *)
  | Estimate of { value : float; degraded : bool; stale_shards : int list }
      (** [degraded] renders as a trailing [DEGRADED] token — set by a
          coordinator that could not reach one fresh replica for some shard
          and answered from last-good snapshots.  [stale_shards] names those
          hash-ring positions ([shards=i,j,...] after the [DEGRADED] token;
          empty on single-replica coordinators and plain servers, where the
          bare [DEGRADED] form is unchanged). *)
  | Expr_reply of {
      value : float option;
      support : float;
      needed : float;
      samples : int;
      quality : expr_quality;
      degraded : bool;
    }
      (** reply to {!Expr}.  [value = Some v] certifies the estimate;
          [None] renders as [LOWSUPPORT] with [need=<needed>] — the evidence
          mass [support] fell short of the {!Delphic_expr.Expr.min_support}
          threshold [needed] (which is 0 on certified replies).  [samples]
          is the union draws evaluated, [degraded] as in {!Estimate}. *)
  | Stats_reply of stats
  | Sketch of string
      (** the reply to {!Fetch}: the raw {!Delphic_core.Snapshot_io} token.
          A v1 text line is [SKETCH <armored token>]; a v2 reply is the
          binary record [sketch_head ^ token] *)
  | Sketch_at of { version : int; token : string option }
      (** the reply to {!Fetch_since}: the session's version and its token,
          or [None] when the version is the one asked about.  Text lines
          [SKETCH ver=<n> <armored token>] and [UNCHANGED ver=<n>]; a v2
          token reply is the binary record [\x01 'V' | be64 version |
          token] *)
  | Pong
  | Hello_reply of { generation : int; epoch : int }
      (** [HELLO <generation> [epoch=<e>]], the reply to {!Hello}; [epoch]
          is the highest coordinator epoch this worker has seen (0, and
          omitted on the wire, when fencing has never been engaged — the
          pre-failover reply shape) *)
  | Server_stats_reply of server_stats
      (** [SRVSTATS conns=.. shed=.. domains=.. dispatched=a,b,..
          wal_queue=.. wal_last_group=.. wal_groups=.. [shard_fresh=a,b,..]],
          the reply to {!Server_stats} *)
  | Epoch_reply of { epoch : int }
      (** [EPOCH <e>], the reply to {!Coord_epoch}: the epoch now stamped on
          the connection (a refused announce is [ERR FENCED <current>]) *)
  | Sessions_reply of session_desc list
      (** [SESSIONS <k> (<name> <family> <eps> <delta> <log2u>){k}], the
          reply to {!Sessions} *)
  | Lease_reply of { epoch : int; primary : bool }
      (** [LEASE epoch=<e> role=primary|standby], the reply to {!Lease} *)
  | Error_reply of error

val session_name_ok : string -> bool
(** Accepted session names: non-empty, characters from
    [A-Za-z0-9_.-] only. *)

val armor_payload : string -> string
(** Percent-escape ['%'] and the whitespace bytes (space, tab, newline, form
    feed, carriage return) as [%XX] (uppercase hex — a set line's spaces
    become [%20]) so any byte string, a set line or a binary sketch token,
    becomes one whitespace-free token for a text line; every other byte is
    kept raw.  A payload with nothing to escape is returned as-is (no
    allocation). *)

val unarmor_payload : string -> (string, string) result
(** Inverse of {!armor_payload}: [unarmor_payload (armor_payload p) = Ok p].
    Any [%XX] hex pair decodes; non-hex or truncated escapes and bare spaces
    are [Error]. *)

val family_to_token : family -> string
val family_of_token : string -> (family, error) result

val parse_request : string -> (request, error) result
(** Never raises; anything malformed becomes a typed [Error]. *)

val render_request : request -> string
(** One line, no trailing newline.  [parse_request (render_request r) = Ok r]
    for every [r] whose strings respect the grammar (validated session
    names, no newlines). *)

val encode_request_v2 : request -> string
(** The request as a wire-protocol-v2 frame {e body} (the caller adds the
    {!Frame} header).  [Add_batch] and [Add_log] get a binary shape — tag
    ['\x01'], raw payload bytes, no %-armoring, no tokenization on the far
    side — because they are the ingest hot path; every other request is
    its {!render_request} text line, which v2 framing carries unchanged.
    It is also the body of every journal record. *)

val encode_request_v2_sink : Frame.sink -> request -> unit
(** {!encode_request_v2} into a caller-pooled {!Frame.sink} (cleared
    first): the same body without a string per request — the difference
    that makes v2 win at batch size 1. *)

val parse_frame_body : string -> (request, error) result
(** Decode a v2 frame body: ['\x01']-tagged bodies via the binary decoder,
    anything else via {!parse_request}.  Total — malformed binary records
    become [Error (Bad_params _)].  This is also the WAL replay decoder:
    journals mix text and spliced binary records freely. *)

val render_response : response -> string
(** One line, no trailing newline. *)

val parse_response : string -> (response, string) result
(** Inverse of {!render_response}; used by the [delphic query] client. *)

val sketch_head : string
(** ["\x01S"]: the head of a v2 binary [SKETCH] reply record, whose frame
    body is [sketch_head ^ token] — no armor, no line parse. *)

val reply_record : response -> (string * string) option
(** [Some (head, token)] for a reply sent as a v2 binary record — a
    {!Sketch}, or a {!Sketch_at} that carries a token. *)

val parse_reply_frame : Bytes.t -> pos:int -> len:int -> (response, string) result
(** Decode the v2 reply body at [buf.[pos .. pos+len-1]]: a binary
    [SKETCH] record is cut straight out of the buffer (one copy of the
    token), anything else is a {!parse_response} text line.  Total. *)

val error_code : error -> string
(** The wire code, e.g. ["UNKNOWN-SESSION"] — stable, scriptable.  An
    unrecognised verb is [ERR UNSUPPORTED <verb>] (the server replies and
    keeps the connection open rather than dropping it); {!parse_response}
    also accepts the pre-cluster spelling [UNKNOWN-COMMAND]. *)

val describe_error : error -> string
(** Human-readable one-line description (no code prefix). *)

val expr_reply_of_outcome : degraded:bool -> Expr_ast.outcome -> response
(** Lift an estimator {!Delphic_expr.Expr.outcome} into the wire reply:
    [Estimate] becomes a certified {!Expr_reply} ([needed = 0]),
    [Low_support] a [LOWSUPPORT] one. *)
