(** Readiness event loop: epoll on Linux, poll elsewhere.

    Each serving process ([serve], [worker], [coord]) runs exactly one
    loop, which owns the listening socket.  One thread owns every
    connection: it accepts, then drives non-blocking sockets through a
    per-connection state machine with a reusable read buffer and a
    write-backpressure queue, and first-byte protocol auto-detection — a
    leading NUL byte (the {!Frame.preamble}) selects wire protocol v2
    (length-prefixed CRC-framed binary), anything else is the v1 text
    protocol, newline-delimited.

    Concurrency model: the handler runs on the loop thread and its verdict
    is the reply, queued in request order before the next request on that
    connection is handled.  A handler that blocks stalls every connection on
    the loop — fine for a worker whose only client is the coordinator,
    and for dispatch that is microseconds plus one journal write (the
    server appends a mutation's record, and applies the fsync policy,
    before it returns) and, every [checkpoint_every] records, one
    checkpoint spool.  Work that waits on another host (a standby's lease
    polls) belongs on its own thread. *)

type proto = V1 | V2

type verdict =
  | Reply of string  (** reply now, in request order *)
  | Record of { head : string; body : string }
      (** reply now with the v2 frame body [head ^ body], framed without
          building the concatenation — a binary reply record (a short tag,
          then a payload that can be hundreds of kilobytes).  For v2
          connections only. *)

type ctx = { mutable epoch : int }
(** Per-connection handler state, created at registration and passed to
    every request from that connection.  The loop never touches it — it is
    the seam that lets a handler remember the peer across requests: a
    worker stamps the coordinator fencing epoch of a [COORD] announce here
    and later refuses mutations from a connection whose stamp has been
    overtaken ([epoch] 0 = never announced, never fenced). *)

type handler = ctx:ctx -> proto:proto -> raw:string -> body:string -> verdict
(** One request in, one verdict out.  [body] is the request — a text line
    (v1) or a v2 frame body.  [raw] is the exact wire frame
    (header + body) for v2, [""] for v1 — a v2 mutation can be journalled
    by splicing [raw] verbatim ({!Wal.append_framed}).  [ctx] is the
    connection's {!ctx}.  The reply is framed by the loop per the
    connection's protocol.  Exceptions close the connection; turn failures
    into protocol error replies instead. *)

type t

val listen : ?host:string -> port:int -> unit -> Unix.file_descr * int
(** A TCP socket bound to [host] (default ["127.0.0.1"]) and [port] and
    listening, with the port it got ([port] 0 picks a free one).  Raises
    [Unix.Unix_error] if the address is unavailable. *)

val create :
  ?max_conns:int ->
  listen_fd:Unix.file_descr ->
  handler:handler ->
  ?on_bad_frame:(string -> string option) ->
  unit ->
  t
(** [listen_fd] must already be bound and listening (see {!listen}); the
    loop makes it non-blocking, accepts on it, and closes it when {!run}
    returns.  Past [max_conns] live connections
    (default 16384) a new connection is accepted and closed at once, and
    counted as shed.  [on_bad_frame reason] supplies an optional farewell
    reply body (e.g. [ERR IO ...]) sent before closing a connection whose
    stream desynced: CRC mismatch, oversized frame, bad preamble. *)

val run : t -> unit
(** Drive the loop on the calling thread until {!stop}; closes every
    connection and [listen_fd] on the way out. *)

val stop : t -> unit
(** Thread- and signal-safe, and idempotent: wakes the loop via a
    self-pipe. *)

val stop_on_signals : (unit -> unit) -> unit
(** Route SIGINT {e and} SIGTERM to [stop] — a front door's
    [request_stop], so a supervisor's stop drains (and spools or
    checkpoints) exactly like a ^C. *)

val live_conns : t -> int
(** Connections currently registered. *)

val shed_count : t -> int
(** Connections closed at accept because the cap was reached. *)

val dispatched : t -> int
(** Requests handled since creation. *)

val wait_fd : Unix.file_descr -> write:bool -> timeout:float -> [ `Ready | `Timeout ]
(** Wait for one descriptor with poll(2) — the FD_SETSIZE-safe replacement
    for client-side [Unix.select] waits.  Negative [timeout] waits
    forever.  [`Ready] includes error conditions so the caller's next
    syscall surfaces the real errno. *)

val raise_nofile : int -> int
(** Raise [RLIMIT_NOFILE] toward the target (hard limit too when
    privileged); returns the soft limit now in force, or [-1]. *)
