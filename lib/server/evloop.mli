(** Readiness event loop: epoll on Linux, poll elsewhere.

    Replaces the thread-per-connection accept loops of {!Server} and the
    cluster frontend.  One thread owns every connection registered with a
    loop: non-blocking sockets, a per-connection state machine with a
    reusable read buffer and a write-backpressure queue, and first-byte
    protocol auto-detection — a leading NUL byte (the {!Frame.preamble})
    selects wire protocol v2 (length-prefixed CRC-framed binary), anything
    else is the v1 text protocol, newline-delimited.

    Since the multicore sharding, a loop comes in two shapes:

    - {b owning} ([~listen_fd]): the loop accepts on the listening socket
      itself — the single-domain fast path, identical to the pre-sharding
      behaviour.
    - {b adopted-only} (no [listen_fd]): connections arrive via {!adopt}
      from an acceptor running elsewhere ({!Evgroup} runs one loop per
      domain and distributes accepted fds round-robin).

    Concurrency model: the handler runs on the loop thread and its verdict
    is the reply, queued in request order before the next request on that
    connection is handled.  A handler that blocks stalls every connection on
    this loop — fine for a worker whose only client is the coordinator,
    and for dispatch that is microseconds plus one journal write (the
    server appends a mutation's record, and applies the fsync policy,
    before it returns); long-running work (checkpoint spools) belongs on
    its own thread. *)

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

type shared
(** Accounting shared across every loop of a sharded group: live
    connections, the connection cap, and the shed count belong to the
    listening socket, not to any single domain's loop. *)

val make_shared : max_conns:int -> shared
val live_conns : shared -> int
val shed_count : shared -> int

val try_admit : shared -> bool
(** Accept-time admission: [true] admits (registration will count it),
    [false] records a shed — the acceptor should close the fd. *)

type t

val create :
  ?max_conns:int ->
  ?shared:shared ->
  ?listen_fd:Unix.file_descr ->
  handler:handler ->
  ?on_bad_frame:(string -> string option) ->
  unit ->
  t
(** [listen_fd], when given, must already be bound and listening; the loop
    makes it non-blocking and accepts on it.  Without [listen_fd] the loop
    serves only {!adopt}ed connections.  [shared] links this loop into a
    group's accounting; absent, a private {!shared} is made from
    [max_conns] (default 16384, shedding by accept-and-close).
    [on_bad_frame reason] supplies an optional farewell reply body
    (e.g. [ERR IO ...]) sent before closing a connection whose stream
    desynced: CRC mismatch, oversized frame, bad preamble. *)

val run : t -> unit
(** Drive the loop on the calling thread (or domain) until {!stop};
    closes every connection (but not [listen_fd]) on the way out. *)

val stop : t -> unit
(** Thread- and signal-safe: wakes the loop via a self-pipe. *)

val adopt : t -> Unix.file_descr -> unit
(** Hand an accepted socket to this loop from another thread or domain.
    The loop registers it with its own backend on the next wakeup.  After
    {!stop}, adopted fds that never got registered are closed by {!run}'s
    teardown. *)

val conn_count : t -> int
(** Connections registered with {e this} loop (see {!live_conns} for the
    group-wide figure). *)

val dispatched : t -> int
(** Requests handled by this loop since creation — the per-domain balance
    figure the [STATS] verb reports. *)

val shared_of : t -> shared

val wait_fd : Unix.file_descr -> write:bool -> timeout:float -> [ `Ready | `Timeout ]
(** Wait for one descriptor with poll(2) — the FD_SETSIZE-safe replacement
    for client-side [Unix.select] waits.  Negative [timeout] waits
    forever.  [`Ready] includes error conditions so the caller's next
    syscall surfaces the real errno. *)

val raise_nofile : int -> int
(** Raise [RLIMIT_NOFILE] toward the target (hard limit too when
    privileged); returns the soft limit now in force, or [-1]. *)
