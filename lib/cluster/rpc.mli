(** One client connection to a worker (or to a coordinator's front end),
    speaking wire protocol v2: a 4-byte preamble, then
    {!Delphic_server.Frame}-framed bodies (length-prefixed, CRC-checked
    binary) each way, with every blocking step bounded by a deadline.  The
    v1 text protocol is the servers' human front door; no client here
    speaks it.

    The coordinator cannot afford an unbounded stall on one worker while
    the others idle: {!connect} uses a nonblocking connect raced against
    [poll] (FD_SETSIZE-safe), and reads go through a raw [Unix.read] loop
    (not an [in_channel]) so [SO_RCVTIMEO] expiry surfaces as the typed
    {!recv_error.Timed_out} instead of an exception string.  All failures
    are values — never exceptions — so the caller's retry/quarantine logic
    sees every outcome. *)

type t

type proto = V2
(** The one wire a connection speaks.  [ADDB] payloads travel as raw bytes
    with no %-armoring, and the server journals mutations by splicing the
    received frame.  Kept only for source compatibility with callers that
    still pass [~proto:V2]; it selects nothing. *)

type io = {
  io_read : Unix.file_descr -> Bytes.t -> int -> int -> int;
      (** [Unix.read] semantics: returns bytes read, 0 on EOF, raises
          [Unix.Unix_error] (EAGAIN surfaces as {!recv_error.Timed_out}) *)
  io_write : Unix.file_descr -> string -> int -> int -> int;
      (** [Unix.write_substring] semantics: returns bytes written, raises
          [Unix.Unix_error] on a dead peer *)
}
(** The socket operations behind a connection.  The default is the real
    [Unix] pair; [Delphic_harness.Chaos] wraps them to inject seeded delays,
    drops, partial writes, closes and corruption without touching any of
    the framing or retry logic above. *)

val default_io : io

type recv_error =
  | Timed_out
      (** the budget passed without a complete reply frame.  The peer may
          merely be slow — but a reply consumed after a timeout would land
          on a stream whose framing the caller has given up on, so the
          connection should be dropped either way; the constructor exists so
          that callers can {e log and decide} without matching on message
          strings. *)
  | Closed of string
      (** EOF, a transport error, or a reply frame that fails its CRC or
          does not decode (a misframed stream is as dead as a closed
          one). *)

type connect_error =
  | Dial_timeout of float
      (** the dial budget (seconds) elapsed with the connect still pending —
          the address is black-holed or the host is partitioned away.  The
          typed constructor lets the coordinator's quarantine path treat
          this as a worker death without string matching. *)
  | Dial_failed of string
      (** name resolution failed, the peer actively refused, or any other
          immediate connect error. *)

val describe_connect_error : connect_error -> string

val connect :
  ?io:io ->
  ?proto:proto ->
  ?dial_timeout:float ->
  host:string -> port:int -> timeout:float -> unit -> (t, connect_error) result
(** [io] defaults to {!default_io}; a fault-injection harness passes its
    wrapped pair here (threaded through [Coordinator.create ?io]).  The
    [io] hooks sit {e below} the framing, so chaos corruption surfaces as
    CRC rejects.  [proto] is ignored (see {!proto}).
    [dial_timeout] (default 2s) bounds the TCP connect itself, separately
    from the per-reply [timeout]: a black-holed address costs exactly one
    dial budget and surfaces as {!connect_error.Dial_timeout}. *)

val address : t -> string
(** ["host:port"], for log and error messages. *)

val describe_recv_error : recv_error -> string

val call : t -> Delphic_server.Protocol.request -> (Delphic_server.Protocol.response, string) result
(** [send] then [recv]: the one-outstanding-request case. *)

val send : t -> Delphic_server.Protocol.request -> (unit, string) result
(** Write one request without waiting for the reply — the pipelined scatter
    path.  Replies arrive in request order via {!recv}.  Any staged requests
    are shipped first, so the wire order always matches the stage/send
    order. *)

val stage : t -> Delphic_server.Protocol.request -> unit
(** Append one request to the connection's staging buffer without touching
    the socket.  Nothing is transmitted until {!flush_staged} (or a
    {!send}/{!call}, which drain the buffer first); staged requests reach
    the wire in staging order as a single coalesced write. *)

val staged_bytes : t -> int
(** Bytes currently staged and unsent — a flush-policy input. *)

val flush_staged : t -> (unit, string) result
(** Ship every staged request in one write+flush.  On [Error] the staged
    bytes are discarded (a retry on the same socket could split a frame);
    the caller is expected to drop the connection and replay
    from its own pending queue. *)

val recv_timeout :
  ?deadline:float -> t -> (Delphic_server.Protocol.response, recv_error) result
(** Read one reply frame, bounded by [deadline] (an [Unix.gettimeofday]
    epoch; default now + the connect timeout).  The deadline bounds the
    {e whole frame}, not each read syscall, so the overlapped gather can hand
    every worker the same absolute deadline and collect serially: a reply
    already sitting in the kernel buffer is returned even when the budget
    has been consumed by an earlier, slower worker, while a worker that has
    not answered by the deadline costs at most the remaining budget.
    Partial frames read before a timeout stay buffered on the connection. *)

val recv : t -> (Delphic_server.Protocol.response, string) result
(** {!recv_timeout} with the connection's default budget and the error
    flattened to a message. *)

val close : t -> unit
(** Idempotent; shuts down both directions first so a blocked peer sees
    EOF. *)
