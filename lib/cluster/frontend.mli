(** Event-driven TCP front door for any request → response step.

    The {!Delphic_server.Evloop} readiness loop, shutdown and signal
    handling of {!Delphic_server.Server}, detached from the registry: the
    dispatch function is injected, so the same loop serves a single-node
    registry or a {!Coordinator} unchanged.  Both the v1 text protocol and
    wire protocol v2 are served, auto-detected on the first bytes, all on
    the one loop that owns the listening socket.  The bare [STATS] verb is
    answered by the frontend itself: connection figures, with the loop's
    request count as the one-element [dispatched] list (on the wire,
    [domains=1 dispatched=<n>] — a form kept for readers that parse the old
    per-domain list). *)

type t

val create :
  ?host:string ->
  ?max_conns:int ->
  ?shard_fresh:(unit -> int list) ->
  port:int ->
  dispatch:(Delphic_server.Protocol.request -> Delphic_server.Protocol.response) ->
  unit ->
  t
(** Binds immediately ([port] 0 picks a free port — see {!port}); serving
    starts with {!serve}/{!start}.  [dispatch] runs on the event-loop
    thread: while it blocks, every connection waits.  [max_conns] (default
    16384) sheds excess connections by accept-and-close.
    [shard_fresh] feeds the [shard_fresh=] field of the bare [STATS] reply
    (per-shard fresh-replica counts from the coordinator's latest gather);
    absent, the field is omitted. *)

val port : t -> int

val serve : t -> unit
(** Run the event loop on the calling thread until {!request_stop}. *)

val start : t -> Thread.t
(** {!serve} on its own thread, so a test can embed a front door and talk
    to it over loopback; join the result for a clean shutdown. *)

val request_stop : t -> unit
(** Idempotent, signal-safe: wakes the event loop, which closes every open
    connection on its way out. *)

val install_signals : t -> unit
(** Route SIGINT and SIGTERM to {!request_stop}. *)

