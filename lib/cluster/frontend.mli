(** Event-driven TCP front door for any request → response step.

    The shell of {!Delphic_server.Server} — one {!Delphic_server.Evloop}
    that owns the socket {!Delphic_server.Evloop.listen} bound, shutdown
    and signal handling — detached from the registry: the dispatch function
    is injected, so the same loop serves a single-node registry or a
    {!Coordinator} unchanged.  Both the v1 text protocol and wire protocol
    v2 are served, auto-detected on the first bytes.  The bare [STATS] verb
    goes to the dispatch like any other (a coordinator fills in
    [shard_fresh=]), and the loop's connection figures are laid over its
    reply ({!Delphic_server.Server.overlay_stats}): the loop's request
    count is the one-element [dispatched] list (on the wire,
    [domains=1 dispatched=<n>] — a form kept for readers that parse the old
    per-domain list). *)

type t

val create :
  ?host:string ->
  ?max_conns:int ->
  port:int ->
  dispatch:(Delphic_server.Protocol.request -> Delphic_server.Protocol.response) ->
  unit ->
  t
(** Binds immediately ([port] 0 picks a free port — see {!port}); serving
    starts with {!serve}/{!start}.  [dispatch] runs on the event-loop
    thread: while it blocks, every connection waits.  [max_conns] (default
    16384) sheds excess connections by accept-and-close. *)

val port : t -> int

val serve : t -> unit
(** Run the event loop on the calling thread until {!request_stop}. *)

val start : t -> Thread.t
(** {!serve} on its own thread, so a test can embed a front door and talk
    to it over loopback; join the result for a clean shutdown. *)

val request_stop : t -> unit
(** Idempotent, signal-safe: wakes the event loop, which closes every open
    connection on its way out. *)

