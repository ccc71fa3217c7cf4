(** Domain-sharded event loops behind one listening socket.

    One {!Evloop} per domain, each with its own epoll/poll descriptor,
    read buffers and backpressure queues; a single acceptor (the thread
    that calls {!run}) accepts and deals the fds round-robin via
    {!Evloop.adopt}.  Dispatch stays domain-safe because the registry is
    16-way striped with per-session locks — two domains only contend when
    they touch the same session.

    [domains = 1] (the default, and the test suites' default) collapses to
    exactly the pre-sharding shape: one loop owning the listening socket,
    run on the calling thread, no handoff hop, no extra domains. *)

type t

val default_domains : unit -> int
(** [min 8 Domain.recommended_domain_count], at least 1 — the CLI default
    for [--domains]. *)

val create :
  ?max_conns:int ->
  ?domains:int ->
  listen_fd:Unix.file_descr ->
  handler:Evloop.handler ->
  ?on_bad_frame:(string -> string option) ->
  unit ->
  t
(** [listen_fd] must be bound and listening.  [max_conns] (default 16384)
    is enforced group-wide at the acceptor by accept-and-close.  [domains]
    (default 1, clamped to ≥ 1) is the number of event-loop domains. *)

val run : t -> unit
(** With one domain: {!Evloop.run} on the calling thread.  Sharded: spawn
    one domain per loop, then run the acceptor on the calling thread until
    {!stop}; joins every loop domain before returning.  [listen_fd] is not
    closed. *)

val stop : t -> unit
(** Thread- and signal-safe; idempotent. *)

val domains : t -> int
val live_conns : t -> int
val shed_count : t -> int

val dispatched : t -> int array
(** Per-loop handled-request counts, index-aligned with the round-robin
    deal order — the [STATS] balance figures. *)
