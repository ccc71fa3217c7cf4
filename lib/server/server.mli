(** TCP front end of the estimation service: one readiness-driven
    {!Evloop} thread owning the listening socket and every connection (epoll on Linux, poll
    elsewhere), built on stdlib [Unix] + [threads.posix] only.  Speaks both
    the v1 text protocol and wire protocol v2 (length-prefixed CRC-framed
    binary), auto-detected per connection on the first bytes; a v2
    mutation's journal record is the wire frame spliced verbatim.

    Durability contract without a journal: {!create} restores every session
    spooled under the given directory (consuming the spool files); a
    graceful stop — SIGINT/SIGTERM in the CLI, or {!request_stop} — drains
    the open connections and snapshots every live session back to the
    spool, so a restart pointing at the same directory resumes exactly
    where the previous process left off.  The loopback test in
    [test/test_server.ml] exercises this full cycle.

    With a {!wal_config}, the contract hardens from "graceful stop" to
    "kill -9": every accepted mutation is appended to a {!Wal} journal
    {e before} its [OK]/[OKB] leaves the socket — synchronously, on the
    event-loop thread that handled the request, one write (and under
    [fsync always] one fsync) per record — a checkpoint is taken
    every [checkpoint_every] records (and on graceful stop), and {!create}
    recovers by loading the last checkpoint and replaying the journal tail.
    The spool directory is then unused — the WAL directory is the durable
    home.  [test/test_cluster.ml]'s kill-9 test exercises this cycle.

    One thread: the event loop is the only thread that touches the
    {!Registry} and the {!Wal}, neither of which has a lock.  The periodic
    checkpoint runs inline, right after the append that crosses
    [checkpoint_every], so the reply to that record leaves after the spool
    (tens of milliseconds for a worker's sketches) and every connection
    waits for it.  No record can land mid-spool, so a clean checkpoint
    retires the whole journal. *)

type t

val overlay_stats : Evloop.t -> Protocol.response -> Protocol.response
(** A bare [STATS] reply from a dispatch (a registry's or a coordinator's)
    with [loop]'s connection figures laid over it: [conns], [shed], and
    the loop's request count as the one-element [dispatched] list.  Any
    other reply passes through.  The front doors answer bare [STATS] with
    this. *)

val reply : proto:Evloop.proto -> Protocol.response -> Evloop.verdict
(** The verdict that answers [resp] on a [proto] connection: on v2 a
    [SKETCH] leaves as the binary reply record ({!Protocol.sketch_head}
    then the raw token), everything else as its text line. *)

type wal_config = {
  dir : string;  (** journal + checkpoint home, created if missing *)
  fsync : Wal.fsync_policy;
  checkpoint_every : int;
      (** spool state and truncate the journal every this many records;
          [<= 0] disables periodic checkpoints (graceful-stop one remains) *)
}

val create :
  ?host:string ->
  ?clock:(unit -> float) ->
  ?wal:wal_config ->
  ?max_conns:int ->
  port:int -> spool:string -> seed:int -> unit -> t
(** Bind and listen ([host] defaults to ["127.0.0.1"]; [port] 0 picks an
    ephemeral port, see {!port}), then restore state: from [wal]'s
    checkpoint + journal when given, else from the spool directory.
    [clock] (default [Unix.gettimeofday]) stamps [ADD]/[ADDB] frames that
    carry no [t=] — resolved {e before} dispatch and journaling, so WAL
    replay sees the same timestamps — and supplies the query instant for
    un-pinned [WIN]/windowed [EXPR]; injectable for deterministic tests.
    WAL replay itself resolves legacy untimestamped records to [t=0].
    [max_conns] (default 16384) sheds excess connections by
    accept-and-close.  The bare [STATS] reply carries the loop's figures:
    its [dispatched] list has one element and renders as [domains=1], a
    form kept for readers that parse the old per-domain list.
    Binds with {!Evloop.listen}, so it raises [Unix.Unix_error] if the
    address is unavailable. *)

val port : t -> int
(** The bound port (useful with [port:0]). *)

val registry : t -> Registry.t

val restored : t -> (string * (unit, string) result) list
(** Outcome of the spool (or checkpoint) restoration done by {!create}. *)

val serve : t -> unit
(** Run the event loop on the calling thread until {!request_stop}; on the
    way out, close client connections and snapshot all sessions to the
    spool (or take a final WAL checkpoint).  Returns normally after a
    graceful stop. *)

val start : t -> Thread.t
(** {!serve} on its own thread, so a test or an in-process replay can embed
    a server and talk to it over loopback from the calling thread. *)

val request_stop : t -> unit
(** Trigger a graceful shutdown from any thread or from a signal handler;
    idempotent, returns immediately ({!serve} performs the drain). *)
