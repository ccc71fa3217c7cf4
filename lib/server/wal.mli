(** Write-ahead journal for crash-safe workers.

    A worker that answers [OK]/[OKB] and then dies with the accepted sets
    only in memory silently corrupts the union estimate — a merged sketch
    has no per-item audit trail, so nothing downstream can detect the hole.
    The journal closes that window: every accepted mutating request is
    appended (and, per {!fsync_policy}, fsynced) {e before} the reply line
    is written, so any state the coordinator believes delivered is on disk.

    {2 Layout}

    One directory owns everything:

    {v
    <dir>/journal          length-prefixed, CRC-framed records
    <dir>/generation       the worker's epoch, bumped on every open
    <dir>/checkpoint/      <session>.snap files from the last checkpoint
    v}

    A record is [u32 length | u32 CRC-32 of the body | body], both integers
    big-endian; the body is a v2 request frame body
    ({!Protocol.encode_request_v2}).  Appends are
    a single [write] syscall per record, so a [kill -9] can lose at most the
    record being written — never a previously acknowledged one — and the
    loss shows up as a torn tail, not silent absence.

    {2 Recovery}

    The caller first restores the checkpoint directory (the server uses
    {!Registry.restore_all}), then {!replay}s the journal tail in order;
    the file is truncated at the first torn or CRC-failing record.
    Replaying on top of a checkpoint
    that already includes a record's effect is safe: union estimation is
    duplicate-insensitive, the same property the cluster's at-least-once
    replay leans on.

    {2 Checkpoints}

    {!checkpoint} asks the caller to spool the live {!Delphic_core.Snapshot_io}
    state into the checkpoint directory, deletes [.snap] files for sessions
    that are no longer live (a stale snapshot would resurrect a closed
    session once the journal truncation retires its CLOSE record), then
    truncates the journal the spool covered.  A crash between the steps
    only widens the replayed tail — again duplicates, never loss.

    {2 One thread}

    A journal has no lock: one thread owns it, and the server's is its
    event-loop thread, which appends each mutation and runs the periodic
    checkpoint inline.  Nothing is appended during a spool, so a
    checkpoint retires the whole journal; an append from inside the
    spool makes {!checkpoint} refuse to retire anything.

    {2 Generation fencing}

    Every {!open_} bumps and persists an integer generation; a directory
    with none starts from {!random_generation}, so a worker restarted on a
    wiped directory does not repeat its predecessor's.  A worker returns
    it in the [HELLO] handshake; a coordinator that sees the number change
    across a reconnect knows it is talking to a restarted process whose
    state is only as fresh as the journal, and re-drives the delta instead
    of assuming the connection blip preserved everything. *)

type fsync_policy =
  | Always  (** fsync after every record: survives power cuts, slowest *)
  | Interval of float
      (** fsync at most once per [seconds]; a crash window of one interval
          against power loss, none against process death *)
  | Never  (** rely on the kernel page cache: process death loses nothing,
               power loss may lose the un-flushed tail *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["always"], ["never"], or ["interval"]/["interval:<seconds>"]
    (default 0.2s). *)

val fsync_policy_to_string : fsync_policy -> string

type t

val open_ : dir:string -> fsync:fsync_policy -> t
(** Create [dir] (and the checkpoint subdirectory) if needed, bump and
    persist the generation, and open the journal for appending.  Raises
    [Sys_error]/[Unix.Unix_error] if the directory is unusable. *)

val generation : t -> int
(** The epoch persisted by this {!open_} — strictly greater than any
    earlier process's over the same directory. *)

val random_generation : unit -> int
(** A nonzero 30-bit draw from the OS's entropy: where a fresh directory's
    generation starts, and what a journal-less server answers to [HELLO]. *)

val checkpoint_dir : t -> string

val append : t -> string -> unit
(** Append one record and apply the fsync policy.  Text bodies must be
    newline-free (one rendered request line per record); bodies starting
    with ['\x01'] are binary protocol-v2 records and may contain any
    bytes.  The write (and, under {!Always}, the fsync) runs on the
    calling thread, so a caller that replies afterwards never
    acknowledges a record the journal does not hold.  Raises
    [Unix.Unix_error] if the disk refuses the write — the caller should
    fail the request rather than acknowledge state that is not durable. *)

val append_framed : t -> string -> unit
(** Append a complete, already-framed record — header and body exactly as
    {!Frame.frame} lays them out — without re-framing.  This is the
    zero-copy splice path for wire protocol v2: the bytes that arrived on
    the socket go to the journal verbatim.  The caller vouches for the
    CRC (the event loop has just verified it on receive); only the length
    field is checked.  Raises [Invalid_argument] on a malformed frame. *)

val records_since_checkpoint : t -> int
(** Appended (or replayed) records still uncovered by a checkpoint — the
    checkpoint trigger input. *)

val replay : t -> f:(string -> unit) -> int * string option
(** Feed every intact record body to [f] in append order, truncate the
    journal at the first torn or corrupt record, and leave the handle
    positioned to append after the survivors.  Returns the number of
    records replayed and a description of the cut, if one was made.
    Exceptions from [f] are the caller's. *)

val checkpoint : t -> spool:(dir:string -> (string * (string, string) result) list) -> (string * (string, string) result) list
(** Run [spool ~dir:(checkpoint_dir t)] — expected to write one [.snap]
    per live session, as {!Registry.snapshot_all} does — then, if every
    outcome is [Ok], delete [.snap] files for sessions absent from the
    outcomes and truncate the journal, resetting
    {!records_since_checkpoint} to 0.  On any spool failure the journal and
    checkpoint files are left intact so replay still covers the failed
    sessions.  Returns the spool outcomes.  Raises [Invalid_argument] and
    retires nothing if a record was appended while [spool] ran: the spool
    may not cover it, so the journal must keep it. *)

val close : t -> unit
(** Final fsync and close.  Idempotent. *)
