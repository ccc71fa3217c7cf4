(** Warm-standby promotion for the cluster coordinator.

    A standby runs the full front end ({!Frontend} + a read-only
    {!Coordinator} over the same worker pool) and polls the primary's
    [LEASE] on a dedicated connection.  While the primary answers as
    [role=primary], the standby serves queries and refuses mutations with
    [ERR READONLY]; each healthy poll also refreshes the session table from
    the workers' [SESSIONS] listings, so reads for sessions the primary
    opened are answerable before any takeover.  After [misses] consecutive
    lease failures it promotes itself:

    + rebuild the session table from the workers' [SESSIONS] listings —
      the workers are the durable truth, no coordinator journal exists;
    + pick a fencing epoch strictly above everything the old primary ever
      announced (max of lease-observed epochs and worker [HELLO] epochs),
      and announce it on every worker connection;
    + flip the coordinator read-write.

    From that instant the deposed primary's late writes die at every
    worker's fence ([ERR FENCED]), so a network blip that merely {e hid}
    the primary cannot produce two writable coordinators whose writes both
    land.  Estimates never regress: the workers kept all state, and union
    sketches make any replayed writes harmless duplicates. *)

type t

val create :
  ?interval:float ->
  ?misses:int ->
  ?dial_timeout:float ->
  ?timeout:float ->
  primary:string * int ->
  coord:Coordinator.t ->
  unit ->
  t
(** [coord] is this node's coordinator over the shared worker pool; it is
    switched read-only immediately (the standby contract).  [primary] is the
    live coordinator's client address, polled every [interval] seconds
    (default 0.5); [misses] (default 3) consecutive lease failures trigger
    the takeover.  [dial_timeout]/[timeout] bound the lease connection like
    any {!Rpc} client. *)

val start : t -> unit
(** Launch the monitor thread (idempotent).  The thread exits after a
    takeover or {!stop}. *)

val is_active : t -> bool
(** True once this node has promoted itself to primary. *)

val takeover_now : t -> unit
(** Promote immediately, skipping the lease countdown — for an operator's
    forced failover and for tests.  Idempotent. *)

val stop : t -> unit
(** Halt the monitor without promoting; joins the thread. *)
