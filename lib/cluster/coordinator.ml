module P = Delphic_server.Protocol
module Families = Delphic_server.Families
module Io = Delphic_core.Snapshot_io
module Rng = Delphic_util.Rng

let log_src = Logs.Src.create "delphic.cluster" ~doc:"scatter/gather coordinator"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One wire frame awaiting its single reply line: an [ADDB]/[ADDL]
   carrying the whole array, kept so a death can park its payloads.
   [bts] is the frame's ingest timestamp — [ADDB] stamps a whole frame, so
   only same-timestamp payloads share one; [None] lets the worker stamp its
   own receive time. *)
type batch = { bsession : string; bts : float option; bitems : string array }

type worker = {
  wid : int;
  host : string;
  port : int;
  mutable conn : Rpc.t option;
  mutable serial : int;
      (* connections made so far: names the current one, and > 0 once a
         connection to this worker has completed *)
  mutable failures : int; (* consecutive, drives the backoff *)
  mutable quarantined_until : float; (* epoch seconds; 0.0 = available *)
  staged : (string * string * float option) Queue.t;
      (* routed but not yet framed: (session, payload, ts).  Nothing
         here has touched the socket; a death parks these verbatim. *)
  pending : owed Queue.t;
      (* the one FIFO of replies owed on [conn], in wire order.  Whoever
         reads a reply retires the head with it, so a drain can fill an
         ask's slot and an ask can retire the acks ahead of it without ever
         misframing the stream. *)
  mutable in_flight : int; (* payload units across the frames in [pending] *)
}

(* One reply owed on a worker connection: an ingest frame's ack, or the
   slot of a synchronous ask — [None] until its reply is read, an [Error]
   once the connection died with the ask unanswered. *)
and owed = Frame of batch | Ask of (P.response, string) result option ref

(* One gathered token as the memo holds it: the worker that sent it,
   the connection it came on, and the session version it carries (0 when
   the sender keeps no versions). *)
type held = { from : int; serial : int; version : int; token : string }

(* Where a session lives.  Its stream goes to one estimator, kept as full
   copies on the [replicas] ring window that starts at [home]: the copies
   are alternatives for a gather, never addends, so a healthy gather reads
   one token and answers the single-stream (ε,δ) estimate. *)
type session_info = {
  family : P.family;
  epsilon : float;
  delta : float;
  log2_universe : float;
  home : int; (* ring position: [Hashtbl.hash name mod n] *)
  members : worker list; (* the replica window from [home], in ring order *)
  incomplete : bool array;
      (* per worker id: a replica that missed what its peers took (skipped
         while down, quarantined or disconnected, or back from a restart
         without the session).  It is neither fed nor read until [replace]
         overwrites it with a complete copy. *)
  waiting : (string * float option) Queue.t;
      (* (payload, ts) that no usable replica holds yet, oldest first: new
         ingest while no replica is usable (only while fewer than [window]
         sets wait), and every set a dead or refusing replica left
         unacknowledged.  Only [place] stages them again, once a replica is
         complete: ahead of the session's next payload, before each replica
         a read asks, and at [flush] and [shutdown]. *)
  mutable last_good : string option; (* the replicas' last good full token *)
  mutable last_estimate : float;
  mutable rejects : int; (* payloads a primary ack listed as malformed *)
  mutable merges : int; (* the MERGE count the last decoded token carried *)
  (* Memo: the token of the last fresh gather and the sketch it decoded
     to.  The next gather names the token's version in its fetch, and a
     worker whose session has not moved answers UNCHANGED instead of
     re-shipping it, so the decode is skipped too — repeated EST on an idle
     cluster costs one short RPC.  A version is only asked about on the
     connection it came on: a restarted worker counts versions from 1
     again. *)
  mutable memo : (held * Families.t) option;
}

type t = {
  workers : worker array;
  replicas : int; (* full copies of each session, on successive ring positions *)
  timeout : float;
  dial_timeout : float; (* TCP connect budget, separate from [timeout] *)
  backoff : float; (* first quarantine; doubles per consecutive failure *)
  window : int; (* unacked payload units per worker before a drain *)
  batch : int;
      (* max payloads per ADDB/ADDL frame, and the staging high-water mark
         at which single ADDs are shipped (a client ADDB ships at once) *)
  clock : unit -> float; (* query instant for un-pinned WIN / EXPR w= *)
  seed : int;
  io : Rpc.io; (* socket ops for every worker connection (chaos hook) *)
  rng : Rng.t; (* backoff jitter; guarded by [lock] like everything else *)
  lock : Mutex.t;
  sessions : (string, session_info) Hashtbl.t;
  mutable seq : int; (* distinct seeds for successive decodes and draws *)
  (* --- fencing + warm-standby state --- *)
  mutable epoch : int;
      (* the fencing epoch announced to every worker connection ([COORD]);
         0 = fencing off, nothing announced (the single-coordinator
         deployment).  A standby bumps this at takeover. *)
  mutable fenced_by : int;
      (* highest epoch a worker has fenced us with (0 = never).  When it
         exceeds [epoch] a newer primary owns the pool: this coordinator is
         deposed and refuses mutations rather than fight. *)
  mutable read_only : bool;
      (* a warm standby: answers every query, refuses every mutation and
         writes nothing to workers, until [Failover] promotes it *)
  mutable max_worker_epoch : int;
      (* highest epoch seen in any worker HELLO — the floor a takeover must
         clear, sourced from the workers because they are the durable truth *)
}

let create ?(replicas = 1) ?(timeout = 2.0) ?(dial_timeout = 2.0) ?(backoff = 0.05)
    ?(window = 256) ?(batch = 64) ?(io = Rpc.default_io) ?proto:_
    ?(clock = Unix.gettimeofday) ?(epoch = 0) ~workers ~seed () =
  if workers = [] then invalid_arg "Coordinator.create: need at least one worker";
  if replicas < 1 then invalid_arg "Coordinator.create: need replicas >= 1";
  if timeout <= 0.0 then invalid_arg "Coordinator.create: need timeout > 0";
  if dial_timeout <= 0.0 then invalid_arg "Coordinator.create: need dial_timeout > 0";
  if epoch < 0 then invalid_arg "Coordinator.create: need epoch >= 0";
  if window < 1 then invalid_arg "Coordinator.create: need window >= 1";
  if batch < 1 then invalid_arg "Coordinator.create: need batch >= 1";
  {
    workers =
      Array.of_list
        (List.mapi
           (fun wid (host, port) ->
             {
               wid;
               host;
               port;
               conn = None;
               serial = 0;
               failures = 0;
               quarantined_until = 0.0;
               staged = Queue.create ();
               pending = Queue.create ();
               in_flight = 0;
             })
           workers);
    replicas = Stdlib.min replicas (List.length workers);
    timeout;
    dial_timeout;
    backoff;
    window;
    batch;
    clock;
    seed;
    io;
    rng = Rng.create ~seed:(seed lxor 0x2545F491);
    lock = Mutex.create ();
    sessions = Hashtbl.create 4;
    seq = 0;
    epoch;
    fenced_by = 0;
    read_only = false;
    max_worker_epoch = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let next_seed t =
  t.seq <- t.seq + 1;
  t.seed + (7919 * t.seq)

let address w = Printf.sprintf "%s:%d" w.host w.port

let new_session t name ~family ~epsilon ~delta ~log2_universe =
  let n = Array.length t.workers in
  let home = Hashtbl.hash name mod n in
  {
    family;
    epsilon;
    delta;
    log2_universe;
    home;
    members = List.init t.replicas (fun j -> t.workers.((home + j) mod n));
    incomplete = Array.make n false;
    waiting = Queue.create ();
    last_good = None;
    last_estimate = 0.0;
    rejects = 0;
    merges = 0;
    memo = None;
  }

let usable si w = w.conn <> None && not si.incomplete.(w.wid)

let open_request name (si : session_info) =
  P.Open
    {
      session = name;
      family = si.family;
      epsilon = si.epsilon;
      delta = si.delta;
      log2_universe = si.log2_universe;
    }

(* --- worker lifecycle: connect, quarantine on death --- *)

(* Park one of [w]'s sets in its session's waiting FIFO, for [place] to
   stage again.  [w] missed it, so [w] is incomplete for the session
   whenever a complete peer is connected to take it instead. *)
let park t w session payload ts =
  Option.iter
    (fun si ->
      Queue.push (payload, ts) si.waiting;
      if List.exists (usable si) si.members then si.incomplete.(w.wid) <- true)
    (Hashtbl.find_opt t.sessions session)

(* A failure only records: the connection closes, the worker sits out a
   jittered exponential backoff, its unanswered asks fail, and everything
   it still owed — unacked frames first, then the never-sent staging queue
   — is parked.  Nothing is routed from here; [place] does that. *)
let quarantine t w =
  (match w.conn with Some c -> Rpc.close c | None -> ());
  w.conn <- None;
  w.failures <- w.failures + 1;
  let pause = Float.min 30.0 (t.backoff *. Float.ldexp 1.0 w.failures) in
  (* ±25% jitter: workers felled by one event (a restarting shard host, a
     network hiccup) must not retry in lockstep and re-fail together *)
  let pause = pause *. (0.75 +. (0.5 *. Rng.float t.rng)) in
  w.quarantined_until <- Unix.gettimeofday () +. pause;
  Log.warn (fun m ->
      m "worker %s quarantined for %.2fs (%d consecutive failures)" (address w) pause
        w.failures);
  Queue.iter
    (function
      | Ask slot -> slot := Some (Error "connection lost before the reply")
      | Frame b -> Array.iter (fun payload -> park t w b.bsession payload b.bts) b.bitems)
    w.pending;
  Queue.iter (fun (session, payload, ts) -> park t w session payload ts) w.staged;
  Queue.clear w.pending;
  Queue.clear w.staged;
  w.in_flight <- 0

(* Retire frame [b], the oldest owed on [w], against its [OKB] reply. *)
let retire_ack t w b reply =
  w.in_flight <- w.in_flight - Array.length b.bitems;
  let si = Hashtbl.find_opt t.sessions b.bsession in
  let reject n = Option.iter (fun si -> si.rejects <- si.rejects + n) si in
  match reply with
  | P.Ok_batch { accepted = _; errors } -> reject (List.length errors)
  | P.Error_reply (P.Fenced cur) ->
    (* A newer primary fenced us mid-stream.  The frame is NOT re-routed:
       every worker enforces the same fence, and the payloads now belong
       to whoever holds the higher epoch.  Recording [fenced_by] makes
       every later mutation fail fast at the front door. *)
    if cur > t.fenced_by then t.fenced_by <- cur;
    Log.warn (fun m ->
        m "worker %s: ingest fenced by epoch %d — coordinator deposed" (address w) cur);
    reject (Array.length b.bitems)
  | P.Error_reply e ->
    (* Refused whole without being ingested — typically UNKNOWN-SESSION
       from a worker that lost the session.  Counting the frame delivered
       would silently lose its payloads: a replica that refused is no
       longer complete, and the payloads are parked for [place]. *)
    Log.warn (fun m ->
        m "worker %s: ingest refused (%s) — parking %d payload(s)" (address w)
          (P.describe_error e) (Array.length b.bitems));
    Option.iter (fun si -> si.incomplete.(w.wid) <- true) si;
    Array.iter (fun payload -> park t w b.bsession payload b.bts) b.bitems
  | r ->
    (* non-error, non-ack: the reply stream itself is suspect *)
    Log.warn (fun m ->
        m "worker %s: unexpected ingest ack %s" (address w) (P.render_response r))

(* Read one reply on [w]'s connection and retire the head of [w.pending]
   with it.  A failed read quarantines [w], which parks everything it
   still owes. *)
let read_reply ?deadline t w conn =
  match Rpc.recv_timeout ?deadline conn with
  | Ok reply ->
    (match Queue.take_opt w.pending with
    | Some (Ask slot) -> slot := Some (Ok reply)
    | Some (Frame b) -> retire_ack t w b reply
    | None -> () (* unreachable: a reply is only read while one is owed *));
    Ok ()
  | Error e ->
    let msg = Rpc.describe_recv_error e in
    Log.warn (fun m -> m "worker %s: reply lost: %s" (address w) msg);
    quarantine t w;
    Error msg

(* Read reply lines until at most [down_to] payload units remain unacked.
   One reply retires one whole frame (or fills an ask's slot).  On failure
   the unacked frames are parked and later staged again: at-least-once, and
   a set seen twice by one estimator is a duplicate the union ignores. *)
let rec drain_acks t w ~down_to =
  if w.in_flight > down_to then
    match w.conn with
    | None -> quarantine t w
    | Some conn -> if Result.is_ok (read_reply t w conn) then drain_acks t w ~down_to

(* Read [w]'s replies in order until [slot] is filled, retiring whatever is
   owed ahead of it.  Without [deadline] each read gets the connection's
   own budget. *)
let rec await ?deadline t w slot =
  match (!slot, w.conn) with
  | Some r, _ -> r
  | None, None -> Error "connection lost"
  | None, Some conn -> (
    match read_reply ?deadline t w conn with
    | Ok () -> await ?deadline t w slot
    | Error _ as e -> e)

(* A replica copy ships as a backup (ADDL, whose parse errors the worker
   does not report back) unless [w] is the session's first usable replica,
   so each reject is counted once. *)
let backup t session w =
  match Hashtbl.find_opt t.sessions session with
  | None -> false
  | Some si -> (
    match List.find_opt (usable si) si.members with Some p -> p != w | None -> false)

(* Ship what is staged on the connection as one coalesced write.  It is
   already owed in [w.pending], so a transport failure parks it via the
   quarantine path. *)
let write_staged t w conn =
  match Rpc.flush_staged conn with
  | Ok () -> ()
  | Error msg ->
    Log.warn (fun m -> m "worker %s: flush failed: %s" (address w) msg);
    quarantine t w

(* Frame [w.staged] into requests — consecutive same-session runs of up to
   [t.batch] payloads each: ADDL for a backup copy, otherwise ADDB — stage
   them all on the connection, each owing its ack in [w.pending], and ship
   the accumulation as one write. *)
let flush_worker t w =
  if not (Queue.is_empty w.staged) then
    match w.conn with
    | None -> () (* unreachable: a death parks the staging queue *)
    | Some conn ->
      while not (Queue.is_empty w.staged) do
        let s0, p0, ts0 = Queue.pop w.staged in
        let items = ref [ p0 ] in
        let count = ref 1 in
        let same_run = ref true in
        (* an ADDB/ADDL frame carries one t=, so only same-timestamp runs
           batch *)
        while !same_run && !count < t.batch do
          match Queue.peek_opt w.staged with
          | Some (s, _, ts) when String.equal s s0 && ts = ts0 ->
            let _, p, _ = Queue.pop w.staged in
            items := p :: !items;
            incr count
          | _ -> same_run := false
        done;
        let payloads = List.rev !items in
        let bitems = Array.of_list payloads in
        let req =
          if backup t s0 w then P.Add_log { session = s0; payloads; ts = ts0 }
          else P.Add_batch { session = s0; payloads; ts = ts0 }
        in
        Rpc.stage conn req;
        Queue.push (Frame { bsession = s0; bts = ts0; bitems }) w.pending;
        w.in_flight <- w.in_flight + Array.length bitems
      done;
      write_staged t w conn

(* Ship [w]'s staged frames, then keep the pipe at most [t.window] units
   deep: past it, drain down to half the window so the pipe never fully
   stalls.  This bounds what a gather waits for on one worker. *)
let ship_worker t w =
  flush_worker t w;
  if w.conn <> None && w.in_flight >= t.window then
    drain_acks t w ~down_to:(t.window / 2)

(* Send [req] on [w]'s connection behind its staged payloads and return
   the slot its reply will fill.  The ask owes its reply in [w.pending] like
   any frame, so nothing needs draining first.  The payloads' frames go in
   their own write: a worker answers the requests of one read together, so
   an ack coalesced with a slow ask would wait for it. *)
let ask t w req =
  flush_worker t w;
  let slot = ref None in
  (match w.conn with
  | None -> slot := Some (Error "not connected")
  | Some conn ->
    Rpc.stage conn req;
    Queue.push (Ask slot) w.pending;
    write_staged t w conn);
  slot

(* Synchronous round trip on [w]'s connection: stage, then read until the
   slot fills.  On transport failure the worker is quarantined here;
   callers only decide fallback. *)
let call_sync t w req = await t w (ask t w req)

(* After every connect: re-open every session.  The OPEN replies say which
   replicas are incomplete, so nothing needs to know whether the same
   process answered.  SESSION-EXISTS means the worker kept (or recovered)
   the session, and the OPEN changed nothing.  An OPEN that succeeds on a
   worker this coordinator reached before means the process came back
   without the session, so its replica copy is incomplete.  This costs one
   round trip per session on every reconnect, connection blips included. *)
let reopen t (w : worker) conn =
  let ok = ref true in
  Hashtbl.iter
    (fun name (si : session_info) ->
      if !ok then
        match Rpc.call conn (open_request name si) with
        | Ok (P.Ok_reply _) ->
          if w.serial > 0 && List.memq w si.members then begin
            Log.info (fun m ->
                m "worker %s came back without %s: its replica is incomplete" (address w) name);
            si.incomplete.(w.wid) <- true
          end
        | Ok (P.Error_reply (P.Session_exists _)) -> ()
        | Ok r ->
          Log.warn (fun m ->
              m "worker %s: re-open of %s failed: %s" (address w) name
                (P.render_response r));
          ok := false
        | Error msg ->
          Log.warn (fun m -> m "worker %s: re-open of %s failed: %s" (address w) name msg);
          ok := false)
    t.sessions;
  !ok

(* Rejoin.  HELLO reads the worker's fencing epoch, the floor a takeover
   must clear.  A primary then re-opens every session; a standby writes
   nothing to workers, or a primary reconnecting later would read
   SESSION-EXISTS from a copy the standby re-created empty.  A replica
   that missed payloads while away is replaced afterwards
   ([repair_around]). *)
let resync t w conn =
  match Rpc.call conn P.Hello with
  | Ok (P.Epoch_reply { epoch }) ->
    if epoch > t.max_worker_epoch then t.max_worker_epoch <- epoch;
    t.read_only || reopen t w conn
  | Ok r ->
    Log.warn (fun m ->
        m "worker %s: HELLO answered %s" (address w) (P.render_response r));
    false
  | Error msg ->
    Log.warn (fun m -> m "worker %s: HELLO failed: %s" (address w) msg);
    false

(* Stamp a fresh connection with the coordinator's fencing epoch before any
   state-changing traffic rides it.  A FENCED refusal means a higher epoch
   (a standby that took over) owns the pool: this coordinator is deposed and
   records the fact rather than fight the new primary. *)
let announce_epoch_on t w call =
  if t.epoch = 0 then true
  else
    match call (P.Coord_epoch { epoch = t.epoch }) with
    | Ok (P.Epoch_reply _) -> true
    | Ok (P.Error_reply (P.Fenced cur)) ->
      if cur > t.fenced_by then t.fenced_by <- cur;
      Log.warn (fun m ->
          m "worker %s: epoch %d fenced by %d — this coordinator is deposed"
            (address w) t.epoch cur);
      false
    | Ok r ->
      Log.warn (fun m ->
          m "worker %s: COORD answered %s" (address w) (P.render_response r));
      false
    | Error msg ->
      Log.warn (fun m -> m "worker %s: COORD failed: %s" (address w) msg);
      false

(* Overwrite replica [w]'s copy of [name] with a complete one: CLOSE, OPEN,
   then MERGE of a complete peer's freshly fetched token.  Never a merge
   into what [w] still holds — that may overlap the peer's copy, and a
   VATIC fold counts an element seen by two estimators twice as often.
   When every replica is incomplete the session's last good token is the
   best copy left.  While a complete replica exists but is down, [w]
   waits for it. *)
let replace t si name w =
  let source =
    match List.find_opt (fun p -> p != w && usable si p) si.members with
    | Some p -> (
      match call_sync t p (P.Fetch { session = name; cutoff = None }) with
      | Ok (P.Sketch token) -> `Copy (Some token)
      | Ok _ | Error _ -> `Wait)
    | None when List.for_all (fun p -> si.incomplete.(p.wid)) si.members -> `Copy si.last_good
    | None -> `Wait
  in
  match source with
  | `Wait -> ()
  | `Copy token ->
    let step req =
      match call_sync t w req with
      | Ok (P.Ok_reply _) -> true
      | Ok (P.Error_reply (P.Unknown_session _)) -> ( match req with P.Close _ -> true | _ -> false)
      | Ok r ->
        Log.warn (fun m ->
            m "worker %s: replacing %s: %s" (address w) name (P.render_response r));
        false
      | Error _ -> false
    in
    let steps =
      P.Close { session = name }
      :: open_request name si
      :: Option.to_list (Option.map (fun encoded -> P.Merge { session = name; encoded }) token)
    in
    if List.for_all step steps then begin
      si.incomplete.(w.wid) <- false;
      Log.info (fun m -> m "worker %s: replica of %s replaced" (address w) name)
    end

(* Replace every connected, incomplete replica of [name].  A standby reads
   worker state but never rewrites it. *)
let repair t si name =
  if not t.read_only then
    List.iter
      (fun p -> if p.conn <> None && si.incomplete.(p.wid) then replace t si name p)
      si.members

(* After [w] rejoins, repair the sessions it serves: [w] itself may be
   incomplete, or its peers may have been waiting for a complete copy such
   as [w]'s. *)
let repair_around t w =
  Hashtbl.iter (fun name si -> if List.memq w si.members then repair t si name) t.sessions

(* The worker's connection if it is usable now: an existing one, or one
   dial with connect-announce-resync-repair.  [None] while quarantined or
   unreachable.  Any failure quarantines at once, so the quarantine's
   backoff is the one retry schedule: nothing here sleeps on the caller's
   thread. *)
let ensure_conn t w =
  match w.conn with
  | Some c -> Some c
  | None when Unix.gettimeofday () < w.quarantined_until -> None
  | None -> (
    match
      Rpc.connect ~io:t.io ~dial_timeout:t.dial_timeout ~host:w.host ~port:w.port
        ~timeout:t.timeout ()
    with
    | Ok conn ->
      if announce_epoch_on t w (Rpc.call conn) && resync t w conn then begin
        w.conn <- Some conn;
        w.serial <- w.serial + 1;
        w.failures <- 0;
        w.quarantined_until <- 0.0;
        repair_around t w;
        w.conn
      end
      else begin
        Rpc.close conn;
        quarantine t w;
        None
      end
    | Error err ->
      Log.warn (fun m ->
          m "worker %s unreachable: %s" (address w) (Rpc.describe_connect_error err));
      quarantine t w;
      None)

(* Take over a session whose placement history this coordinator never saw
   (an earlier owner routed it): each replica is read once.  The fullest
   copy by item count becomes the last good token; a replica below it, or
   silent, is incomplete and is replaced from a complete peer, now or at
   its reconnect.  With no replica answering the flags stay as they
   are. *)
let adopt t si name =
  let fetch w = call_sync t w (P.Fetch { session = name; cutoff = None }) in
  let read w =
    match Option.map (fun _ -> fetch w) (ensure_conn t w) with
    | Some (Ok (P.Sketch tok)) ->
      Result.to_option (Result.map (fun io -> ((Io.header io).Io.items, tok)) (Io.of_wire tok))
    | _ -> None
  in
  let copies = List.map (fun w -> (w, read w)) si.members in
  match List.fold_left (fun best (_, c) -> max best c) None copies with
  | None -> ()
  | Some (top, token) ->
    si.last_good <- Some token;
    List.iter (fun (w, c) -> si.incomplete.(w.wid) <- Option.map fst c <> Some top) copies;
    repair t si name

(* --- placement: a session's payloads go to its usable replicas --- *)

let find_session t name =
  match Hashtbl.find_opt t.sessions name with
  | Some si -> Ok si
  | None -> Error (P.Unknown_session name)

(* Where a session's next payload (or MERGE) goes: every usable replica of
   its window, and a replica left out is marked incomplete.  [] when no
   replica is usable: the payload then waits in the session's FIFO, and no
   replica is marked, since none took anything its peers lack.  [dial:false]
   counts only the connections already open. *)
let targets ?(dial = true) t si =
  let reachable w = if dial then Option.is_some (ensure_conn t w) else w.conn <> None in
  let live = List.filter (fun w -> reachable w && not si.incomplete.(w.wid)) si.members in
  if live <> [] then
    List.iter (fun w -> if not (List.memq w live) then si.incomplete.(w.wid) <- true) si.members;
  live

(* Stage one payload on [ws].  A worker is shipped when its staging
   reaches the batch high-water mark, and [add_batch] ships every worker
   before it returns.  A target that died since it was picked missed the
   payload, so it is incomplete; with none left alive the payload waits. *)
let stage t si ws name payload ~ts =
  if List.exists (fun w -> w.conn <> None) ws then
    List.iter
      (fun w ->
        if w.conn = None then si.incomplete.(w.wid) <- true
        else begin
          Queue.push (name, payload, ts) w.staged;
          if Queue.length w.staged >= t.batch then ship_worker t w
        end)
      ws
  else Queue.push (payload, ts) si.waiting

(* The session's [targets], with its waiting sets staged on them first,
   oldest first, so whatever is staged next lands behind them.  With no
   target the sets keep waiting.  Only what waits now is released: a death
   while it ships parks that worker's window in the FIFO again, for a later
   release.  This is the one re-route: a failure only parks, and every set
   that is staged again is staged from here. *)
let place ?dial t si name =
  let ws = targets ?dial t si in
  if ws <> [] && not (Queue.is_empty si.waiting) then begin
    let items = List.of_seq (Queue.to_seq si.waiting) in
    Queue.clear si.waiting;
    List.iter (fun (payload, ts) -> stage t si ws name payload ~ts) items
  end;
  ws

(* Release [name]'s waiting sets if a complete replica is usable.  A
   session with nothing waiting is left alone: picking targets would mark
   a down replica incomplete although nothing was placed without it. *)
let release ?dial t name si =
  if not (Queue.is_empty si.waiting) then ignore (place ?dial t si name)

(* Sets waiting across every session: a drain that parks some grows it. *)
let waiting_sets t = Hashtbl.fold (fun _ si n -> n + Queue.length si.waiting) t.sessions 0

(* Mutations are refused while this coordinator may not own the pool: a
   warm standby answers queries only, and a deposed primary's writes are
   already dying at every worker's fence — failing fast here keeps the
   client's error honest instead of half-ingesting a batch. *)
let mutation_guard t =
  if t.read_only then Error (P.Read_only "standby")
  else if t.fenced_by > t.epoch then Error (P.Fenced t.fenced_by)
  else Ok ()

(* Route one fresh payload behind the session's waiting sets, or park it
   with them when no replica is usable.  It is refused once [t.window] sets
   wait, or when dialing the replicas found this coordinator fenced. *)
let route t si name payload ~ts =
  match place t si name with
  | [] ->
    let admitted =
      Result.bind (mutation_guard t) (fun () ->
          if Queue.length si.waiting < t.window then Ok ()
          else
            Error
              (P.Server_error
                 (Printf.sprintf "session %s: %d sets already wait for an unreachable replica"
                    name t.window)))
    in
    Result.map (fun () -> Queue.push (payload, ts) si.waiting) admitted
  | ws ->
    stage t si ws name payload ~ts;
    Ok ()

(* --- public operations --- *)

let broadcast t req ~accept =
  let failures = ref [] in
  Array.iter
    (fun w ->
      match ensure_conn t w with
      | None -> failures := address w :: !failures
      | Some _ -> (
        match call_sync t w req with
        | Ok r when accept r -> ()
        | Ok r ->
          failures := Printf.sprintf "%s (%s)" (address w) (P.render_response r) :: !failures
        | Error msg ->
          failures := Printf.sprintf "%s (%s)" (address w) msg :: !failures))
    t.workers;
  !failures

(* OPEN goes to every worker, so a standby can rebuild the session table
   from any one.  The session is
   registered after the broadcast: a worker that missed it is re-opened
   (and its replica replaced) when it rejoins. *)
let open_session t ~name ~family ~epsilon ~delta ~log2_universe =
  with_lock t (fun () ->
      match mutation_guard t with
      | Error e -> Error e
      | Ok () ->
      if Hashtbl.mem t.sessions name then Error (P.Session_exists name)
      else begin
        let existed = ref false in
        let failures =
          broadcast t
            (P.Open { session = name; family; epsilon; delta; log2_universe })
            ~accept:(function
              | P.Ok_reply _ -> true
              | P.Error_reply (P.Session_exists _) ->
                existed := true;
                true
              | _ -> false)
        in
        let live =
          Array.fold_left (fun n w -> if w.conn <> None then n + 1 else n) 0 t.workers
        in
        if live = 0 then
          Error
            (P.Server_error
               (Printf.sprintf "no reachable workers: %s" (String.concat ", " failures)))
        else begin
          let si = new_session t name ~family ~epsilon ~delta ~log2_universe in
          Hashtbl.replace t.sessions name si;
          if !existed then adopt t si name;
          Ok ()
        end
      end)

let add ?ts t ~name ~payload =
  with_lock t (fun () ->
      match Result.bind (mutation_guard t) (fun () -> find_session t name) with
      | Error e -> Error e
      | Ok si -> route t si name payload ~ts)

(* A whole client ADDB frame routed under one lock acquisition.  Every
   payload of a session goes to the same replicas, so the frame re-batches
   there whole.  The frame is already a batch, so nothing is held back:
   every worker with staged frames is shipped before the call returns, and
   the sets reach the worker estimators without waiting for a read.  What
   a drain parks meanwhile waits for the next [place]. *)
let add_batch ?ts t ~name ~payloads =
  with_lock t (fun () ->
      match Result.bind (mutation_guard t) (fun () -> find_session t name) with
      | Error e -> Error e
      | Ok si ->
        let accepted = ref 0 in
        let errors = ref [] in
        List.iteri
          (fun i payload ->
            match route t si name payload ~ts with
            | Ok () -> incr accepted
            | Error e -> errors := (i, P.describe_error e) :: !errors)
          payloads;
        Array.iter (fun w -> if not (Queue.is_empty w.staged) then ship_worker t w) t.workers;
        Ok (!accepted, List.rev !errors))

let flush t =
  (* Settle to quiescence: waiting sets are released onto the replicas
     connected now (nothing is dialed), and draining can park more, so
     repeat while a drain parks anything (bounded — a death or a refusal
     takes its replica out of the targets, so a set no replica takes ends
     up waiting). *)
  let rec go attempts =
    Hashtbl.iter (release ~dial:false t) t.sessions;
    let before = waiting_sets t in
    Array.iter
      (fun w ->
        flush_worker t w;
        if w.conn <> None then drain_acks t w ~down_to:0)
      t.workers;
    if attempts > 0 && waiting_sets t > before then go (attempts - 1)
  in
  go (Array.length t.workers + 2)

(* Ask one replica of [name] for [req w]'s answer.

   The replicas are dialed once and an incomplete one is replaced.  Before
   each replica is asked, the session's waiting sets are released onto the
   complete ones (nothing more is dialed), so the ask queues behind them:
   a replica that died mid-read has its window on the next one before that
   one's ask goes out.  The first usable replica in ring order is asked,
   falling to the next one if it fails, all under one absolute deadline.
   Each ask owes its reply in its worker's FIFO, so collecting it retires
   the acks owed ahead of it.  A replica is only asked while
   budget remains, and gets an equal share of it with the usable replicas
   after it, so a hung home leaves its peer the time to answer fresh.
   [accept w reply] turns a reply into the answer; a reply it refuses
   (e.g. UNKNOWN-SESSION from a worker that lost the session) marks the
   replica incomplete.  [None] when no replica answered. *)
let ask_replicas t si name ~req ~accept =
  List.iter (fun w -> ignore (ensure_conn t w)) si.members;
  repair t si name;
  let deadline = Unix.gettimeofday () +. t.timeout in
  let rec read = function
    | [] -> None
    | w :: rest -> (
      release ~dial:false t name si;
      let now = Unix.gettimeofday () in
      let share = float (List.length (List.filter (usable si) (w :: rest))) in
      if not (usable si w && now < deadline) then read rest
      else
        match await ~deadline:(now +. ((deadline -. now) /. share)) t w (ask t w (req w)) with
        | Error _ -> read rest
        | Ok r -> (
          match accept w r with
          | Some answer -> Some answer
          | None ->
            Log.warn (fun m -> m "worker %s answered %s" (address w) (P.render_response r));
            si.incomplete.(w.wid) <- true;
            read rest))
  in
  read si.members

(* A token that would not decode is no fresher than no token. *)
let decode name token =
  match Io.of_wire token with
  | Ok io -> Some io
  | Error msg ->
    Log.warn (fun m -> m "session %s: bad sketch: %s" name msg);
    None

let rebuild t si io =
  si.merges <- (Io.header io).Io.merges;
  Result.map_error (fun msg -> P.Server_error msg) (Families.of_io io ~seed:(next_seed t))

(* The session's last good token, rebuilt: what a read answers from when no
   replica does. *)
let fallback t si name =
  match Option.bind si.last_good (decode name) with
  | None -> Error (P.Server_error "no replica holds any data for this session")
  | Some io -> rebuild t si io

(* Read one copy of [name] as a sketch.  The fetch names the version of the
   token the memo holds from that worker on that connection, and an idle
   worker answers UNCHANGED.  A fresh token becomes the last good one; when
   none comes, the last good token stands in and the home goes to
   [stale_shards].  The token decodes verbatim: a healthy cluster answers
   exactly what one estimator would. *)
let gather t si name =
  let held w =
    match si.memo with
    | Some (h, _) when h.from = w.wid && h.serial = w.serial -> Some h
    | _ -> None
  in
  let req w =
    let since = match held w with Some h -> h.version | None -> 0 in
    P.Fetch_since { session = name; cutoff = None; since }
  in
  let accept w = function
    | P.Sketch_at { version; token = Some token } ->
      Some { from = w.wid; serial = w.serial; version; token }
    | P.Sketch_at { version; token = None }
      when Option.map (fun h -> h.version) (held w) = Some version ->
      (* the memo's token stands for the answer *)
      held w
    | _ -> None
  in
  match (ask_replicas t si name ~req ~accept, si.memo) with
  | Some h, Some (prev, sketch) when prev == h -> Ok (sketch, false, [])
  | replica, _ -> (
    match Option.bind replica (fun h -> Option.map (fun io -> (h, io)) (decode name h.token)) with
    | Some (h, io) ->
      si.last_good <- Some h.token;
      Result.map
        (fun sketch ->
          si.memo <- Some (h, sketch);
          (sketch, false, []))
        (rebuild t si io)
    | None -> Result.map (fun sketch -> (sketch, true, [ si.home ])) (fallback t si name))

(* Gather [name] under the lock and hand the session and its sketch to [f]. *)
let gathered t name f =
  with_lock t (fun () ->
      Result.bind (find_session t name) (fun si -> Result.bind (gather t si name) (f si)))

let estimate t ~name =
  gathered t name (fun si (sketch, degraded, stale_shards) ->
      let value = Families.estimate sketch in
      si.last_estimate <- value;
      Ok (value, degraded, stale_shards))

(* Ask a replica [req] under the lock.  When none answers, [degraded] gets
   the session's rebuilt last good token instead. *)
let forwarded t name ~req ~accept ~degraded =
  with_lock t (fun () ->
      Result.bind (find_session t name) (fun si ->
          match ask_replicas t si name ~req:(fun _ -> req) ~accept:(fun _ r -> accept si r) with
          | Some answer -> Ok answer
          | None -> Result.map (degraded si) (fallback t si name)))

(* The query instant is pinned here, so a replica and a degraded fallback
   expire against the same one. *)
let win t ~name ~seconds ~at =
  let at = match at with Some a -> a | None -> t.clock () in
  forwarded t name
    ~req:(P.Win { session = name; seconds; at = Some at })
    ~accept:(fun _ -> function P.Estimate { value; _ } -> Some (value, false, []) | _ -> None)
    ~degraded:(fun si sketch ->
      (Families.estimate_window sketch ~cutoff:(at -. seconds), true, [ si.home ]))

(* The replica's figures, with the two that only this coordinator sees: the
   rejects its acks listed and the estimate it last answered. *)
let stats t ~name =
  let overlay si (s : P.stats) =
    { s with last_estimate = si.last_estimate; parse_rejects = si.rejects }
  in
  forwarded t name
    ~req:(P.Stats { session = name })
    ~accept:(fun si -> function P.Stats_reply s -> Some (overlay si s) | _ -> None)
    ~degraded:(fun si sketch ->
      {
        P.family = Families.family_token sketch;
        items = Families.items sketch;
        entries = Families.entries sketch;
        exact = Families.is_exact sketch;
        last_estimate = si.last_estimate;
        parse_rejects = si.rejects;
        merges = si.merges;
      })

(* An EXPR query needs no new worker verb: each leaf session is gathered
   exactly as EST gathers it — same degraded/last-good fallback, same
   per-session memo — and the evaluation (Families.eval_expr, which
   folds the leaves into a union only while every leaf is exact) runs
   coordinator-side on the gathered sketches.  The answer is degraded iff
   any leaf's gather was.

   [w] windows the query: each leaf still gathers un-windowed (sharing EST's
   memo and refreshing last_good), then the coordinator restricts it
   against one cutoff computed up front — so all leaves, and any stale
   fallback inside them, see the same instant. *)
let expr_query ?w t ~expr ~m =
  with_lock t (fun () ->
      match Delphic_server.Registry.expr_plan ~expr ~m with
      | Error e -> Error e
      | Ok (names, samples) ->
        let cutoff =
          match w with
          | Some secs when Float.is_finite secs -> Some (t.clock () -. secs)
          | Some _ | None -> None
        in
        let leaf name =
          match find_session t name with
          | Error e -> Error e
          | Ok si -> (
            match (gather t si name, cutoff) with
            | Error e, _ -> Error e
            | Ok (sketch, degraded, _), None -> Ok (sketch, degraded)
            | Ok (sketch, degraded, _), Some c -> (
              match Families.restrict sketch ~cutoff:c ~seed:(next_seed t) with
              | Ok r -> Ok (r, degraded)
              | Error msg -> Error (P.Server_error msg)))
        in
        let rec eval acc degraded = function
          | [] -> (
            match Families.eval_expr ~leaves:(List.rev acc) ~expr ~samples ~seed:(next_seed t) with
            | Ok outcome -> Ok (outcome, degraded)
            | Error msg -> Error (P.Bad_params msg))
          | name :: rest -> (
            match leaf name with
            | Error e -> Error e
            | Ok (f, d) -> eval ((name, f) :: acc) (degraded || d) rest)
        in
        eval [] false names)

(* The gather is un-windowed; [cutoff] restricts what is encoded. *)
let fetch ?cutoff t ~name =
  gathered t name (fun si (sketch, _, _) ->
      Result.map_error
        (fun msg -> P.Server_error msg)
        (Families.encode ~merges:si.merges ?cutoff sketch))

let snapshot_to t ~name ~path =
  gathered t name (fun si (sketch, _, _) ->
      match Io.save ~path (Families.to_io ~merges:si.merges sketch) with
      | () -> Ok ()
      | exception Sys_error msg -> Error (P.Io_error msg)
      | exception Invalid_argument msg -> Error (P.Server_error msg))

(* An external sketch joins the session on every usable replica — each copy
   must stay complete — and is refused while none is usable.  Its elements
   carry coins independent of the session's own, so this fold is the one
   where the merge caveat (DESIGN.md §3) applies. *)
let merge_in t ~name ~encoded =
  with_lock t (fun () ->
      match Result.bind (mutation_guard t) (fun () -> find_session t name) with
      | Error e -> Error e
      | Ok si -> (
        let merge w =
          match call_sync t w (P.Merge { session = name; encoded }) with
          | Ok (P.Ok_reply _) -> Ok ()
          | Ok (P.Error_reply e) -> Error e
          | Ok r -> Error (P.Server_error ("unexpected MERGE reply " ^ P.render_response r))
          | Error msg ->
            Log.warn (fun m -> m "worker %s: MERGE failed: %s" (address w) msg);
            Error (P.Server_error msg)
        in
        match List.map (fun w -> (w, merge w)) (targets t si) with
        | [] -> Error (P.Server_error (Printf.sprintf "session %s: no replica is reachable" name))
        | results when List.exists (fun (_, r) -> Result.is_ok r) results ->
          List.iter
            (fun (w, r) -> if Result.is_error r then si.incomplete.(w.wid) <- true)
            results;
          Ok ()
        | (_, first) :: _ -> first))

let close t ~name =
  with_lock t (fun () ->
      match Result.bind (mutation_guard t) (fun () -> find_session t name) with
      | Error e -> Error e
      | Ok si ->
        flush t;
        ignore
          (broadcast t
             (P.Close { session = name })
             ~accept:(function
               | P.Ok_reply _ | P.Error_reply (P.Unknown_session _) -> true
               | _ -> false));
        if not (Queue.is_empty si.waiting) then
          Log.info (fun m ->
              m "session %s closed with %d waiting set(s) dropped" name
                (Queue.length si.waiting));
        Hashtbl.remove t.sessions name;
        Ok ())

let live_workers t =
  with_lock t (fun () ->
      Array.fold_left (fun n w -> if w.conn <> None then n + 1 else n) 0 t.workers)

(* Per ring position, the live replicas of its window that are complete for
   every session homed there. *)
let shard_freshness t =
  with_lock t (fun () ->
      let n = Array.length t.workers in
      List.init n (fun pos ->
          let complete w =
            w.conn <> None
            && Hashtbl.fold
                 (fun _ si ok -> ok && (si.home <> pos || not si.incomplete.(w.wid)))
                 t.sessions true
          in
          List.length
            (List.filter complete (List.init t.replicas (fun j -> t.workers.((pos + j) mod n))))))

let epoch t = with_lock t (fun () -> t.epoch)

let is_fenced t = with_lock t (fun () -> t.fenced_by > t.epoch)

(* Promotion re-derives every session's placement from the workers: a
   standby never saw which replicas the old primary skipped. *)
let set_read_only t flag =
  with_lock t (fun () ->
      let promote = t.read_only && not flag in
      t.read_only <- flag;
      if promote then Hashtbl.iter (fun name si -> adopt t si name) t.sessions)

(* The floor a takeover epoch must clear: everything this coordinator has
   ever announced, been fenced by, or seen a worker carry.  Probes every
   quarantine-free worker so a standby that has been idle still learns the
   deposed primary's epoch from the workers (they are the durable truth). *)
let max_known_epoch t =
  with_lock t (fun () ->
      Array.iter (fun w -> ignore (ensure_conn t w)) t.workers;
      Stdlib.max t.epoch (Stdlib.max t.fenced_by t.max_worker_epoch))

(* Adopt [epoch] and stamp every live worker connection with it; fresh
   connections are stamped by [ensure_conn].  Returns the number of workers
   that accepted the stamp. *)
let announce_epoch t ~epoch =
  with_lock t (fun () ->
      if epoch < t.epoch then
        invalid_arg "Coordinator.announce_epoch: epoch must not decrease";
      t.epoch <- epoch;
      if t.fenced_by <= epoch then t.fenced_by <- 0;
      let accepted = ref 0 in
      Array.iter
        (fun w ->
          match ensure_conn t w with
          | None -> ()
          | Some _ ->
            if announce_epoch_on t w (call_sync t w) then incr accepted
            else if w.conn <> None then quarantine t w)
        t.workers;
      !accepted)

(* Rebuild the session table from the workers — a standby's takeover path.
   No coordinator journal exists, and none is needed: every OPEN was
   broadcast to the whole pool, so the union of every reachable worker's
   SESSIONS recovers the full table (first description wins; the parameters
   are identical across workers by construction).  Sessions already known
   locally are kept as-is. *)
let sync_sessions t =
  with_lock t (fun () ->
      let added = ref 0 in
      Array.iter
        (fun w ->
          match ensure_conn t w with
          | None -> ()
          | Some _ -> (
            match call_sync t w P.Sessions with
            | Ok (P.Sessions_reply descs) ->
              List.iter
                (fun (d : P.session_desc) ->
                  if not (Hashtbl.mem t.sessions d.P.sd_name) then
                    match P.family_of_token d.P.sd_family with
                    | Error _ ->
                      Log.warn (fun m ->
                          m "worker %s: session %s has unknown family %S — skipped"
                            (address w) d.P.sd_name d.P.sd_family)
                    | Ok family ->
                      incr added;
                      Hashtbl.replace t.sessions d.P.sd_name
                        (new_session t d.P.sd_name ~family ~epsilon:d.P.sd_epsilon
                           ~delta:d.P.sd_delta ~log2_universe:d.P.sd_log2_universe))
                descs
            | Ok r ->
              Log.warn (fun m ->
                  m "worker %s: SESSIONS answered %s" (address w) (P.render_response r));
              quarantine t w
            | Error msg ->
              Log.warn (fun m -> m "worker %s: SESSIONS failed: %s" (address w) msg)))
        t.workers;
      !added)

let session_descs t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun name (si : session_info) acc ->
          {
            P.sd_name = name;
            sd_family = P.family_to_token si.family;
            sd_epsilon = si.epsilon;
            sd_delta = si.delta;
            sd_log2_universe = si.log2_universe;
          }
          :: acc)
        t.sessions []
      |> List.sort (fun a b -> compare a.P.sd_name b.P.sd_name))

let shutdown t =
  with_lock t (fun () ->
      (* the last chance for waiting sets: dial each of their replicas
         once more, quarantined or not *)
      Hashtbl.iter
        (fun name si ->
          if not (Queue.is_empty si.waiting) then begin
            List.iter (fun w -> w.quarantined_until <- 0.0) si.members;
            release t name si
          end)
        t.sessions;
      flush t;
      let lost = waiting_sets t in
      if lost > 0 then
        Log.warn (fun m -> m "shutdown loses %d set(s) still waiting for a replica" lost);
      Array.iter
        (fun w ->
          (match w.conn with Some c -> Rpc.close c | None -> ());
          w.conn <- None)
        t.workers)

let dispatch t (req : P.request) : P.response =
  let reply = function Ok r -> r | Error e -> P.Error_reply e in
  match req with
  | P.Ping -> P.Pong
  (* the fencing epoch, which a standby probes for *)
  | P.Hello -> P.Epoch_reply { epoch = epoch t }
  (* Only the gather freshness is the coordinator's to report; the front
     door lays its connection figures over the zeros. *)
  | P.Server_stats ->
    P.Server_stats_reply
      {
        conns = 0;
        shed = 0;
        dispatched = [];
        wal_queue = 0;
        wal_last_group = 0;
        wal_groups = 0;
        shard_fresh = shard_freshness t;
      }
  (* COORD stamps a *worker* connection; announcing an epoch to a
     coordinator is a topology error. *)
  | P.Coord_epoch _ -> P.Error_reply (P.Unknown_command "COORD")
  | P.Sessions -> P.Sessions_reply (session_descs t)
  (* The lease a standby polls: who is primary here, at what epoch.  Served
     from plain field reads under the lock — it must stay cheap and
     gather-free so a busy primary still renews on time. *)
  | P.Lease ->
    with_lock t (fun () ->
        P.Lease_reply { epoch = t.epoch; primary = not t.read_only })
  | P.Open { session; family; epsilon; delta; log2_universe } ->
    reply
      (Result.map
         (fun () -> P.Ok_reply (Some ("opened " ^ session)))
         (open_session t ~name:session ~family ~epsilon ~delta ~log2_universe))
  | P.Add { session; payload; ts } ->
    reply (Result.map (fun () -> P.Ok_reply None) (add ?ts t ~name:session ~payload))
  (* ADDL at the front door is just ingest: the coordinator re-routes with
     its own replica roles, so the backup-copy hint does not pass through. *)
  | P.Add_batch { session; payloads; ts } | P.Add_log { session; payloads; ts } ->
    reply
      (Result.map
         (fun (accepted, errors) -> P.Ok_batch { accepted; errors })
         (add_batch ?ts t ~name:session ~payloads))
  | P.Est { session } ->
    reply
      (Result.map
         (fun (value, degraded, stale_shards) ->
           P.Estimate { value; degraded; stale_shards })
         (estimate t ~name:session))
  | P.Win { session; seconds; at } ->
    reply
      (Result.map
         (fun (value, degraded, stale_shards) ->
           P.Estimate { value; degraded; stale_shards })
         (win t ~name:session ~seconds ~at))
  | P.Stats { session } ->
    reply (Result.map (fun s -> P.Stats_reply s) (stats t ~name:session))
  | P.Fetch { session; cutoff } ->
    reply (Result.map (fun encoded -> P.Sketch encoded) (fetch ?cutoff t ~name:session))
  (* a coordinator keeps no session versions: version 0 names no state *)
  | P.Fetch_since { session; cutoff; _ } ->
    reply
      (Result.map
         (fun encoded -> P.Sketch_at { version = 0; token = Some encoded })
         (fetch ?cutoff t ~name:session))
  | P.Snapshot { session; path } ->
    reply
      (Result.map
         (fun () -> P.Ok_reply (Some ("snapshotted " ^ session)))
         (snapshot_to t ~name:session ~path))
  | P.Merge { session; encoded } ->
    reply
      (Result.map
         (fun () -> P.Ok_reply (Some ("merged into " ^ session)))
         (merge_in t ~name:session ~encoded))
  | P.Expr { expr; m; w } ->
    reply
      (Result.map
         (fun (outcome, degraded) -> P.expr_reply_of_outcome ~degraded outcome)
         (expr_query ?w t ~expr ~m))
  | P.Restore _ ->
    P.Error_reply
      (P.Server_error
         "RESTORE names a file on a worker host; restore there and MERGE the sketch")
  | P.Close { session } ->
    reply (Result.map (fun () -> P.Ok_reply (Some ("closed " ^ session))) (close t ~name:session))
