module P = Delphic_server.Protocol
module Families = Delphic_server.Families
module Io = Delphic_core.Snapshot_io
module Rng = Delphic_util.Rng

let log_src = Logs.Src.create "delphic.cluster" ~doc:"scatter/gather coordinator"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One wire frame awaiting its single reply line: an [ADDB]/[ADDL]
   carrying the whole array, kept so a death can replay its payloads.
   [bts] is the frame's ingest timestamp — [ADDB] stamps a whole frame, so
   only same-timestamp payloads share one; [None] lets the worker stamp its
   own receive time. *)
type batch = { bsession : string; bts : float option; bitems : string array }

type worker = {
  wid : int;
  host : string;
  port : int;
  mutable conn : Rpc.t option;
  mutable serial : int; (* connections made so far: names the current one *)
  mutable failures : int; (* consecutive, drives the backoff *)
  mutable quarantined_until : float; (* epoch seconds; 0.0 = available *)
  mutable generation : int;
      (* the worker's HELLO generation at the last successful resync; 0 =
         never asked.  A reconnect that reads the same nonzero generation is
         a connection blip — the process (and its state) survived — and
         skips the re-open sweep. *)
  staged : (string * string * float option) Queue.t;
      (* routed but not yet framed: (session, payload, ts).  Nothing
         here has touched the socket; a death replays these verbatim. *)
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
      (* (payload, ts) that no usable replica could take, oldest first.
         Released onto the replicas ahead of the session's next payload and
         before a gather reads one, once a replica is complete again.  New
         ingest parks here only while fewer than [window] sets wait; a dead
         or refusing replica's unacked window always does. *)
  mutable last_good : string option; (* the replicas' last good full token *)
  mutable last_estimate : float;
  mutable rejects : int; (* payloads a primary ack listed as malformed *)
  mutable merges : int; (* the MERGE count the last decoded token carried *)
  (* Memo: the cutoff and token of the last fresh gather and the sketch it
     decoded to.  The next gather at that cutoff names the token's version
     in its fetch, and a worker whose session has not moved answers
     UNCHANGED instead of re-shipping it, so the decode is skipped too —
     repeated EST (and repeated WIN at a stable cutoff bucket) on an idle
     cluster costs one short RPC.  A version is only asked about on the
     connection it came on: a restarted worker counts versions from 1
     again. *)
  mutable memo : (float option * held * Families.t) option;
}

type t = {
  workers : worker array;
  replicas : int; (* full copies of each session, on successive ring positions *)
  timeout : float;
  dial_timeout : float; (* TCP connect budget, separate from [timeout] *)
  retries : int;
  backoff : float; (* first retry delay; doubles per consecutive failure *)
  window : int; (* unacked payload units per worker before a drain *)
  batch : int;
      (* max payloads per ADDB/ADDL frame, and the staging high-water mark
         at which single ADDs are shipped (a client ADDB ships at once) *)
  clock : unit -> float; (* query instant for un-pinned WIN / EXPR w= *)
  cutoff_bucket : float; (* window cutoffs quantize down to this grain *)
  seed : int;
  io : Rpc.io; (* socket ops for every worker connection (chaos hook) *)
  rng : Rng.t; (* backoff jitter; guarded by [lock] like everything else *)
  lock : Mutex.t;
  sessions : (string, session_info) Hashtbl.t;
  mutable seq : int; (* distinct seeds for successive decodes and draws *)
  (* Payloads refused by an ack (e.g. UNKNOWN-SESSION from a worker that
     lost the session): parked here by [retire_ack] — which can run deep
     inside a drain — and re-routed at the next safe point. *)
  orphans : (string * string * float option) Queue.t;
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
      (* a warm standby: answers every query, refuses every mutation, until
         [Failover] promotes it *)
  mutable max_worker_epoch : int;
      (* highest epoch seen in any worker HELLO — the floor a takeover must
         clear, sourced from the workers because they are the durable truth *)
}

let create ?(replicas = 1) ?(timeout = 2.0) ?(dial_timeout = 2.0) ?(retries = 3)
    ?(backoff = 0.05) ?(window = 256) ?(batch = 64) ?(io = Rpc.default_io) ?proto:_
    ?(clock = Unix.gettimeofday) ?(cutoff_bucket = 1.0) ?(epoch = 0)
    ?(read_only = false) ~workers ~seed () =
  if workers = [] then invalid_arg "Coordinator.create: need at least one worker";
  if replicas < 1 then invalid_arg "Coordinator.create: need replicas >= 1";
  if timeout <= 0.0 then invalid_arg "Coordinator.create: need timeout > 0";
  if dial_timeout <= 0.0 then invalid_arg "Coordinator.create: need dial_timeout > 0";
  if epoch < 0 then invalid_arg "Coordinator.create: need epoch >= 0";
  if retries < 0 then invalid_arg "Coordinator.create: need retries >= 0";
  if window < 1 then invalid_arg "Coordinator.create: need window >= 1";
  if batch < 1 then invalid_arg "Coordinator.create: need batch >= 1";
  if not (cutoff_bucket > 0.0) then
    invalid_arg "Coordinator.create: need cutoff_bucket > 0";
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
               generation = 0;
               staged = Queue.create ();
               pending = Queue.create ();
               in_flight = 0;
             })
           workers);
    replicas = Stdlib.min replicas (List.length workers);
    timeout;
    dial_timeout;
    retries;
    backoff;
    window;
    batch;
    clock;
    cutoff_bucket;
    seed;
    io;
    rng = Rng.create ~seed:(seed lxor 0x2545F491);
    lock = Mutex.create ();
    sessions = Hashtbl.create 4;
    seq = 0;
    orphans = Queue.create ();
    epoch;
    fenced_by = 0;
    read_only;
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

(* --- worker lifecycle: connect with bounded retry, quarantine on death --- *)

let kill_requeue : (t -> worker -> unit) ref = ref (fun _ _ -> ())

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
  !kill_requeue t w

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
       longer complete, and the payloads are parked for re-routing at the
       next safe point (retiring can run deep inside a drain, where
       routing would recurse). *)
    Log.warn (fun m ->
        m "worker %s: ingest refused (%s) — re-routing %d payload(s)" (address w)
          (P.describe_error e) (Array.length b.bitems));
    Option.iter (fun si -> si.incomplete.(w.wid) <- true) si;
    Array.iter (fun payload -> Queue.push (b.bsession, payload, b.bts) t.orphans) b.bitems
  | r ->
    (* non-error, non-ack: the reply stream itself is suspect *)
    Log.warn (fun m ->
        m "worker %s: unexpected ingest ack %s" (address w) (P.render_response r))

(* Read one reply on [w]'s connection and retire the head of [w.pending]
   with it.  A failed read quarantines [w], which requeues everything it
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
   the unacked frames are replayed through the router: at-least-once, and
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
   already owed in [w.pending], so a transport failure replays it via the
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
    | None ->
      (* connection already gone with payloads still staged: hand them to
         the re-router directly *)
      !kill_requeue t w
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

(* After a (re)connect to a new process, or at first contact: re-open every
   session.  An OPEN that succeeds on a worker this coordinator knew before
   means the process came back without the session, so its replica copy is
   incomplete.  SESSION-EXISTS means the worker kept (or recovered) it. *)
let reopen t w conn =
  let ok = ref true in
  Hashtbl.iter
    (fun name (si : session_info) ->
      if !ok then
        match Rpc.call conn (open_request name si) with
        | Ok (P.Ok_reply _) ->
          if w.generation <> 0 && List.memq w si.members then
            si.incomplete.(w.wid) <- true
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

(* Epoch-fenced rejoin.  HELLO asks the worker who it is: a nonzero
   generation equal to the one recorded at the last successful resync means
   the same process answered — the disconnect was a connection blip and its
   sessions are intact, so the re-open sweep is skipped.  Any other
   generation — a restarted process, possibly recovered from its journal
   minus the unsynced tail — is re-opened.  Either way a replica that
   missed payloads while away is replaced afterwards ([repair_around]). *)
let resync t w conn =
  match Rpc.call conn P.Hello with
  | Ok (P.Hello_reply { generation; epoch }) ->
    if epoch > t.max_worker_epoch then t.max_worker_epoch <- epoch;
    if generation <> 0 && generation = w.generation then true
    else begin
      if w.generation <> 0 then
        Log.info (fun m ->
            m "worker %s: generation %d -> %d — restarted, re-opening sessions"
              (address w) w.generation generation);
      let ok = reopen t w conn in
      if ok then w.generation <- generation;
      ok
    end
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

(* The worker's connection if it is usable now: an existing one, or a fresh
   connect-announce-resync-repair with [retries] attempts under exponential
   backoff.  [None] while quarantined or unreachable.  A dial timeout
   (black-holed address) skips the in-round retries — each would burn a
   full dial budget against a host that is not answering SYNs — and
   quarantines at once. *)
let ensure_conn t w =
  match w.conn with
  | Some c -> Some c
  | None ->
    if Unix.gettimeofday () < w.quarantined_until then None
    else begin
      let rec attempt i =
        match
          Rpc.connect ~io:t.io ~dial_timeout:t.dial_timeout ~host:w.host
            ~port:w.port ~timeout:t.timeout ()
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
        | Error (Rpc.Dial_timeout _ as err) ->
          Log.warn (fun m ->
              m "worker %s unreachable: %s" (address w)
                (Rpc.describe_connect_error err));
          quarantine t w;
          None
        | Error (Rpc.Dial_failed msg) ->
          if i >= t.retries then begin
            Log.warn (fun m -> m "worker %s unreachable: %s" (address w) msg);
            quarantine t w;
            None
          end
          else begin
            Thread.delay (t.backoff *. Float.ldexp 1.0 i);
            attempt (i + 1)
          end
      in
      attempt 0
    end

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
   before it returns. *)
let stage t ws name payload ~ts =
  List.iter
    (fun w ->
      Queue.push (name, payload, ts) w.staged;
      if Queue.length w.staged >= t.batch then ship_worker t w)
    ws

(* The session's [targets], with its waiting sets staged on them first,
   oldest first, so whatever is staged next lands behind them.  With no
   target the sets keep waiting.  Only what waits now is released: a death
   while it ships parks that worker's window in the FIFO again, for a later
   release.  Every path that places a session's sets goes through here. *)
let place ?dial t si name =
  let ws = targets ?dial t si in
  if ws <> [] && not (Queue.is_empty si.waiting) then begin
    let items = List.of_seq (Queue.to_seq si.waiting) in
    Queue.clear si.waiting;
    List.iter (fun (payload, ts) -> stage t ws name payload ~ts) items
  end;
  ws

(* Release [name]'s waiting sets if a complete replica is usable.  A
   session with nothing waiting is left alone: picking targets would mark
   a down replica incomplete although nothing was placed without it. *)
let release ?dial t name si =
  if not (Queue.is_empty si.waiting) then ignore (place ?dial t si name)

(* Mutations are refused while this coordinator may not own the pool: a
   warm standby answers queries only, and a deposed primary's writes are
   already dying at every worker's fence — failing fast here keeps the
   client's error honest instead of half-ingesting a batch. *)
let mutation_guard t =
  if t.read_only then Error (P.Read_only "standby")
  else if t.fenced_by > t.epoch then Error (P.Fenced t.fenced_by)
  else Ok ()

(* Route one payload behind the session's waiting sets, or park it with
   them when no replica is usable.  [fresh] ingest is refused once
   [t.window] sets wait, or when dialing the replicas found this
   coordinator fenced; a re-routed payload was acknowledged already and
   always parks. *)
let route ?(fresh = false) t si name payload ~ts =
  match place t si name with
  | [] ->
    let admitted =
      if not fresh then Ok ()
      else
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
    stage t ws name payload ~ts;
    Ok ()

(* Re-route a dead worker's staged payloads and unacked frames — oldest
   (sent-but-unacked) first, then the never-sent staging queue — and mark
   its unanswered asks lost; wired into
   [quarantine] via the forward reference because death and re-routing are
   mutually recursive.  A payload a live replica already took lands there
   again, which the union ignores; with no replica usable it waits.  Each
   session's targets are picked once for the whole window, and again only
   if one of them dies meanwhile: picking them dials every replica whose
   quarantine has run out, and a worker that accepts but does not answer
   costs a full [timeout] per dial. *)
let requeue t w =
  let orphans = ref [] in
  Queue.iter
    (function
      | Ask slot -> slot := Some (Error "connection lost before the reply")
      | Frame b ->
        Array.iter (fun payload -> orphans := (b.bsession, payload, b.bts) :: !orphans) b.bitems)
    w.pending;
  Queue.iter (fun item -> orphans := item :: !orphans) w.staged;
  Queue.clear w.pending;
  Queue.clear w.staged;
  w.in_flight <- 0;
  let picked = Hashtbl.create 4 in
  let targets_of session si =
    match Hashtbl.find_opt picked session with
    | Some ws when List.for_all (fun w -> w.conn <> None) ws -> ws
    | _ ->
      let ws = place t si session in
      Hashtbl.replace picked session ws;
      ws
  in
  List.iter
    (fun (session, payload, ts) ->
      Option.iter
        (fun si ->
          match targets_of session si with
          | [] -> Queue.push (payload, ts) si.waiting
          | ws -> stage t ws session payload ~ts)
        (Hashtbl.find_opt t.sessions session))
    (List.rev !orphans)

let () = kill_requeue := requeue

(* Re-route payloads parked by [retire_ack], once the drain that parked
   them has unwound.  Each refusal marks its replica incomplete, so this
   ends with the payloads staged on complete replicas or waiting. *)
let reroute_orphans t =
  while not (Queue.is_empty t.orphans) do
    let session, payload, ts = Queue.pop t.orphans in
    Option.iter
      (fun si -> ignore (route t si session payload ~ts))
      (Hashtbl.find_opt t.sessions session)
  done

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
      | Ok si ->
        let r = route ~fresh:true t si name payload ~ts in
        reroute_orphans t;
        r)

(* A whole client ADDB frame routed under one lock acquisition.  Every
   payload of a session goes to the same replicas, so the frame re-batches
   there whole.  The frame is already a batch, so nothing is held back:
   every worker with staged frames is shipped before the call returns, and
   the sets reach the worker estimators without waiting for a read.
   Shipping repeats until nothing is staged, since a drain can park refused
   payloads and re-routing them stages more (bounded like [flush]). *)
let add_batch ?ts t ~name ~payloads =
  with_lock t (fun () ->
      match Result.bind (mutation_guard t) (fun () -> find_session t name) with
      | Error e -> Error e
      | Ok si ->
        let accepted = ref 0 in
        let errors = ref [] in
        List.iteri
          (fun i payload ->
            match route ~fresh:true t si name payload ~ts with
            | Ok () -> incr accepted
            | Error e -> errors := (i, P.describe_error e) :: !errors)
          payloads;
        let has_staged w = not (Queue.is_empty w.staged) in
        let rec ship attempts =
          Array.iter (fun w -> if has_staged w then ship_worker t w) t.workers;
          reroute_orphans t;
          if attempts > 0 && Array.exists has_staged t.workers then ship (attempts - 1)
        in
        ship (Array.length t.workers + 2);
        Ok (!accepted, List.rev !errors))

let flush t =
  (* Settle to quiescence: waiting sets are released onto the replicas
     connected now (nothing is dialed), draining can park refused payloads,
     rerouting them stages fresh frames, so repeat until nothing moves
     (bounded — a refusal marks its replica incomplete, so a payload
     refused by every replica ends up waiting). *)
  let rec go attempts =
    Hashtbl.iter (release ~dial:false t) t.sessions;
    Array.iter
      (fun w ->
        flush_worker t w;
        if w.conn <> None then drain_acks t w ~down_to:0)
      t.workers;
    reroute_orphans t;
    if
      attempts > 0
      && Array.exists
           (fun w -> w.in_flight > 0 || not (Queue.is_empty w.staged))
           t.workers
    then go (attempts - 1)
  in
  go (Array.length t.workers + 2)

(* Read one copy of [name].

   The replicas are reconnected first and an incomplete one is replaced;
   then the session's waiting sets are released onto the complete ones, so
   the Fetch below queues behind them.  The first usable replica in ring
   order is asked, falling to the next one if it fails, all under one
   absolute deadline.  Each ask owes its reply in its worker's FIFO, so
   collecting it retires the acks owed ahead of it.  A replica is only
   asked while budget remains, and gets an equal share of it with the
   usable replicas after it, so a hung home leaves its peer the time to
   answer fresh.  When none answers, the last good token stands in and the
   home goes to [stale_shards].  The token decodes verbatim: a healthy
   cluster answers exactly what one estimator would.

   [cutoff] makes the gather windowed: the absolute instant is computed once
   by the caller and shipped verbatim in the Fetch.  A windowed gather never
   updates the last good token (a restricted sketch must not become the
   full-estimate fallback) and memoises its token under its own cutoff
   key. *)
let gather ?cutoff t si name =
  List.iter (fun w -> ignore (ensure_conn t w)) si.members;
  repair t si name;
  release t name si;
  let deadline = Unix.gettimeofday () +. t.timeout in
  (* ask [w] for its token, naming the version the memo holds from [w]'s
     current connection at this cutoff *)
  let send w =
    let held =
      match si.memo with
      | Some (cut, h, _) when cut = cutoff && h.from = w.wid && h.serial = w.serial -> Some h
      | _ -> None
    in
    let since = match held with Some h -> h.version | None -> 0 in
    (w.serial, held, ask t w (P.Fetch_since { session = name; cutoff; since }))
  in
  let collect ~by w (serial, held, slot) =
    match await ~deadline:by t w slot with
    | Ok (P.Sketch_at { version; token = Some token }) ->
      Some { from = w.wid; serial; version; token }
    | Ok (P.Sketch_at { version; token = None })
      when Option.map (fun h -> h.version) held = Some version ->
      (* the memo's token stands for the answer *)
      held
    | Ok r ->
      (* e.g. UNKNOWN-SESSION: a worker that lost the session *)
      Log.warn (fun m -> m "worker %s: FETCH answered %s" (address w) (P.render_response r));
      si.incomplete.(w.wid) <- true;
      None
    | Error _ -> None
  in
  let rec read = function
    | [] -> None
    | w :: rest -> (
      let now = Unix.gettimeofday () in
      let share = float (List.length (List.filter (usable si) (w :: rest))) in
      if not (usable si w && now < deadline) then read rest
      else
        match collect ~by:(now +. ((deadline -. now) /. share)) w (send w) with
        | Some token -> Some token
        | None -> read rest)
  in
  let replica = read si.members in
  reroute_orphans t;
  match (replica, si.memo) with
  | Some h, Some (cut, prev, sketch) when cut = cutoff && prev == h -> Ok (sketch, false, [])
  | _ -> (
    let decode token =
      match Io.of_wire token with
      | Ok io -> Some io
      | Error msg ->
        (* a token that would not decode is no fresher than no token *)
        Log.warn (fun m -> m "session %s: bad sketch: %s" name msg);
        None
    in
    let fresh = Option.bind replica (fun h -> Option.map (fun io -> (h, io)) (decode h.token)) in
    let io =
      match fresh with
      | Some (h, io) ->
        (* a windowed token is a restricted view: never the fallback *)
        if cutoff = None then si.last_good <- Some h.token;
        Some io
      | None -> Option.bind si.last_good decode
    in
    match io with
    | None -> Error (P.Server_error "no replica holds any data for this session")
    | Some io -> (
      si.merges <- (Io.header io).Io.merges;
      match Families.of_io io ~seed:(next_seed t) with
      | Error msg -> Error (P.Server_error msg)
      | Ok sketch -> (
        match fresh with
        | Some (h, _) ->
          si.memo <- Some (cutoff, h, sketch);
          Ok (sketch, false, [])
        | None -> Ok (sketch, true, [ si.home ]))))

(* Gather [name] under the lock and hand the session and its sketch to [f]. *)
let gathered ?cutoff t name f =
  with_lock t (fun () ->
      Result.bind (find_session t name) (fun si ->
          Result.bind (gather ?cutoff t si name) (f si)))

let estimate t ~name =
  gathered t name (fun si (sketch, degraded, stale_shards) ->
      let value = Families.estimate sketch in
      si.last_estimate <- value;
      Ok (value, degraded, stale_shards))

(* The query's absolute cutoff, computed once coordinator-side.  An
   un-pinned instant comes from the injectable clock and is quantized down
   to [cutoff_bucket] so repeated idle-cluster WINs inside one bucket ship
   byte-identical Fetch cutoffs, and the worker answers UNCHANGED to the
   memo's version.  A pinned [at] is taken exactly (reproducible runs). *)
let win_cutoff t ~seconds ~at =
  let instant =
    match at with
    | Some a -> a
    | None ->
      let now = t.clock () in
      Float.floor (now /. t.cutoff_bucket) *. t.cutoff_bucket
  in
  instant -. seconds

let win t ~name ~seconds ~at =
  let cutoff = win_cutoff t ~seconds ~at in
  (* an infinite window is a plain estimate: gather un-windowed so the fetch
     shares EST's memo and refreshes the last good token *)
  let cutoff = if Float.is_finite cutoff then Some cutoff else None in
  gathered ?cutoff t name (fun _ (sketch, degraded, stale_shards) ->
      let value =
        match cutoff with
        | None -> Families.estimate sketch
        | Some c ->
          (* re-filter the sketch: a fresh token is already restricted
             (no-op), but a degraded gather's stale full fallback still
             carries its timestamps and gets windowed correctly here *)
          Families.estimate_window sketch ~cutoff:c
      in
      Ok (value, degraded, stale_shards))

let stats t ~name =
  gathered t name (fun si (sketch, _, _) ->
      Ok
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
          | Some secs when Float.is_finite secs ->
            Some (win_cutoff t ~seconds:secs ~at:None)
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

let fetch ?cutoff t ~name =
  gathered ?cutoff t name (fun si (sketch, _, _) ->
      (* restrict the encoded sketch too: a degraded gather may have read a
         stale, un-windowed fallback *)
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
      let lost = Hashtbl.fold (fun _ si n -> n + Queue.length si.waiting) t.sessions 0 in
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
  (* The coordinator is a client-facing aggregate, not a restartable worker;
     it has no journal generation to advertise — but it does carry the
     fencing epoch, which a standby probes for. *)
  | P.Hello -> P.Hello_reply { generation = 0; epoch = epoch t }
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
