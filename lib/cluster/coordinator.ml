module P = Delphic_server.Protocol
module Families = Delphic_server.Families
module Io = Delphic_core.Snapshot_io
module Rng = Delphic_util.Rng

let log_src = Logs.Src.create "delphic.cluster" ~doc:"scatter/gather coordinator"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One wire frame awaiting its single reply line: an [ADDB]/[ADDL]
   carrying the whole array.  [bitems] keeps each payload's hop count so a
   replay after worker death still converges.
   [bts] is the frame's ingest timestamp — [ADDB] stamps a whole frame, so
   only same-timestamp payloads share one; [None] lets the worker stamp its
   own receive time. *)
type batch = {
  bsession : string;
  bts : float option;
  bitems : (string * int) array; (* payload, hops *)
}

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
  staged : (string * string * float option * int) Queue.t;
      (* routed but not yet framed: (session, payload, ts, hops).  Nothing
         here has touched the socket; a death replays these verbatim. *)
  pending : batch Queue.t; (* frames on the wire, one reply line owed each *)
  mutable in_flight : int; (* payload units across [pending] *)
}

(* One gathered token as the fold memo holds it: the worker that sent it,
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
  spills : (int, string option) Hashtbl.t;
      (* workers outside the window that took payloads while no replica was
         usable, each with its last good full token *)
  mutable last_good : string option; (* the replicas' last good full token *)
  mutable last_estimate : float;
  mutable rejects : int; (* payloads a primary ack listed as malformed *)
  mutable merges : int; (* gather folds performed *)
  (* Memoised fold: the cutoff and parts of the last all-fresh gather and
     the sketch they folded to.  The next gather at that cutoff names each
     part's version in its fetch, and a worker whose session has not moved
     answers UNCHANGED instead of re-shipping the token; when every part is
     unchanged the whole decode + fold is skipped too — repeated EST (and
     repeated WIN at a stable cutoff bucket) on an idle cluster costs short
     RPCs alone.  A version is only asked about on the connection it came
     on: a restarted worker counts versions from 1 again. *)
  mutable fold_cache : (float option * held array * Families.t) option;
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
  mutable seq : int; (* distinct seeds for successive folds *)
  (* Payloads refused by an ack (e.g. UNKNOWN-SESSION from a worker that
     lost the session): parked here by [retire_ack] — which can run deep
     inside a drain — and re-routed at the next safe point. *)
  orphans : (string * string * float option * int) Queue.t;
  (* While a gather has Fetch requests on the wire, a dying worker must not
     trigger an immediate requeue: re-routing its orphans would stage new
     frames on peers *behind* their un-collected sketch replies and misframe
     their streams.  Deaths are parked here and re-routed after collect. *)
  mutable in_gather : bool;
  deferred_deaths : worker Queue.t;
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
    in_gather = false;
    deferred_deaths = Queue.create ();
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
    spills = Hashtbl.create 1;
    last_good = None;
    last_estimate = 0.0;
    rejects = 0;
    merges = 0;
    fold_cache = None;
  }

(* A session this coordinator did not open may have spilled under its
   previous owner, which left no record of where: every worker outside the
   window is a spill holder until its token reads empty. *)
let inherit_spills t si =
  Array.iter
    (fun w ->
      if not (List.memq w si.members || Hashtbl.mem si.spills w.wid) then
        Hashtbl.replace si.spills w.wid None)
    t.workers

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

(* Retire the oldest pending frame against its [OKB] reply. *)
let retire_ack t w reply =
  match Queue.take_opt w.pending with
  | None -> w.in_flight <- 0 (* unreachable: in_flight tracks pending *)
  | Some b -> (
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
          m "worker %s: ingest fenced by epoch %d — coordinator deposed" (address w)
            cur);
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
      Option.iter
        (fun si -> if List.memq w si.members then si.incomplete.(w.wid) <- true)
        si;
      Array.iter
        (fun (payload, hops) ->
          Queue.push (b.bsession, payload, b.bts, hops + 1) t.orphans)
        b.bitems
    | r ->
      (* non-error, non-ack: the reply stream itself is suspect *)
      Log.warn (fun m ->
          m "worker %s: unexpected ingest ack %s" (address w) (P.render_response r)))

(* Read reply lines until at most [down_to] payload units remain unacked.
   One reply retires one whole frame.  On failure the unacked frames are
   replayed through the router: at-least-once, and a set seen twice by one
   estimator is a duplicate the union ignores. *)
let rec drain_acks t w ~down_to =
  if w.in_flight <= down_to then ()
  else
    match w.conn with
    | None -> quarantine t w
    | Some conn -> (
      match Rpc.recv conn with
      | Ok reply ->
        retire_ack t w reply;
        drain_acks t w ~down_to
      | Error msg ->
        Log.warn (fun m -> m "worker %s: lost while draining acks: %s" (address w) msg);
        quarantine t w)

(* A replica copy ships as a backup (ADDL, whose parse errors the worker
   does not report back) unless [w] is the session's first usable replica,
   so each reject is counted once.  A spill holder is the only copy. *)
let backup t session w =
  match Hashtbl.find_opt t.sessions session with
  | None -> false
  | Some si -> (
    List.memq w si.members
    && match List.find_opt (usable si) si.members with Some p -> p != w | None -> false)

(* Frame [w.staged] into requests — consecutive same-session runs of up to
   [t.batch] payloads each: ADDL for a backup copy, otherwise ADDB — stage
   them all on the connection, and ship the accumulation as one coalesced
   write.  Frames enter [w.pending]
   before the flush so a transport failure replays them via the quarantine
   path. *)
let flush_worker t w =
  if not (Queue.is_empty w.staged) then
    match w.conn with
    | None ->
      (* connection already gone with payloads still staged: hand them to
         the re-router directly *)
      !kill_requeue t w
    | Some conn -> (
      while not (Queue.is_empty w.staged) do
        let s0, p0, ts0, h0 = Queue.pop w.staged in
        let items = ref [ (p0, h0) ] in
        let count = ref 1 in
        let same_run = ref true in
        (* an ADDB/ADDL frame carries one t=, so only same-timestamp runs
           batch *)
        while !same_run && !count < t.batch do
          match Queue.peek_opt w.staged with
          | Some (s, _, ts, _) when String.equal s s0 && ts = ts0 ->
            let _, p, _, h = Queue.pop w.staged in
            items := (p, h) :: !items;
            incr count
          | _ -> same_run := false
        done;
        let bitems = Array.of_list (List.rev !items) in
        let payloads = Array.to_list (Array.map fst bitems) in
        let req =
          if backup t s0 w then P.Add_log { session = s0; payloads; ts = ts0 }
          else P.Add_batch { session = s0; payloads; ts = ts0 }
        in
        Rpc.stage conn req;
        Queue.push { bsession = s0; bts = ts0; bitems } w.pending;
        w.in_flight <- w.in_flight + Array.length bitems
      done;
      match Rpc.flush_staged conn with
      | Ok () -> ()
      | Error msg ->
        Log.warn (fun m -> m "worker %s: batch flush failed: %s" (address w) msg);
        quarantine t w)

(* Ship [w]'s staged frames, then keep the pipe at most [t.window] units
   deep: past it, drain down to half the window so the pipe never fully
   stalls.  This bounds what a gather waits for on one worker. *)
let ship_worker t w =
  flush_worker t w;
  if w.conn <> None && w.in_flight >= t.window then
    drain_acks t w ~down_to:(t.window / 2)

(* Synchronous round-trip on [w]'s connection.  Pipelined ingest acks share
   the reply stream with every other verb, so staged frames must be shipped
   and every ack drained first: calling with acks in flight would read an
   ingest ack as this request's reply and leave the stream permanently off
   by one (a pending frame silently marked acked, later replies misframed).
   Draining can itself kill the worker — and requeueing during a drain can
   put new frames in flight on *other* workers — so both queues are
   re-checked right before the call.  On transport failure the worker is
   quarantined here; callers only decide fallback. *)
let call_sync t w req =
  flush_worker t w;
  drain_acks t w ~down_to:0;
  if w.in_flight > 0 || not (Queue.is_empty w.staged) then
    Error "pending acks could not be drained"
  else
    match w.conn with
    | None -> Error "connection lost while draining pending acks"
    | Some conn -> (
      match Rpc.call conn req with
      | Ok _ as ok -> ok
      | Error msg ->
        quarantine t w;
        Error msg)

(* After a (re)connect to a new process, or at first contact: re-open every
   session.  An OPEN that succeeds on a worker this coordinator knew before
   means the process came back without the session, so its replica copy is
   incomplete, and a spill holder gets its last good token merged back.
   SESSION-EXISTS means the worker kept (or recovered) it. *)
let reopen t w conn =
  let ok = ref true in
  Hashtbl.iter
    (fun name (si : session_info) ->
      if !ok then
        match Rpc.call conn (open_request name si) with
        | Ok (P.Ok_reply _) -> (
          if w.generation <> 0 && List.memq w si.members then
            si.incomplete.(w.wid) <- true;
          match Hashtbl.find_opt si.spills w.wid with
          | Some (Some encoded) -> (
            match Rpc.call conn (P.Merge { session = name; encoded }) with
            | Ok (P.Ok_reply _) -> ()
            | _ -> ok := false)
          | Some None | None -> ())
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
let announce_epoch_on t w conn =
  if t.epoch = 0 then true
  else
    match Rpc.call conn (P.Coord_epoch { epoch = t.epoch }) with
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
          if announce_epoch_on t w conn && resync t w conn then begin
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
   (an earlier owner routed it): every worker outside the window is a spill
   holder until its token reads empty, and each replica is read once.  The
   fullest copy by item count becomes the last good token; a replica below
   it, or silent, is incomplete and is replaced from a complete peer, now
   or at its reconnect.  With no replica answering the flags stay as they
   are. *)
let adopt t si name =
  inherit_spills t si;
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
   its window, and a replica left out is marked incomplete.  With no
   replica usable, the first live worker past the window takes it and is
   recorded as a spill holder — the other replicas then miss nothing a
   complete peer has.  [] when no worker is reachable. *)
let targets t si =
  match
    List.filter (fun w -> Option.is_some (ensure_conn t w) && not si.incomplete.(w.wid)) si.members
  with
  | [] ->
    let n = Array.length t.workers in
    let rec spill i =
      if i >= n then []
      else
        let w = t.workers.((si.home + i) mod n) in
        if List.memq w si.members || Option.is_none (ensure_conn t w) then spill (i + 1)
        else begin
          if not (Hashtbl.mem si.spills w.wid) then Hashtbl.replace si.spills w.wid None;
          [ w ]
        end
    in
    spill t.replicas
  | live ->
    List.iter (fun w -> if not (List.memq w live) then si.incomplete.(w.wid) <- true) si.members;
    live

(* Stage one payload on its targets.  A worker is shipped when its staging
   reaches the batch high-water mark, and [add_batch] ships every worker
   before it returns.  [hops] counts re-routes after worker deaths; past
   the pool size the payload is given up. *)
let route t si name payload ~ts ~hops =
  if hops > Array.length t.workers then
    Error (P.Server_error "no live worker accepted the set")
  else
    match targets t si with
    | [] -> Error (P.Server_error "no workers available")
    | ws ->
      List.iter
        (fun w ->
          Queue.push (name, payload, ts, hops) w.staged;
          if Queue.length w.staged >= t.batch then ship_worker t w)
        ws;
      Ok ()

(* Re-route a dead worker's staged payloads and unacked frames — oldest
   (sent-but-unacked) first, then the never-sent staging queue; wired into
   [quarantine] via the forward reference because death and re-routing are
   mutually recursive.  A payload a live replica already took lands there
   again, which the union ignores. *)
let requeue t w =
  let orphans = ref [] in
  Queue.iter
    (fun b ->
      Array.iter
        (fun (payload, hops) -> orphans := (b.bsession, payload, b.bts, hops) :: !orphans)
        b.bitems)
    w.pending;
  Queue.iter (fun item -> orphans := item :: !orphans) w.staged;
  Queue.clear w.pending;
  Queue.clear w.staged;
  w.in_flight <- 0;
  List.iter
    (fun (session, payload, ts, hops) ->
      Option.iter
        (fun si -> ignore (route t si session payload ~ts ~hops:(hops + 1)))
        (Hashtbl.find_opt t.sessions session))
    (List.rev !orphans)

let () =
  kill_requeue :=
    fun t w ->
      (* mid-gather deaths are parked: see [deferred_deaths] *)
      if t.in_gather then begin
        if not (Queue.fold (fun seen d -> seen || d == w) false t.deferred_deaths)
        then Queue.push w t.deferred_deaths
      end
      else requeue t w

(* Re-route payloads parked by [retire_ack].  Deferred until no gather is
   collecting (new frames behind an un-collected Fetch are fine, but the
   drain a route can trigger is not) and until the drain that parked them
   has unwound. *)
let reroute_orphans t =
  if not t.in_gather then
    while not (Queue.is_empty t.orphans) do
      let session, payload, ts, hops = Queue.pop t.orphans in
      Option.iter
        (fun si -> ignore (route t si session payload ~ts ~hops))
        (Hashtbl.find_opt t.sessions session)
    done

(* --- public operations --- *)

(* Mutations are refused while this coordinator may not own the pool: a
   warm standby answers queries only, and a deposed primary's writes are
   already dying at every worker's fence — failing fast here keeps the
   client's error honest instead of half-ingesting a batch. *)
let mutation_guard t =
  if t.read_only then Error (P.Read_only "standby")
  else if t.fenced_by > t.epoch then Error (P.Fenced t.fenced_by)
  else Ok ()

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

(* OPEN goes to every worker, so any of them can later hold a spill and a
   standby can rebuild the session table from any one.  The session is
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
        let r = route t si name payload ~ts ~hops:0 in
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
            match route t si name payload ~ts ~hops:0 with
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
  (* Settle to quiescence: draining can park refused payloads, rerouting
     them stages fresh frames, so repeat until nothing moves (bounded — a
     payload refused everywhere is dropped by the hop limit). *)
  let rec go attempts =
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

(* Read one copy of [name] and fold in its spill holders.

   Phase one reconnects the replicas and the spill holders and repairs an
   incomplete replica — by RPCs to its peers, so no Fetch may be on the
   wire yet.  Then one Fetch is staged per spill holder, behind its
   queued frames.  Phase two asks the first usable replica in ring order,
   falling to the next one if it fails, and collects the spill holders —
   all under one absolute deadline: first the acks owed for frames sent
   before the Fetch (the reply stream is strictly ordered, so reading
   exactly that many keeps it framed), then the sketch.  A fast worker's
   already-buffered reply is still collected at budget zero, so the gather
   costs max-of-workers, not sum; a replica is only asked while budget
   remains, and gets an equal share of it with the usable replicas after
   it, so a hung home leaves its peer the time to answer fresh.  Whatever
   does not answer falls back to its last good token, and its position —
   the home for the replicas, the ring position of a spill holder — goes
   to [stale_shards].  Phase three decodes and folds:
   with no spills the fold has one source and copies it verbatim, so a
   healthy cluster answers exactly what one estimator would.

   [cutoff] makes the gather windowed: the absolute instant is computed once
   by the caller and shipped verbatim in every Fetch, so all copies expire
   against the same wall-clock point.  A windowed gather never updates a
   last good token (a restricted sketch must not become the full-estimate
   fallback) and memoises its fold under its own cutoff key. *)
let gather ?cutoff t si name =
  let spills =
    Hashtbl.fold (fun wid good acc -> (t.workers.(wid), good) :: acc) si.spills []
    |> List.sort (fun (a, _) (b, _) -> compare a.wid b.wid)
  in
  t.in_gather <- true;
  let replica, spill_parts =
    Fun.protect
      ~finally:(fun () ->
        t.in_gather <- false;
        (* Re-route the orphans of workers that died mid-gather, now that no
           un-collected sketch reply is left for a requeue to misframe. *)
        while not (Queue.is_empty t.deferred_deaths) do
          requeue t (Queue.pop t.deferred_deaths)
        done;
        reroute_orphans t)
      (fun () ->
        List.iter (fun w -> ignore (ensure_conn t w)) si.members;
        List.iter (fun (w, _) -> ignore (ensure_conn t w)) spills;
        repair t si name;
        let deadline = Unix.gettimeofday () +. t.timeout in
        (* the memo's part from [w]'s current connection at this cutoff *)
        let held_for w =
          match si.fold_cache with
          | Some (cut, parts, _) when cut = cutoff ->
            Array.find_opt (fun h -> h.from = w.wid && h.serial = w.serial) parts
          | _ -> None
        in
        (* stage the Fetch behind [w]'s frames: the acks owed ahead of it *)
        let send w =
          flush_worker t w;
          match w.conn with
          | None -> None
          | Some conn -> (
            let since = match held_for w with Some h -> h.version | None -> 0 in
            Rpc.stage conn (P.Fetch_since { session = name; cutoff; since });
            match Rpc.flush_staged conn with
            | Ok () -> Some (Queue.length w.pending)
            | Error msg ->
              Log.warn (fun m -> m "worker %s: fetch failed: %s" (address w) msg);
              quarantine t w;
              None)
        in
        let collect ~by:deadline w owed =
          match (owed, w.conn) with
          | None, _ | _, None -> None
          | Some owed, Some conn -> (
            let rec acks k =
              if k = 0 then Ok ()
              else
                match Rpc.recv_timeout ~deadline conn with
                | Ok reply ->
                  retire_ack t w reply;
                  acks (k - 1)
                | Error _ as e -> e
            in
            let fail what e =
              Log.warn (fun m ->
                  m "worker %s: %s: %s" (address w) what (Rpc.describe_recv_error e));
              quarantine t w;
              None
            in
            match acks owed with
            | Error e -> fail "lost while draining acks" e
            | Ok () -> (
              match Rpc.recv_timeout ~deadline conn with
              | Ok (P.Sketch_at { version; token = Some token }) ->
                Some { from = w.wid; serial = w.serial; version; token }
              | Ok (P.Sketch_at { version; token = None })
                when Option.map (fun h -> h.version) (held_for w) = Some version ->
                (* the memo's part stands for the token *)
                held_for w
              | Ok r ->
                (* e.g. UNKNOWN-SESSION: a worker that lost the session *)
                Log.warn (fun m ->
                    m "worker %s: FETCH answered %s" (address w) (P.render_response r));
                if List.memq w si.members then si.incomplete.(w.wid) <- true;
                None
              | Error e -> fail "no sketch by the gather deadline" e))
        in
        let owed = List.map (fun (w, good) -> (w, good, send w)) spills in
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
        (replica, List.map (fun (w, good, k) -> (w, good, collect ~by:deadline w k)) owed))
  in
  (* phase three: (position, fresh token, fallback) per part, home first *)
  let parts =
    (`Home, replica, si.last_good)
    :: List.map (fun (w, good, fresh) -> (`Spill w, fresh, good)) spill_parts
  in
  let all_fresh =
    if List.for_all (fun (_, fresh, _) -> fresh <> None) parts then
      Some (Array.of_list (List.filter_map (fun (_, fresh, _) -> fresh) parts))
    else None
  in
  (* every part answered UNCHANGED — each is the memo's own record *)
  match (all_fresh, si.fold_cache) with
  | Some held, Some (prev_cut, prev, folded)
    when prev_cut = cutoff
         && Array.length prev = Array.length held
         && Array.for_all2 ( == ) prev held ->
    Ok (folded, false, [])
  | _ -> (
    let stale = ref [] in
    let decoded =
      List.filter_map
        (fun (part, fresh, fallback) ->
          let position = match part with `Home -> si.home | `Spill w -> w.wid in
          let fall_back () =
            stale := position :: !stale;
            Option.bind fallback (fun token -> Result.to_option (Io.of_wire token))
          in
          match fresh with
          | None -> fall_back ()
          | Some { token; _ } -> (
            match Io.of_wire token with
            | Error msg ->
              (* a token that would not decode is no fresher than no token *)
              Log.warn (fun m -> m "session %s: bad sketch: %s" name msg);
              fall_back ()
            | Ok io ->
              (* a windowed token is a restricted view: never the fallback *)
              (if cutoff = None then
                 match part with
                 | `Home -> si.last_good <- Some token
                 | `Spill w ->
                   if (Io.header io).Io.items = 0 && fallback = None && not t.read_only then
                     Hashtbl.remove si.spills w.wid
                   else Hashtbl.replace si.spills w.wid (Some token));
              Some io))
        parts
    in
    let stale_shards = List.sort_uniq compare !stale in
    match decoded with
    | [] -> Error (P.Server_error "no worker holds any data for this session")
    | _ -> (
      match
        Families.fold (List.map (fun v -> Families.Decoded v) decoded) ~seed:(next_seed t)
      with
      | Error msg -> Error (P.Server_error msg)
      | Ok folded ->
        si.merges <- si.merges + (List.length decoded - 1);
        (* only a gather where every token decoded cleanly may seed the memo *)
        (match all_fresh with
        | Some held when stale_shards = [] -> si.fold_cache <- Some (cutoff, held, folded)
        | _ -> ());
        Ok (folded, stale_shards <> [], stale_shards)))

(* Gather [name] under the lock and hand the session and the fold to [f]. *)
let gathered ?cutoff t name f =
  with_lock t (fun () ->
      Result.bind (find_session t name) (fun si ->
          Result.bind (gather ?cutoff t si name) (f si)))

let estimate t ~name =
  gathered t name (fun si (folded, degraded, stale_shards) ->
      let value = Families.estimate folded in
      si.last_estimate <- value;
      Ok (value, degraded, stale_shards))

(* The query's absolute cutoff, computed once coordinator-side.  An
   un-pinned instant comes from the injectable clock and is quantized down
   to [cutoff_bucket] so repeated idle-cluster WINs inside one bucket ship
   byte-identical Fetch cutoffs — the workers' wire caches and the fold memo
   then both hit.  A pinned [at] is taken exactly (reproducible runs). *)
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
  gathered ?cutoff t name (fun _ (folded, degraded, stale_shards) ->
      let value =
        match cutoff with
        | None -> Families.estimate folded
        | Some c ->
          (* re-filter on the fold: fresh parts are already restricted
             (no-op), but a degraded gather's stale full fallback still
             carries its timestamps and gets windowed correctly here *)
          Families.estimate_window folded ~cutoff:c
      in
      Ok (value, degraded, stale_shards))

let stats t ~name =
  gathered t name (fun si (folded, _, _) ->
      Ok
        {
          P.family = Families.family_token folded;
          items = Families.items folded;
          entries = Families.entries folded;
          exact = Families.is_exact folded;
          last_estimate = si.last_estimate;
          parse_rejects = si.rejects;
          merges = si.merges;
        })

(* An EXPR query needs no new worker verb: each leaf session is gathered
   exactly as EST gathers it — same degraded/last-good fallback, same
   per-session fold memo — and the evaluation (Families.eval_expr, which
   folds the leaves into a union only while every leaf is exact) runs
   coordinator-side on the gathered sketches.  The answer is degraded iff
   any leaf's gather was.

   [w] windows the query: each leaf still gathers un-windowed (sharing EST's
   fold memo and refreshing last_good), then the coordinator restricts it
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
            | Ok (folded, degraded, _), None -> Ok (folded, degraded)
            | Ok (folded, degraded, _), Some c -> (
              match Families.restrict folded ~cutoff:c ~seed:(next_seed t) with
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
  gathered ?cutoff t name (fun si (folded, _, _) ->
      (* restrict the encoded fold too: a degraded gather may have folded in
         a stale, un-windowed fallback *)
      Result.map_error
        (fun msg -> P.Server_error msg)
        (Families.encode ~merges:si.merges ?cutoff folded))

let snapshot_to t ~name ~path =
  gathered t name (fun si (folded, _, _) ->
      match Io.save ~path (Families.to_io ~merges:si.merges folded) with
      | () -> Ok ()
      | exception Sys_error msg -> Error (P.Io_error msg)
      | exception Invalid_argument msg -> Error (P.Server_error msg))

(* An external sketch joins the session on every usable replica — each copy
   must stay complete — or, with none usable, on a spill holder.  Its
   elements carry coins independent of the session's own, so this fold is
   the one where the merge caveat (DESIGN.md §3) applies. *)
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
        | [] -> Error (P.Server_error "no workers available")
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
      | Ok _ ->
        flush t;
        ignore
          (broadcast t
             (P.Close { session = name })
             ~accept:(function
               | P.Ok_reply _ | P.Error_reply (P.Unknown_session _) -> true
               | _ -> false));
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

let is_read_only t = with_lock t (fun () -> t.read_only)

(* Promotion re-derives every session's placement from the workers: a
   standby never saw which replicas the old primary skipped or where it
   spilled. *)
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
   connections are stamped by [ensure_conn].  Pipelined acks share each
   reply stream, so every connection is drained to quiescence before the
   synchronous COORD round-trip.  Returns the number of workers that
   accepted the stamp. *)
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
          | Some _ -> (
            flush_worker t w;
            drain_acks t w ~down_to:0;
            match w.conn with
            | None -> ()
            | Some conn ->
              if announce_epoch_on t w conn then incr accepted
              else quarantine t w))
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
                      let si =
                        new_session t d.P.sd_name ~family ~epsilon:d.P.sd_epsilon
                          ~delta:d.P.sd_delta ~log2_universe:d.P.sd_log2_universe
                      in
                      inherit_spills t si;
                      Hashtbl.replace t.sessions d.P.sd_name si)
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
      flush t;
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
  (* Connection/domain figures belong to the front door; [Frontend.handle]
     intercepts bare STATS before dispatch.  Reached directly (tests, a
     coordinator embedded without a frontend) only the gather freshness is
     reportable. *)
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
