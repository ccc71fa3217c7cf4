module P = Delphic_server.Protocol
module Families = Delphic_server.Families
module Io = Delphic_core.Snapshot_io
module Rng = Delphic_util.Rng

let log_src = Logs.Src.create "delphic.cluster" ~doc:"scatter/gather coordinator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type sharding = Round_robin | By_hash

(* One wire frame awaiting its single reply line: either a legacy [ADD]
   (one item) or an [ADDB] carrying the whole array.  [bitems] keeps each
   payload's hop count so a replay after worker death still converges.
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
  mutable failures : int; (* consecutive, drives the backoff *)
  mutable quarantined_until : float; (* epoch seconds; 0.0 = available *)
  mutable generation : int;
      (* the worker's HELLO generation at the last successful resync; 0 =
         never asked, or a legacy worker that answers ERR UNSUPPORTED.  A
         reconnect that reads the same nonzero generation is a connection
         blip — the process (and its state) survived — and skips the
         re-open/reinject sweep entirely. *)
  staged : (string * string * float option * int) Queue.t;
      (* routed but not yet framed: (session, payload, ts, hops).  Nothing
         here has touched the socket; a death replays these verbatim. *)
  staged_log : (string * string * float option * int) Queue.t;
      (* backup replica copies awaiting framing, shipped as ADDL frames.
         The worker applies them on arrival just like ADDB; they stage
         apart from [staged] only so each role coalesces into full-size
         frames (the role alternates per payload hash, so one shared queue
         would break same-role runs every few payloads). *)
  pending : batch Queue.t; (* frames on the wire, one reply line owed each *)
  mutable in_flight : int; (* payload units across [pending] *)
  last_good : (string, string) Hashtbl.t;
      (* session -> the worker's last cleanly decoded full sketch token *)
}

type session_info = {
  family : P.family;
  epsilon : float;
  delta : float;
  log2_universe : float;
  mutable rr : int; (* round-robin cursor *)
  mutable last_estimate : float;
  mutable degraded : bool; (* the last gather used stale or missing data *)
  mutable rejects : int; (* Bad_line acks seen for this session *)
  mutable lost : int; (* adds dropped because no worker would take them *)
  mutable merges : int; (* gather folds performed *)
  (* Memoised fold: the cutoff and wire tokens of the last all-fresh gather
     and the sketch they folded to.  Workers encode lazily
     ({!Registry.fetch}'s wire cache), so a quiescent cluster answers every
     worker with a byte-identical token and the whole decode + fold is
     skipped — repeated EST (and repeated WIN at a stable cutoff bucket) on
     an idle cluster costs the RPCs alone. *)
  mutable fold_cache : (float option * string array * Families.t) option;
}

type t = {
  workers : worker array;
  sharding : sharding;
  replicas : int;
      (* copies of each payload: routed to this many distinct live workers,
         walking the ring from the shard's home position.  Replication buys
         availability, not accuracy: a VATIC gather folds every replica's
         sketch, and copies of one element on two workers carry independent
         coins, so at R = 2 the sketch-regime answer is roughly doubled (the
         merge caveat in DESIGN.md §3; ROADMAP item 1 tracks the fix).
         Exact-regime answers are unaffected — their tables union
         exactly. *)
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
     restarted with partial state): parked here by [retire_ack] — which can
     run deep inside a drain — and re-routed at the next safe point. *)
  orphans : (string * string * float option * int) Queue.t;
  (* While a gather has Fetch requests on the wire, a dying worker must not
     trigger an immediate requeue: re-routing its orphans would stage new
     frames on peers *behind* their un-collected sketch replies and misframe
     their streams.  Deaths are parked here and re-routed after collect. *)
  mutable in_gather : bool;
  deferred_deaths : worker Queue.t;
  (* Memoised cross-session fold of the last EXPR query: leaf names plus the
     physical identities of their per-session folds, and the union they
     folded to.  On an idle cluster every leaf gather hits its session's
     [fold_cache] and hands back the same physical value, so a repeated EXPR
     skips the cross-session merge tree too. *)
  mutable expr_cache : (string array * Families.t array * Families.t) option;
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
  mutable last_shard_fresh : int array;
      (* per-ring-position fresh-replica count from the most recent gather
         (any session); feeds SRVSTATS [shard_fresh=] *)
}

let create ?(sharding = By_hash) ?(replicas = 1) ?(timeout = 2.0)
    ?(dial_timeout = 2.0) ?(retries = 3) ?(backoff = 0.05) ?(window = 256)
    ?(batch = 64) ?(io = Rpc.default_io) ?proto:_
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
               failures = 0;
               quarantined_until = 0.0;
               generation = 0;
               staged = Queue.create ();
               staged_log = Queue.create ();
               pending = Queue.create ();
               in_flight = 0;
               last_good = Hashtbl.create 4;
             })
           workers);
    sharding;
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
    expr_cache = None;
    epoch;
    fenced_by = 0;
    read_only;
    max_worker_epoch = 0;
    last_shard_fresh = Array.make (List.length workers) 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let next_seed t =
  t.seq <- t.seq + 1;
  t.seed + (7919 * t.seq)

let address w = Printf.sprintf "%s:%d" w.host w.port

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

(* After a (re)connect the worker may be a fresh process: re-open every
   session and reinject its last known state.  SESSION-EXISTS means the
   worker kept its state across a connection blip — nothing to do. *)
let full_resync t w conn =
  let ok = ref true in
  Hashtbl.iter
    (fun name (si : session_info) ->
      if !ok then
        match
          Rpc.call conn
            (P.Open
               {
                 session = name;
                 family = si.family;
                 epsilon = si.epsilon;
                 delta = si.delta;
                 log2_universe = si.log2_universe;
               })
        with
        | Ok (P.Ok_reply _) -> (
          match Hashtbl.find_opt w.last_good name with
          | None -> ()
          | Some token -> (
            Log.info (fun m ->
                m "worker %s: reinjecting last good sketch of %s" (address w) name);
            match Rpc.call conn (P.Merge { session = name; encoded = token }) with
            | Ok (P.Ok_reply _) -> ()
            | Ok r ->
              Log.warn (fun m ->
                  m "worker %s: reinject failed: %s" (address w) (P.render_response r));
              ok := false
            | Error msg ->
              Log.warn (fun m -> m "worker %s: reinject failed: %s" (address w) msg);
              ok := false))
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
   the same process answered — the disconnect was a connection blip, its
   sessions and sketches are intact, and the re-open/reinject sweep (and
   the duplicate MERGE traffic it ships) can be skipped.  Any other answer
   — a new generation (restarted process, possibly recovered from its
   journal minus the unsynced tail), a zero, or ERR UNSUPPORTED from a
   pre-fencing worker — takes the full resync path, which is duplicate-safe
   either way. *)
let resync t w conn =
  match Rpc.call conn P.Hello with
  | Ok (P.Hello_reply { generation; epoch })
    when generation <> 0 && generation = w.generation ->
    if epoch > t.max_worker_epoch then t.max_worker_epoch <- epoch;
    Log.debug (fun m ->
        m "worker %s: generation %d unchanged — state intact, skipping resync"
          (address w) generation);
    true
  | Ok (P.Hello_reply { generation; epoch }) ->
    if epoch > t.max_worker_epoch then t.max_worker_epoch <- epoch;
    if w.generation <> 0 then
      Log.info (fun m ->
          m "worker %s: generation %d -> %d — restarted, re-driving state" (address w)
            w.generation generation);
    if full_resync t w conn then begin
      w.generation <- generation;
      true
    end
    else false
  | Ok (P.Error_reply (P.Unknown_command verb)) ->
    (* legacy worker: the ERR UNSUPPORTED reply echoes the verb it lacks;
       no fence available, resync unconditionally *)
    Log.info (fun m ->
        m "worker %s: does not support %s — legacy worker, full resync" (address w)
          (if verb = "" then "HELLO" else verb));
    w.generation <- 0;
    full_resync t w conn
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
   records the fact rather than fight the new primary.  Workers predating
   the verb answer ERR UNSUPPORTED and join un-stamped (no fence available —
   exactly the pre-fencing behaviour). *)
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
    | Ok (P.Error_reply (P.Unknown_command _)) -> true
    | Ok r ->
      Log.warn (fun m ->
          m "worker %s: COORD answered %s" (address w) (P.render_response r));
      false
    | Error msg ->
      Log.warn (fun m -> m "worker %s: COORD failed: %s" (address w) msg);
      false

(* The worker's connection if it is usable now: an existing one, or a fresh
   connect-announce-resync with [retries] attempts under exponential backoff.
   [None] while quarantined or unreachable.  A dial timeout (black-holed
   address) skips the in-round retries — each would burn a full dial budget
   against a host that is not answering SYNs — and quarantines at once. *)
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
            w.failures <- 0;
            w.quarantined_until <- 0.0;
            Some conn
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

(* --- batched pipelined scatter with at-least-once re-routing --- *)

let find_session t name =
  match Hashtbl.find_opt t.sessions name with
  | Some si -> Ok si
  | None -> Error (P.Unknown_session name)

(* Retire the oldest pending frame against one ack-shaped reply — [OKB] for
   an ADDB, [OK] for a legacy single ADD. *)
let retire_ack t w reply =
  match Queue.take_opt w.pending with
  | None -> w.in_flight <- 0 (* unreachable: in_flight tracks pending *)
  | Some b ->
    w.in_flight <- w.in_flight - Array.length b.bitems;
    let reject n =
      if n > 0 then
        match Hashtbl.find_opt t.sessions b.bsession with
        | Some si -> si.rejects <- si.rejects + n
        | None -> ()
    in
    (match reply with
    | P.Ok_reply _ -> ()
    | P.Ok_batch { accepted = _; errors } -> reject (List.length errors)
    | P.Error_reply (P.Bad_line _) ->
      (* the whole frame was refused — for a 1-item ADD frame that is
         exactly one rejected payload *)
      reject (Array.length b.bitems)
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
         from a worker that restarted mid-conversation with partial state.
         Counting the frame delivered would silently lose its payloads;
         park them for re-routing at the next safe point (retiring can run
         deep inside a drain, where routing would recurse). *)
      Log.warn (fun m ->
          m "worker %s: ingest refused (%s) — re-routing %d payload(s)" (address w)
            (P.describe_error e) (Array.length b.bitems));
      Array.iter
        (fun (payload, hops) ->
          Queue.push (b.bsession, payload, b.bts, hops + 1) t.orphans)
        b.bitems
    | r ->
      (* non-error, non-ack: the reply stream itself is suspect *)
      Log.warn (fun m ->
          m "worker %s: unexpected ingest ack %s" (address w) (P.render_response r)))

(* Read reply lines until at most [down_to] payload units remain unacked.
   One reply retires one whole frame.  Union estimation is
   duplicate-insensitive, so on failure the unacked frames can be replayed
   on other workers without harming correctness. *)
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

let has_staged w = not (Queue.is_empty w.staged && Queue.is_empty w.staged_log)

(* Frame [w.staged] into ADDB requests — consecutive same-session runs of up
   to [t.batch] payloads each, a lone payload as a legacy ADD — and
   [w.staged_log] into ADDL requests the same way, stage them
   all on the connection, and ship the accumulation as one coalesced write.
   Frames enter [w.pending] before the flush so a transport failure replays
   them via the quarantine path. *)
let flush_worker t w =
  if has_staged w then
    match w.conn with
    | None ->
      (* connection already gone with payloads still staged: hand them to
         the re-router directly *)
      !kill_requeue t w
    | Some conn ->
      let drain queue ~log =
        while not (Queue.is_empty queue) do
          let s0, p0, ts0, h0 = Queue.pop queue in
          let items = ref [ (p0, h0) ] in
          let count = ref 1 in
          let same_run = ref true in
          (* an ADDB/ADDL frame carries one t=, so only same-timestamp runs
             batch *)
          while !same_run && !count < t.batch do
            match Queue.peek_opt queue with
            | Some (s, _, ts, _) when String.equal s s0 && ts = ts0 ->
              let _, p, _, h = Queue.pop queue in
              items := (p, h) :: !items;
              incr count
            | _ -> same_run := false
          done;
          let bitems = Array.of_list (List.rev !items) in
          let req =
            if log then
              P.Add_log
                { session = s0; payloads = Array.to_list (Array.map fst bitems); ts = ts0 }
            else
              match bitems with
              | [| (payload, _) |] -> P.Add { session = s0; payload; ts = ts0 }
              | _ ->
                P.Add_batch
                  { session = s0; payloads = Array.to_list (Array.map fst bitems); ts = ts0 }
          in
          Rpc.stage conn req;
          Queue.push { bsession = s0; bts = ts0; bitems } w.pending;
          w.in_flight <- w.in_flight + Array.length bitems
        done
      in
      drain w.staged ~log:false;
      drain w.staged_log ~log:true;
      (match Rpc.flush_staged conn with
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

(* Route one payload to [t.replicas] distinct live workers, walking the
   ring from [start] (the shard's home position) and giving up a copy after
   every worker has been probed.  Dead ring positions are skipped, so under
   failures the copies land on the next live successors — the gather's
   coverage rule looks at the same successive window, and the union's
   duplicate-insensitivity makes any extra placement harmless.  Routing
   stages; a worker is shipped when its staging reaches the batch
   high-water mark, and [add_batch] ships every worker before it returns.
   [Ok] as soon as one copy is staged: fewer live workers than replicas
   degrades redundancy, not availability. *)
let route t si name payload ~ts ~start ~hops =
  let n = Array.length t.workers in
  if hops > n then begin
    si.lost <- si.lost + 1;
    Error (P.Server_error "no live worker accepted the set")
  end
  else begin
    let want = Stdlib.min t.replicas n in
    let placed = ref 0 in
    let i = ref 0 in
    while !placed < want && !i < n do
      let w = t.workers.((start + !i) mod n) in
      (match ensure_conn t w with
      | None -> ()
      | Some _conn ->
        (* copy 0 is the primary (ADDB), later copies are backups (ADDL);
           the worker applies both on arrival *)
        Queue.push (name, payload, ts, hops)
          (if !placed > 0 then w.staged_log else w.staged);
        incr placed;
        if Queue.length w.staged + Queue.length w.staged_log >= t.batch then
          ship_worker t w);
      incr i
    done;
    if !placed = 0 then begin
      si.lost <- si.lost + 1;
      Error (P.Server_error "no workers available")
    end
    else Ok ()
  end

(* Re-route a dead worker's staged payloads and unacked frames — oldest
   (sent-but-unacked) first, then the never-sent staging queue; wired into
   [quarantine] via the forward reference because death and re-routing are
   mutually recursive. *)
let requeue t w =
  let orphans = ref [] in
  Queue.iter
    (fun b ->
      Array.iter
        (fun (payload, hops) -> orphans := (b.bsession, payload, b.bts, hops) :: !orphans)
        b.bitems)
    w.pending;
  Queue.iter (fun item -> orphans := item :: !orphans) w.staged;
  Queue.iter (fun item -> orphans := item :: !orphans) w.staged_log;
  Queue.clear w.pending;
  Queue.clear w.staged;
  Queue.clear w.staged_log;
  w.in_flight <- 0;
  List.iter
    (fun (session, payload, ts, hops) ->
      match Hashtbl.find_opt t.sessions session with
      | None -> ()
      | Some si -> (
        match route t si session payload ~ts ~start:(w.wid + 1) ~hops:(hops + 1) with
        | Ok () -> ()
        | Error _ -> () (* already counted in si.lost *)))
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
  if w.in_flight > 0 || has_staged w then Error "pending acks could not be drained"
  else
    match w.conn with
    | None -> Error "connection lost while draining pending acks"
    | Some conn -> (
      match Rpc.call conn req with
      | Ok _ as ok -> ok
      | Error msg ->
        quarantine t w;
        Error msg)

let shard_start t si payload =
  match t.sharding with
  | Round_robin ->
    si.rr <- si.rr + 1;
    si.rr mod Array.length t.workers
  | By_hash ->
    (* identical set lines land on one worker, so duplicate-heavy streams
       cost nothing extra and cross-shard overlap stays geometric *)
    Hashtbl.hash payload mod Array.length t.workers

(* Re-route payloads parked by [retire_ack].  Deferred until no gather is
   collecting (new frames behind an un-collected Fetch are fine, but the
   drain a route can trigger is not) and until the drain that parked them
   has unwound. *)
let reroute_orphans t =
  if not t.in_gather then
    while not (Queue.is_empty t.orphans) do
      let session, payload, ts, hops = Queue.pop t.orphans in
      match Hashtbl.find_opt t.sessions session with
      | None -> ()
      | Some si -> (
        match route t si session payload ~ts ~start:(shard_start t si payload) ~hops with
        | Ok () -> ()
        | Error _ -> () (* already counted in si.lost *))
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

let open_session t ~name ~family ~epsilon ~delta ~log2_universe =
  with_lock t (fun () ->
      match mutation_guard t with
      | Error e -> Error e
      | Ok () ->
      if Hashtbl.mem t.sessions name then Error (P.Session_exists name)
      else begin
        (* Register first: resync inside ensure_conn must re-open this
           session on workers that connect during the broadcast. *)
        Hashtbl.replace t.sessions name
          {
            family;
            epsilon;
            delta;
            log2_universe;
            rr = 0;
            last_estimate = 0.0;
            degraded = false;
            rejects = 0;
            lost = 0;
            merges = 0;
            fold_cache = None;
          };
        let failures =
          broadcast t
            (P.Open { session = name; family; epsilon; delta; log2_universe })
            ~accept:(function
              | P.Ok_reply _ | P.Error_reply (P.Session_exists _) -> true
              | _ -> false)
        in
        let live =
          Array.fold_left (fun n w -> if w.conn <> None then n + 1 else n) 0 t.workers
        in
        if live = 0 then begin
          Hashtbl.remove t.sessions name;
          Error
            (P.Server_error
               (Printf.sprintf "no reachable workers: %s" (String.concat ", " failures)))
        end
        else Ok ()
      end)

let add ?ts t ~name ~payload =
  with_lock t (fun () ->
      match Result.bind (mutation_guard t) (fun () -> find_session t name) with
      | Error e -> Error e
      | Ok si ->
        let r = route t si name payload ~ts ~start:(shard_start t si payload) ~hops:0 in
        reroute_orphans t;
        r)

(* A whole client ADDB frame routed under one lock acquisition.  Each
   payload still shards independently (By_hash must keep duplicates
   colocated), so a frame may fan out across workers and re-batch there.
   The frame is already a batch, so nothing is held back: every worker
   with staged frames is shipped before the call returns, and the sets
   reach the worker estimators without waiting for a read.  Shipping
   repeats until nothing is staged, since a drain can park refused
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
            match
              route t si name payload ~ts ~start:(shard_start t si payload) ~hops:0
            with
            | Ok () -> incr accepted
            | Error e -> errors := (i, P.describe_error e) :: !errors)
          payloads;
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
      && Array.exists (fun w -> w.in_flight > 0 || has_staged w) t.workers
    then go (attempts - 1)
  in
  go (Array.length t.workers + 2)

(* Gather every worker's sketch for [name] and fold.  A worker that cannot
   answer contributes its last good snapshot (or nothing) and flags the
   estimate degraded.

   The fetch round-trips overlap.  Phase one walks the pool doing only
   writes: each connection's queued ADDB frames are shipped and the Fetch is
   staged behind them in the same stream, so every worker starts encoding
   its snapshot while its peers still receive theirs.  Phase two collects
   each connection's replies — first the acks owed for frames sent before
   the Fetch (the reply stream is strictly ordered, so reading exactly that
   many keeps it framed), then the sketch — under one shared absolute
   deadline: a slow worker can only burn whatever budget remains, and a
   fast worker's already-buffered reply is still collected at budget zero,
   so gather latency is max-of-workers, not sum-of-workers.  Phase three
   decodes each token and folds all of them — fresh and stale alike — in
   one k-way pass ({!Families.fold}): one table, one coin per distinct
   element.

   [cutoff] makes the gather windowed: the absolute instant is computed once
   by the caller and shipped verbatim in every Fetch, so all replicas expire
   against the same wall-clock point.  A windowed gather never updates
   [last_good] (a restricted sketch must not become the full-estimate
   fallback) and memoises its fold under its own cutoff key.

   Freshness is judged per {e ring position}, not per worker: with
   [replicas = R] a payload homed at position [i] lives on the first R live
   workers at positions [i, i+1, ...], so position [i] is covered as long as
   {e any} worker in that window answered fresh this gather (1-of-R).  The
   estimate is DEGRADED — and [stale_shards] names the positions — only
   when some position has no fresh replica at all; stale last-good parts are
   still folded in regardless (including extra data never hurts a union).
   With R = 1 this degenerates to exactly the old per-worker rule. *)
let gather ?cutoff t si name =
  let deadline = Unix.gettimeofday () +. t.timeout in
  let n = Array.length t.workers in
  (* per worker: frames owed ahead of the sketch reply; -1 = never asked *)
  let expect = Array.make n (-1) in
  (* worker i answered this gather with a cleanly decodable fresh sketch *)
  let fresh = Array.make n false in
  let parts = ref [] in
  (* per-position fresh-replica counts over the R-successor window, and the
     uncovered positions; records the counts for SRVSTATS as a side effect *)
  let coverage () =
    let r = Stdlib.min t.replicas n in
    let counts =
      Array.init n (fun i ->
          let c = ref 0 in
          for j = 0 to r - 1 do
            if fresh.((i + j) mod n) then incr c
          done;
          !c)
    in
    t.last_shard_fresh <- counts;
    let stale = ref [] in
    for i = n - 1 downto 0 do
      if counts.(i) = 0 then stale := i :: !stale
    done;
    !stale
  in
  t.in_gather <- true;
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
      (* phase one: broadcast, per connection, no reads *)
      Array.iteri
        (fun i w ->
          match ensure_conn t w with
          | None -> ()
          | Some _ ->
            flush_worker t w;
            (match w.conn with
            | None -> ()
            | Some conn ->
              Rpc.stage conn (P.Fetch { session = name; cutoff });
              (match Rpc.flush_staged conn with
              | Ok () -> expect.(i) <- Queue.length w.pending
              | Error msg ->
                Log.warn (fun m ->
                    m "worker %s: fetch broadcast failed: %s" (address w) msg);
                quarantine t w)))
        t.workers;
      (* phase two: collect, each worker bounded by the shared deadline *)
      Array.iteri
        (fun i w ->
          let stale () =
            match Hashtbl.find_opt w.last_good name with
            | Some token -> parts := (w, `Stale token) :: !parts
            | None -> ()
          in
          if expect.(i) < 0 then stale ()
          else
            match w.conn with
            | None -> stale ()
            | Some conn -> (
              let rec acks k =
                if k = 0 then Ok ()
                else
                  match Rpc.recv_timeout ~deadline conn with
                  | Ok reply ->
                    retire_ack t w reply;
                    acks (k - 1)
                  | Error _ as e -> e
              in
              match acks expect.(i) with
              | Error e ->
                Log.warn (fun m ->
                    m "worker %s: lost while draining acks: %s" (address w)
                      (Rpc.describe_recv_error e));
                quarantine t w;
                stale ()
              | Ok () -> (
                match Rpc.recv_timeout ~deadline conn with
                | Ok (P.Sketch encoded) ->
                  fresh.(i) <- true;
                  parts := (w, `Fresh encoded) :: !parts
                | Ok (P.Error_reply (P.Unknown_session _)) ->
                  (* a revived worker the resync could not refill *)
                  stale ()
                | Ok r ->
                  Log.warn (fun m ->
                      m "worker %s: SNAPSHOT answered %s" (address w)
                        (P.render_response r));
                  stale ()
                | Error e ->
                  (match e with
                  | Rpc.Timed_out ->
                    Log.warn (fun m ->
                        m
                          "worker %s: no sketch by the gather deadline — \
                           falling back to its last good snapshot"
                          (address w))
                  | Rpc.Closed msg ->
                    Log.warn (fun m ->
                        m "worker %s: SNAPSHOT failed: %s" (address w) msg));
                  quarantine t w;
                  stale ())))
        t.workers);
  (* phase three: decode every token, fold them all in one pass *)
  match List.rev !parts with
  | [] ->
    ignore (coverage ());
    Error (P.Server_error "no worker holds any data for this session")
  | parts_list -> (
    (* every worker answered a fresh token off the wire: if they are
       byte-identical to the last such gather, the fold is too *)
    let all_fresh =
      if not (Array.for_all Fun.id fresh) then None
      else
        let rec go acc = function
          | [] -> Some (Array.of_list (List.rev acc))
          | (_, `Fresh e) :: rest -> go (e :: acc) rest
          | (_, `Stale _) :: _ -> None
        in
        go [] parts_list
    in
    let cached =
      match (all_fresh, si.fold_cache) with
      | Some encs, Some (prev_cut, prev, folded)
        when prev_cut = cutoff
             && Array.length prev = Array.length encs
             && Array.for_all2 String.equal prev encs ->
        Some folded
      | _ -> None
    in
    match cached with
    | Some folded ->
      ignore (coverage ());
      Ok (folded, false, [])
    | None ->
    let decode token = Result.to_option (Io.of_wire token) in
    let last_good w = Option.bind (Hashtbl.find_opt w.last_good name) decode in
    let decoded =
      List.filter_map
        (fun (w, part) ->
          match part with
          | `Stale token -> decode token
          | `Fresh token -> (
            match Io.of_wire token with
            | Ok io ->
              (* a windowed token is a restricted view: never the fallback *)
              if cutoff = None then Hashtbl.replace w.last_good name token;
              Some io
            | Error msg ->
              (* a token that would not decode is no fresher than no token *)
              fresh.(w.wid) <- false;
              Log.warn (fun m -> m "worker %s: bad sketch: %s" (address w) msg);
              last_good w))
        parts_list
    in
    let stale_shards = coverage () in
    let degraded = stale_shards <> [] in
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
        | Some encs when Array.for_all Fun.id fresh ->
          si.fold_cache <- Some (cutoff, encs, folded)
        | _ -> ());
        Ok (folded, degraded, stale_shards)))

let estimate t ~name =
  with_lock t (fun () ->
      match find_session t name with
      | Error e -> Error e
      | Ok si -> (
        match gather t si name with
        | Error e -> Error e
        | Ok (folded, degraded, stale_shards) ->
          let value = Families.estimate folded in
          si.last_estimate <- value;
          si.degraded <- degraded;
          Ok (value, degraded, stale_shards)))

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
  with_lock t (fun () ->
      match find_session t name with
      | Error e -> Error e
      | Ok si ->
        let cutoff = win_cutoff t ~seconds ~at in
        (* an infinite window is a plain estimate: gather un-windowed so the
           fetch shares EST's memo and refreshes [last_good] *)
        let cutoff = if Float.is_finite cutoff then Some cutoff else None in
        (match gather ?cutoff t si name with
        | Error e -> Error e
        | Ok (folded, degraded, stale_shards) ->
          let value =
            match cutoff with
            | None -> Families.estimate folded
            | Some c ->
              (* re-filter on the fold: fresh parts are already restricted
                 (no-op), but a degraded gather's stale full fallback still
                 carries its timestamps and gets windowed correctly here *)
              Families.estimate_window folded ~cutoff:c
          in
          si.degraded <- degraded;
          Ok (value, degraded, stale_shards)))

let stats t ~name =
  with_lock t (fun () ->
      match find_session t name with
      | Error e -> Error e
      | Ok si -> (
        match gather t si name with
        | Error e -> Error e
        | Ok (folded, _, _) ->
          Ok
            {
              P.family = Families.family_token folded;
              items = Families.items folded;
              entries = Families.entries folded;
              exact = Families.is_exact folded;
              last_estimate = si.last_estimate;
              parse_rejects = si.rejects;
              merges = si.merges;
            }))

(* An EXPR query needs no new worker verb: each leaf session is gathered
   exactly as EST gathers it — same degraded/last-good fallback, same
   per-session fold memo — and the cross-session union fold plus the
   sample-and-probe evaluation run coordinator-side on the folded sketches.
   The answer is degraded iff any leaf's gather was.

   [w] windows the query: each leaf still gathers un-windowed (sharing EST's
   fold memo and refreshing last_good), then the coordinator restricts each
   folded leaf against one cutoff computed up front — so all leaves, and any
   stale fallback inside them, see the same instant. *)
let expr_query ?w t ~expr ~m =
  with_lock t (fun () ->
      let module E = P.Expr_ast in
      let names = E.leaves expr in
      if List.length names > E.max_leaves then
        Error
          (P.Bad_params
             (Printf.sprintf "expression names %d distinct sessions; the cap is %d"
                (List.length names) E.max_leaves))
      else
        let samples =
          match m with
          | None -> Delphic_server.Registry.default_expr_samples
          | Some n -> min n Delphic_server.Registry.max_expr_samples
        in
        let rec gather_leaves acc degraded = function
          | [] -> Ok (List.rev acc, degraded)
          | name :: rest -> (
            match find_session t name with
            | Error e -> Error e
            | Ok si -> (
              match gather t si name with
              | Error e -> Error e
              | Ok (folded, d, _) ->
                gather_leaves ((name, folded) :: acc) (degraded || d) rest))
        in
        let cutoff =
          match w with
          | Some secs when Float.is_finite secs ->
            Some (win_cutoff t ~seconds:secs ~at:None)
          | Some _ | None -> None
        in
        match gather_leaves [] false names with
        | Error e -> Error e
        | Ok (leaves, degraded) -> (
          match
            match cutoff with
            | None -> Ok leaves
            | Some c ->
              List.fold_left
                (fun acc (name, f) ->
                  Result.bind acc (fun rev ->
                      match Families.restrict f ~cutoff:c ~seed:(next_seed t) with
                      | Ok r -> Ok ((name, r) :: rev)
                      | Error msg -> Error (P.Server_error msg)))
                (Ok []) leaves
              |> Result.map List.rev
          with
          | Error e -> Error e
          | Ok leaves -> (
          let names_arr = Array.of_list (List.map fst leaves) in
          let folds_arr = Array.of_list (List.map snd leaves) in
          let union =
            match t.expr_cache with
            | Some (ns, fs, u)
              when Array.length ns = Array.length names_arr
                   && Array.for_all2 String.equal ns names_arr
                   && Array.for_all2 ( == ) fs folds_arr ->
              (* every leaf fold is physically the one we folded last time
                 (the per-session memo handed it back): the union is too *)
              Ok u
            | _ -> (
              let folded =
                match leaves with
                | [] -> Error (P.Bad_params "expression names no sessions")
                | [ (_, f) ] -> Ok f
                | _ ->
                  Result.map_error
                    (fun msg -> P.Bad_params msg)
                    (Families.fold
                       (List.map (fun (_, f) -> Families.Live f) leaves)
                       ~seed:(next_seed t))
              in
              match folded with
              | Ok u ->
                (* a windowed union is a throwaway view — caching it would
                   evict the full-query memo for nothing (the restricted
                   leaves are fresh values, the identity check cannot hit) *)
                if cutoff = None then t.expr_cache <- Some (names_arr, folds_arr, u);
                Ok u
              | Error _ as e -> e)
          in
          match union with
          | Error e -> Error e
          | Ok union -> (
            match Families.expr_estimate ~union ~leaves ~expr ~samples with
            | Ok outcome -> Ok (outcome, degraded)
            | Error msg -> Error (P.Bad_params msg)))))

let fetch ?cutoff t ~name =
  with_lock t (fun () ->
      match find_session t name with
      | Error e -> Error e
      | Ok si -> (
        match gather ?cutoff t si name with
        | Error e -> Error e
        | Ok (folded, _, _) ->
          (* restrict the encoded fold too: a degraded gather may have folded
             in a stale, un-windowed fallback *)
          Result.map_error
            (fun msg -> P.Server_error msg)
            (Families.encode ~merges:si.merges ?cutoff folded)))

let snapshot_to t ~name ~path =
  with_lock t (fun () ->
      match find_session t name with
      | Error e -> Error e
      | Ok si -> (
        match gather t si name with
        | Error e -> Error e
        | Ok (folded, _, _) -> (
          match Io.save ~path (Families.to_io ~merges:si.merges folded) with
          | () -> Ok ()
          | exception Sys_error msg -> Error (P.Io_error msg)
          | exception Invalid_argument msg -> Error (P.Server_error msg))))

(* An externally supplied sketch joins the union through whichever worker
   the round-robin cursor picks — the next gather folds it back in. *)
let merge_in t ~name ~encoded =
  with_lock t (fun () ->
      match Result.bind (mutation_guard t) (fun () -> find_session t name) with
      | Error e -> Error e
      | Ok si ->
        let n = Array.length t.workers in
        si.rr <- si.rr + 1;
        let start = si.rr mod n in
        let rec try_from i =
          if i >= n then Error (P.Server_error "no workers available")
          else
            let w = t.workers.((start + i) mod n) in
            match ensure_conn t w with
            | None -> try_from (i + 1)
            | Some _ -> (
              match call_sync t w (P.Merge { session = name; encoded }) with
              | Ok (P.Ok_reply _) -> Ok ()
              | Ok (P.Error_reply e) -> Error e
              | Ok r ->
                Error (P.Server_error ("unexpected MERGE reply " ^ P.render_response r))
              | Error msg ->
                Log.warn (fun m -> m "worker %s: MERGE failed: %s" (address w) msg);
                try_from (i + 1))
        in
        try_from 0)

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
        Array.iter (fun w -> Hashtbl.remove w.last_good name) t.workers;
        Hashtbl.remove t.sessions name;
        Ok ())

let live_workers t =
  with_lock t (fun () ->
      Array.fold_left (fun n w -> if w.conn <> None then n + 1 else n) 0 t.workers)

let shard_freshness t = with_lock t (fun () -> Array.to_list t.last_shard_fresh)

let epoch t = with_lock t (fun () -> t.epoch)

let is_fenced t = with_lock t (fun () -> t.fenced_by > t.epoch)

let is_read_only t = with_lock t (fun () -> t.read_only)

let set_read_only t flag = with_lock t (fun () -> t.read_only <- flag)

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
                      Hashtbl.replace t.sessions d.P.sd_name
                        {
                          family;
                          epsilon = d.P.sd_epsilon;
                          delta = d.P.sd_delta;
                          log2_universe = d.P.sd_log2_universe;
                          rr = 0;
                          last_estimate = 0.0;
                          degraded = false;
                          rejects = 0;
                          lost = 0;
                          merges = 0;
                          fold_cache = None;
                        })
                descs
            | Ok (P.Error_reply (P.Unknown_command _)) -> () (* legacy worker *)
            | Ok r ->
              Log.warn (fun m ->
                  m "worker %s: SESSIONS answered %s" (address w) (P.render_response r))
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
