module P = Delphic_server.Protocol

let log_src = Logs.Src.create "delphic.failover" ~doc:"warm-standby lease monitor"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  coord : Coordinator.t;
  primary_host : string;
  primary_port : int;
  interval : float;
  misses : int;
  dial_timeout : float;
  timeout : float;
  lock : Mutex.t;
  mutable seen_epoch : int; (* highest epoch the primary's leases carried *)
  mutable missed : int; (* consecutive lease failures *)
  mutable active : bool; (* promoted: this node is the primary now *)
  mutable stopping : bool;
  mutable conn : Rpc.t option; (* lease connection to the primary *)
  mutable thread : Thread.t option;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(interval = 0.5) ?(misses = 3) ?(dial_timeout = 2.0)
    ?(timeout = 2.0) ~primary:(primary_host, primary_port) ~coord () =
  if interval <= 0.0 then invalid_arg "Failover.create: need interval > 0";
  if misses < 1 then invalid_arg "Failover.create: need misses >= 1";
  (* the standby contract starts now: queries pass, mutations are refused *)
  Coordinator.set_read_only coord true;
  {
    coord;
    primary_host;
    primary_port;
    interval;
    misses;
    dial_timeout;
    timeout;
    lock = Mutex.create ();
    seen_epoch = 0;
    missed = 0;
    active = false;
    stopping = false;
    conn = None;
    thread = None;
  }

let drop_conn t =
  match t.conn with
  | Some c ->
    Rpc.close c;
    t.conn <- None
  | None -> ()

(* One lease round-trip.  Holds no result state beyond [seen_epoch]/[missed]:
   a healthy primary resets the miss counter, anything else — dial failure,
   timeout, a reply that is not an authoritative lease — counts one miss and
   drops the connection so the next poll re-dials from scratch. *)
let poll_once t =
  let conn =
    match t.conn with
    | Some c -> Some c
    | None -> (
      match
        Rpc.connect ~dial_timeout:t.dial_timeout ~host:t.primary_host
          ~port:t.primary_port ~timeout:t.timeout ()
      with
      | Ok c ->
        t.conn <- Some c;
        Some c
      | Error err ->
        Log.debug (fun m ->
            m "primary %s:%d unreachable: %s" t.primary_host t.primary_port
              (Rpc.describe_connect_error err));
        None)
  in
  match conn with
  | None -> t.missed <- t.missed + 1
  | Some c -> (
    match Rpc.call c P.Lease with
    | Ok (P.Lease_reply { epoch; primary = true }) ->
      if epoch > t.seen_epoch then t.seen_epoch <- epoch;
      t.missed <- 0
    | Ok (P.Lease_reply { epoch; primary = false }) ->
      (* the node we lease from is itself a standby — no one is renewing;
         treat it as a dead primary so one of us takes over *)
      if epoch > t.seen_epoch then t.seen_epoch <- epoch;
      t.missed <- t.missed + 1
    | Ok r ->
      Log.warn (fun m ->
          m "primary %s:%d answered LEASE with %s" t.primary_host t.primary_port
            (P.render_response r));
      drop_conn t;
      t.missed <- t.missed + 1
    | Error msg ->
      Log.debug (fun m ->
          m "lease from %s:%d failed: %s" t.primary_host t.primary_port msg);
      drop_conn t;
      t.missed <- t.missed + 1)

(* Promotion.  The new epoch must strictly dominate everything the old
   primary ever announced: the floor is the max of the epochs seen on its
   leases and the epochs the workers report in HELLO (the durable truth —
   covers a primary that died before this standby ever saw a lease).  The
   session table is rebuilt purely from worker SESSIONS listings; announcing
   the new epoch then fences every late write from the deposed primary. *)
let takeover t =
  let floor =
    Stdlib.max t.seen_epoch (Coordinator.max_known_epoch t.coord)
  in
  let epoch = floor + 1 in
  let sessions = Coordinator.sync_sessions t.coord in
  let stamped = Coordinator.announce_epoch t.coord ~epoch in
  Coordinator.set_read_only t.coord false;
  t.active <- true;
  drop_conn t;
  Log.info (fun m ->
      m "takeover: epoch %d announced to %d worker(s), %d session(s) recovered"
        epoch stamped sessions)

let takeover_now t = with_lock t (fun () -> if not t.active then takeover t)

let is_active t = with_lock t (fun () -> t.active)

let monitor t =
  let finished = ref false in
  while not !finished do
    Thread.delay t.interval;
    let stop =
      with_lock t (fun () ->
          if t.stopping || t.active then true
          else begin
            poll_once t;
            (* keep the standby warm for reads: relearn sessions the primary
               opened since the last poll (SESSIONS is a pure gather — the
               local table only ever gains entries, never touches workers) *)
            if t.missed = 0 then ignore (Coordinator.sync_sessions t.coord);
            if t.missed >= t.misses then begin
              Log.warn (fun m ->
                  m "primary %s:%d missed %d lease(s) — taking over" t.primary_host
                    t.primary_port t.missed);
              takeover t
            end;
            t.stopping || t.active
          end)
    in
    if stop then finished := true
  done

let start t =
  with_lock t (fun () ->
      match t.thread with
      | Some _ -> ()
      | None -> t.thread <- Some (Thread.create monitor t))

let stop t =
  let th =
    with_lock t (fun () ->
        t.stopping <- true;
        drop_conn t;
        let th = t.thread in
        t.thread <- None;
        th)
  in
  match th with Some th -> Thread.join th | None -> ()
