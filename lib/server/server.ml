let log_src = Logs.Src.create "delphic.server" ~doc:"estimation service"

module Log = (val Logs.src_log log_src : Logs.LOG)

type wal_config = {
  dir : string;
  fsync : Wal.fsync_policy;
  checkpoint_every : int;
}

type t = {
  registry : Registry.t;
  clock : unit -> float;
  spool : string;
  port : int;
  restored : (string * (unit, string) result) list;
  wal : (Wal.t * wal_config) option;
  coord_epoch : int Atomic.t;
      (* highest coordinator fencing epoch ever announced on any connection;
         a mutation from a connection stamped lower is refused (FENCED) *)
  mutable loop : Evloop.t option; (* set once by [create]; never unset *)
}

let loop_exn t = match t.loop with Some l -> l | None -> assert false

(* An ADD/ADDB without an explicit t= gets stamped here, at receive time,
   BEFORE dispatch and journaling — so the journal record carries the
   resolved timestamp and replay preserves window semantics.  Pre-timestamp
   journal records (and any stray untimestamped replayed line) resolve to
   t=0: all-history, never a spurious window hit. *)
let resolve_ts ~clock = function
  | Protocol.Add ({ ts = None; _ } as r) ->
    Protocol.Add { r with ts = Some (clock ()) }
  | Protocol.Add_batch ({ ts = None; _ } as r) ->
    Protocol.Add_batch { r with ts = Some (clock ()) }
  | Protocol.Add_log ({ ts = None; _ } as r) ->
    Protocol.Add_log { r with ts = Some (clock ()) }
  | req -> req

(* WAL recovery: load the last checkpoint (non-consuming — it must survive
   for the next crash), then re-drive the journal tail through the ordinary
   dispatch path.  Re-applied records double-count only counters; the
   estimators are unions, and unions are duplicate-insensitive.  Every
   record is a v2 frame body, whichever protocol the client spoke: binary
   for ADDB/ADDL, a text line for the other verbs; [parse_frame_body]
   decodes both. *)
let recover_from_wal registry w =
  let restored = Registry.restore_all ~consume:false registry ~dir:(Wal.checkpoint_dir w) in
  List.iter
    (function
      | name, Ok () -> Log.info (fun m -> m "restored session %s from checkpoint" name)
      | name, Error msg ->
        Log.warn (fun m -> m "checkpointed session %s not restored: %s" name msg))
    restored;
  let replayed, cut =
    Wal.replay w ~f:(fun body ->
        match Protocol.parse_frame_body body with
        | Error e ->
          Log.warn (fun m -> m "journal record unparseable: %s" (Protocol.describe_error e))
        | Ok req -> (
          match Registry.dispatch registry (resolve_ts ~clock:(fun () -> 0.0) req) with
          | Protocol.Error_reply e ->
            (* OPENs for checkpointed sessions replay as SESSION-EXISTS and
               the like — expected, the record predates the checkpoint race
               window.  Keep them out of the default log level. *)
            Log.debug (fun m -> m "journal replay: %s" (Protocol.describe_error e))
          | _ -> ()))
  in
  (match cut with
  | Some reason -> Log.warn (fun m -> m "journal tail dropped: %s" reason)
  | None -> ());
  Log.info (fun m ->
      m "recovery: %d checkpointed sessions, %d journal records replayed"
        (List.length restored) replayed);
  restored

(* Which verbs go through the journal: the ones that change what a future
   EST would answer.  Reads, probes and server-side SNAPSHOT (its own file
   is the durability) stay out. *)
let journaled_request = function
  | Protocol.Open _ | Protocol.Add _ | Protocol.Add_batch _ | Protocol.Add_log _
  | Protocol.Merge _ | Protocol.Restore _ | Protocol.Close _ ->
    true
  | Protocol.Est _ | Protocol.Win _ | Protocol.Stats _ | Protocol.Snapshot _
  | Protocol.Fetch _ | Protocol.Fetch_since _ | Protocol.Expr _ | Protocol.Ping | Protocol.Hello
  | Protocol.Server_stats | Protocol.Coord_epoch _ | Protocol.Sessions
  | Protocol.Lease ->
    false

let mutation_succeeded = function
  | Protocol.Ok_reply _ | Protocol.Ok_batch _ -> true
  | _ -> false

let run_checkpoint t w cfg =
  let fsync = cfg.fsync <> Wal.Never in
  let outcomes =
    Wal.checkpoint w ~spool:(fun ~dir -> Registry.snapshot_all ~fsync t.registry ~dir)
  in
  List.iter
    (function
      | _, Ok _ -> ()
      | name, Error msg -> Log.err (fun m -> m "checkpoint: session %s not spooled: %s" name msg))
    outcomes

(* Periodic checkpoint, inline on the event-loop thread right after the
   append that crossed [checkpoint_every]: the reply to that record leaves
   after the spool, and no record can land mid-spool.  A failed checkpoint
   is logged and the journal kept; the next record tries again. *)
let maybe_checkpoint t w cfg =
  if cfg.checkpoint_every > 0 && Wal.records_since_checkpoint w >= cfg.checkpoint_every
  then
    try run_checkpoint t w cfg
    with exn -> Log.err (fun m -> m "checkpoint failed: %s" (Printexc.to_string exn))

(* Bare STATS: the dispatch's reply with the loop's connection figures
   laid over it — the registry or coordinator behind the loop has no
   process identity.  [dispatched] is the one loop's count. *)
let overlay_stats loop = function
  | Protocol.Server_stats_reply s ->
    Protocol.Server_stats_reply
      {
        s with
        conns = Evloop.live_conns loop;
        shed = Evloop.shed_count loop;
        dispatched = [ Evloop.dispatched loop ];
      }
  | r -> r

(* The deposed-primary write fence.  A connection that announced an epoch
   which has since been overtaken gets its mutations refused; connections
   that never announced (direct clients, pre-failover coordinators) are
   never fenced. *)
let fenced t (ctx : Evloop.ctx) req =
  ctx.Evloop.epoch > 0
  && ctx.Evloop.epoch < Atomic.get t.coord_epoch
  && journaled_request req

(* The per-request seam the event loop dispatches into.  [raw] is the exact
   v2 wire frame when there is one: if the request needed no server-side
   timestamp stamping, the journal record is that frame spliced verbatim
   ({!Wal.append_framed}) — zero re-render, zero re-CRC.  A stamped request
   changed bytes, and a v1 client's request came as text, so both encode
   as a v2 body ({!Protocol.encode_request_v2}: binary, armor-free).  The
   append runs here, on the loop thread, before the verdict is returned:
   the OK cannot leave the socket ahead of its journal record. *)
let reply ~proto resp =
  match (proto, Protocol.reply_record resp) with
  | Evloop.V2, Some (head, body) -> Evloop.Record { head; body }
  | _ -> Evloop.Reply (Protocol.render_response resp)

let handle_request t ~ctx ~proto ~raw ~body =
  let render = Protocol.render_response in
  let parsed =
    match proto with
    | Evloop.V2 -> Protocol.parse_frame_body body
    | Evloop.V1 -> Protocol.parse_request body
  in
  match parsed with
  | Error e -> Evloop.Reply (render (Protocol.Error_reply e))
  | Ok Protocol.Hello ->
    Evloop.Reply (render (Protocol.Epoch_reply { epoch = Atomic.get t.coord_epoch }))
  | Ok Protocol.Server_stats ->
    Evloop.Reply
      (render (overlay_stats (loop_exn t) (Registry.dispatch t.registry Protocol.Server_stats)))
  | Ok (Protocol.Coord_epoch { epoch }) ->
    (* Announce: stamp the connection, highest epoch wins process-wide.  An
       announce already overtaken is refused — the deposed primary learns it
       is fenced at the handshake, before staging any writes.  The loop
       thread is the only writer, so the check and the store need no CAS. *)
    let cur = Atomic.get t.coord_epoch in
    if epoch < cur then Evloop.Reply (render (Protocol.Error_reply (Protocol.Fenced cur)))
    else begin
      Atomic.set t.coord_epoch epoch;
      ctx.Evloop.epoch <- epoch;
      Evloop.Reply (render (Protocol.Epoch_reply { epoch }))
    end
  | Ok req when fenced t ctx req ->
    Evloop.Reply
      (render (Protocol.Error_reply (Protocol.Fenced (Atomic.get t.coord_epoch))))
  | Ok req -> (
    let resolved = resolve_ts ~clock:t.clock req in
    match Registry.dispatch t.registry resolved with
    | resp -> (
      (* Journal the accepted mutation BEFORE the reply leaves: an OK the
         client saw is a record the journal holds.  A failed append turns
         the reply into an error — the mutation did land in memory, but
         re-driving it is duplicate-safe and honest about lost
         durability. *)
      match t.wal with
      | Some (w, cfg) when journaled_request resolved && mutation_succeeded resp -> (
        match
          (match proto with
          | Evloop.V2 when resolved == req && raw <> "" -> Wal.append_framed w raw
          | _ -> Wal.append w (Protocol.encode_request_v2 resolved))
        with
        | () ->
          maybe_checkpoint t w cfg;
          Evloop.Reply (render resp)
        | exception exn ->
          Log.err (fun m -> m "journal append failed: %s" (Printexc.to_string exn));
          Evloop.Reply
            (render
               (Protocol.Error_reply
                  (Protocol.Io_error ("journal append failed: " ^ Printexc.to_string exn)))))
      | _ -> reply ~proto resp)
    | exception exn ->
      (* A handler crash must kill one request, not the server. *)
      Evloop.Reply (render (Protocol.Error_reply (Protocol.Server_error (Printexc.to_string exn)))))

let create ?host ?(clock = Unix.gettimeofday) ?wal ?max_conns ~port
    ~spool ~seed () =
  let fd, port = Evloop.listen ?host ~port () in
  let registry = Registry.create ~clock ~seed () in
  let wal =
    Option.map (fun cfg -> (Wal.open_ ~dir:cfg.dir ~fsync:cfg.fsync, cfg)) wal
  in
  let restored =
    match wal with
    | Some (w, _) -> recover_from_wal registry w
    | None ->
      let restored = Registry.restore_all registry ~dir:spool in
      List.iter
        (function
          | name, Ok () -> Log.info (fun m -> m "restored session %s from spool" name)
          | name, Error msg ->
            Log.warn (fun m -> m "spooled session %s not restored: %s" name msg))
        restored;
      restored
  in
  let t =
    {
      registry;
      clock;
      spool;
      port;
      restored;
      wal;
      coord_epoch = Atomic.make 0;
      loop = None;
    }
  in
  let loop =
    Evloop.create ?max_conns ~listen_fd:fd
      ~handler:(fun ~ctx ~proto ~raw ~body -> handle_request t ~ctx ~proto ~raw ~body)
      ~on_bad_frame:(fun reason ->
        Some (Protocol.render_response (Protocol.Error_reply (Protocol.Io_error reason))))
      ()
  in
  t.loop <- Some loop;
  t

let port t = t.port
let registry t = t.registry
let restored t = t.restored
let request_stop t = Evloop.stop (loop_exn t)

let serve t =
  Log.info (fun m -> m "listening on port %d (spool: %s)" t.port t.spool);
  Evloop.run (loop_exn t);
  let n_spooled =
    match t.wal with
    | Some (w, cfg) ->
      (* Graceful stop under a journal = one final checkpoint; the spool
         directory stays untouched (the checkpoint dir is the durable home).
         A failure here is survivable — the journal still holds the tail. *)
      let outcomes =
        try
          run_checkpoint t w cfg;
          Registry.names t.registry |> List.length
        with exn ->
          Log.err (fun m -> m "final checkpoint failed: %s" (Printexc.to_string exn));
          0
      in
      Wal.close w;
      outcomes
    | None ->
      let outcomes = Registry.snapshot_all t.registry ~dir:t.spool in
      List.iter
        (function
          | name, Ok path -> Log.info (fun m -> m "spooled session %s to %s" name path)
          | name, Error msg -> Log.err (fun m -> m "failed to spool session %s: %s" name msg))
        outcomes;
      List.length outcomes
  in
  Log.info (fun m -> m "server stopped (%d sessions spooled)" n_spooled)

let start t = Thread.create serve t
