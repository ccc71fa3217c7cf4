module P = Delphic_server.Protocol
module Evloop = Delphic_server.Evloop

let log_src = Logs.Src.create "delphic.frontend" ~doc:"cluster frontend"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  lock : Mutex.t;
  shard_fresh : unit -> int list;
      (* per-shard fresh-replica counts for SRVSTATS, injected by the
         coordinator ([fun () -> []] on non-replicated deployments) *)
  mutable stopping : bool;
  mutable loop : Evloop.t option; (* set once by [create]; never unset *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let loop_exn t = match t.loop with Some l -> l | None -> assert false

(* Bare STATS answered here: the front door owns the connection figures
   ([dispatched] is the one loop's count); no journal on a coordinator, so
   the WAL fields are 0. *)
let srvstats t =
  let loop = loop_exn t in
  P.Server_stats_reply
    {
      conns = Evloop.live_conns loop;
      shed = Evloop.shed_count loop;
      dispatched = [ Evloop.dispatched loop ];
      wal_queue = 0;
      wal_last_group = 0;
      wal_groups = 0;
      shard_fresh = (try t.shard_fresh () with _ -> []);
    }

(* The frontend is pure request → response plumbing: parse, dispatch,
   render (a v2 SKETCH as the binary record, like a worker's).  No journal,
   so [raw] is unused and every reply is immediate.  [ctx] is unused:
   clients are never epoch-fenced at the front door (fencing is a
   worker-side concern). *)
let handle t dispatch ~ctx:_ ~proto ~raw:_ ~body =
  let parsed =
    match proto with
    | Evloop.V2 -> P.parse_frame_body body
    | Evloop.V1 -> P.parse_request body
  in
  let response =
    match parsed with
    | Error e -> P.Error_reply e
    | Ok P.Server_stats -> srvstats t
    | Ok req -> (
      match dispatch req with
      | resp -> resp
      | exception exn -> P.Error_reply (P.Server_error (Printexc.to_string exn)))
  in
  Delphic_server.Server.reply ~proto response

let create ?(host = "127.0.0.1") ?max_conns ?(shard_fresh = fun () -> []) ~port
    ~dispatch () =
  (* a client that hangs up mid-reply must cost one connection, not the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  (try Unix.bind fd addr
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 1024;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let t =
    { listen_fd = fd; port; lock = Mutex.create (); shard_fresh; stopping = false; loop = None }
  in
  let loop =
    Evloop.create ?max_conns ~listen_fd:fd ~handler:(handle t dispatch)
      ~on_bad_frame:(fun reason ->
        Some (P.render_response (P.Error_reply (P.Io_error reason))))
      ()
  in
  t.loop <- Some loop;
  t

let port t = t.port

let request_stop t =
  let fresh =
    with_lock t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          true
        end)
  in
  if fresh then Evloop.stop (loop_exn t)

(* SIGTERM drains like SIGINT: a supervisor's stop is a graceful stop. *)
let install_signals t =
  List.iter
    (fun signum -> ignore (Sys.signal signum (Sys.Signal_handle (fun _ -> request_stop t))))
    [ Sys.sigint; Sys.sigterm ]

let serve t =
  Log.info (fun m -> m "frontend listening on port %d" t.port);
  Evloop.run (loop_exn t);
  with_lock t (fun () -> t.stopping <- true);
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Log.info (fun m -> m "frontend stopped")

let start t = Thread.create serve t
