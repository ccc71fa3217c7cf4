module P = Delphic_server.Protocol
module Evloop = Delphic_server.Evloop

let log_src = Logs.Src.create "delphic.frontend" ~doc:"cluster frontend"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  port : int;
  mutable loop : Evloop.t option; (* set once by [create]; never unset *)
}

let loop_exn t = match t.loop with Some l -> l | None -> assert false

(* The frontend is pure request → response plumbing: parse, dispatch,
   render (a v2 SKETCH as the binary record, like a worker's).  No journal,
   so [raw] is unused and every reply is immediate.  [ctx] is unused:
   clients are never epoch-fenced at the front door (fencing is a
   worker-side concern).  Bare STATS goes to the dispatch too, and the
   loop's connection figures are laid over its reply. *)
let handle t dispatch ~ctx:_ ~proto ~raw:_ ~body =
  let parsed =
    match proto with
    | Evloop.V2 -> P.parse_frame_body body
    | Evloop.V1 -> P.parse_request body
  in
  let response =
    match parsed with
    | Error e -> P.Error_reply e
    | Ok req -> (
      match dispatch req with
      | resp -> (
        match req with
        | P.Server_stats -> Delphic_server.Server.overlay_stats (loop_exn t) resp
        | _ -> resp)
      | exception exn -> P.Error_reply (P.Server_error (Printexc.to_string exn)))
  in
  Delphic_server.Server.reply ~proto response

let create ?host ?max_conns ~port ~dispatch () =
  let fd, port = Evloop.listen ?host ~port () in
  let t = { port; loop = None } in
  let loop =
    Evloop.create ?max_conns ~listen_fd:fd ~handler:(handle t dispatch)
      ~on_bad_frame:(fun reason ->
        Some (P.render_response (P.Error_reply (P.Io_error reason))))
      ()
  in
  t.loop <- Some loop;
  t

let port t = t.port

let request_stop t = Evloop.stop (loop_exn t)

let serve t =
  Log.info (fun m -> m "frontend listening on port %d" t.port);
  Evloop.run (loop_exn t);
  Log.info (fun m -> m "frontend stopped")

let start t = Thread.create serve t
