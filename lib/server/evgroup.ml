let log_src = Logs.Src.create "delphic.evgroup" ~doc:"domain-sharded event loops"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Same C stubs as Evloop; externals link by C name, so redeclaring here
   costs nothing and keeps Evloop's internals private. *)
external fd_int : Unix.file_descr -> int = "%identity"
external poll_fds : int array -> int -> int array = "delphic_poll"

let ev_in = 1
let ev_err = 4

(* Cap the default at 8: past that the 16-stripe registry starts to
   contend, and the single acceptor dealing fds round-robin stops being
   the cheap part of the story. *)
let default_domains () = max 1 (min 8 (Domain.recommended_domain_count ()))

type t = {
  loops : Evloop.t array;
  shared : Evloop.shared;
  listen_fd : Unix.file_descr; (* accepted on by run's acceptor when sharded *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  mutable rr : int; (* round-robin cursor; acceptor thread only *)
}

let create ?(max_conns = 16384) ?(domains = 1) ~listen_fd ~handler ?on_bad_frame () =
  let domains = max 1 domains in
  let shared = Evloop.make_shared ~max_conns in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock stop_r;
  Unix.set_nonblock stop_w;
  let loops =
    if domains = 1 then
      (* single-domain: the loop owns the listening socket and accepts
         itself — no handoff hop, the pre-sharding fast path *)
      [| Evloop.create ~shared ~listen_fd ~handler ?on_bad_frame () |]
    else
      Array.init domains (fun _ -> Evloop.create ~shared ~handler ?on_bad_frame ())
  in
  { loops; shared; listen_fd; stop_r; stop_w; stop_flag = Atomic.make false; rr = 0 }

let domains t = Array.length t.loops
let live_conns t = Evloop.live_conns t.shared
let shed_count t = Evloop.shed_count t.shared
let dispatched t = Array.map Evloop.dispatched t.loops

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    (try ignore (Unix.single_write_substring t.stop_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    Array.iter Evloop.stop t.loops
  end

(* Accept a burst and deal the fds round-robin across the loops; shedding
   happens here, before any loop spends cycles on the socket. *)
let accept_burst t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      continue := false
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      Log.warn (fun m -> m "accept: out of file descriptors");
      continue := false
    | exception Unix.Unix_error _ -> continue := false
    | fd, _ ->
      if not (Evloop.try_admit t.shared) then begin
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        let i = t.rr in
        t.rr <- (i + 1) mod Array.length t.loops;
        Evloop.adopt t.loops.(i) fd
      end
  done

let drain_stop_pipe t =
  let b = Bytes.create 16 in
  let rec go () =
    match Unix.read t.stop_r b 0 16 with
    | _ -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let run t =
  if Array.length t.loops = 1 then Evloop.run t.loops.(0)
  else begin
    Unix.set_nonblock t.listen_fd;
    let doms =
      Array.map (fun loop -> Domain.spawn (fun () -> Evloop.run loop)) t.loops
    in
    let spec = [| fd_int t.stop_r; ev_in; fd_int t.listen_fd; ev_in |] in
    (while not (Atomic.get t.stop_flag) do
       let revents = poll_fds spec (-1) in
       if Array.length revents > 0 && revents.(0) land (ev_in lor ev_err) <> 0 then
         drain_stop_pipe t;
       if
         (not (Atomic.get t.stop_flag))
         && Array.length revents > 1
         && revents.(1) land (ev_in lor ev_err) <> 0
       then accept_burst t
     done);
    Array.iter Evloop.stop t.loops;
    Array.iter Domain.join doms
  end;
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  try Unix.close t.stop_w with Unix.Unix_error _ -> ()
