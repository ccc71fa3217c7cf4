let log_src = Logs.Src.create "delphic.evloop" ~doc:"readiness event loop"

module Log = (val Logs.src_log log_src : Logs.LOG)

type proto = V1 | V2

(* Unix.file_descr is the int itself on Unix; the stubs take plain ints so
   they need no unixsupport glue. *)
external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"
external epoll_create : unit -> int = "delphic_epoll_create"
external epoll_ctl : int -> int -> int -> int -> int = "delphic_epoll_ctl"
external epoll_wait : int -> int -> int array = "delphic_epoll_wait"
external poll_fds : int array -> int -> int array = "delphic_poll"
external poll1 : int -> int -> int -> int = "delphic_poll1"
external raise_nofile : int -> int = "delphic_raise_nofile"

let ev_in = 1
let ev_out = 2
let ev_err = 4

(* Client-side one-fd wait (nonblocking connect, read deadlines) — the
   poll-backed replacement for the old [Unix.select] calls, immune to
   FD_SETSIZE.  [timeout] < 0 waits forever. *)
let wait_fd fd ~write ~timeout =
  let want = if write then ev_out else ev_in in
  let deadline = if timeout < 0.0 then infinity else Unix.gettimeofday () +. timeout in
  let rec go () =
    let ms =
      if timeout < 0.0 then -1
      else
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then 0 else int_of_float (ceil (remaining *. 1000.0))
    in
    match poll1 (fd_int fd) want ms with
    | 0 -> `Timeout
    | -1 -> if Unix.gettimeofday () < deadline then go () else `Timeout
    | _ ->
      (* error bits included: let the caller's read/connect surface errno *)
      `Ready
  in
  go ()

type verdict =
  | Reply of string
  | Record of { head : string; body : string }

(* Per-connection handler state.  The loop itself never reads it: the seam
   exists so a handler can remember something about the peer across
   requests — the coordinator fencing epoch a [COORD] announce stamps on
   the connection that sent it. *)
type ctx = { mutable epoch : int }

type conn = {
  fd : Unix.file_descr;
  ifd : int;
  ctx : ctx;
  mutable proto : proto option; (* None until the first bytes arrive *)
  mutable rbuf : Bytes.t;
  mutable rpos : int; (* consumed prefix *)
  mutable rlen : int; (* valid bytes *)
  mutable rscan : int; (* v1: resume point for the newline scan *)
  pending : Buffer.t; (* replies not yet moved to [inflight] *)
  mutable inflight : string;
  mutable ioff : int;
  mutable reg_ev : int; (* events currently registered with the backend *)
  mutable rd_paused : bool; (* backpressure: output high-water crossed *)
  mutable closing : bool; (* stop reading; close once output drains *)
  mutable dead : bool;
}

type handler = ctx:ctx -> proto:proto -> raw:string -> body:string -> verdict

type t = {
  listen_fd : Unix.file_descr;
  listen_ifd : int;
  handler : handler;
  on_bad_frame : string -> string option;
  max_conns : int;
  mutable shed : int; (* accepts closed at once because of [max_conns] *)
  mutable dispatched : int; (* requests handled *)
  conns : (int, conn) Hashtbl.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  epfd : int; (* -1 => poll backend *)
}

let hi_water = 8 * 1024 * 1024
let lo_water = 1 * 1024 * 1024
let read_budget = 256 * 1024
let initial_rbuf = 8 * 1024

let listen ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 1024
   with e ->
     Unix.close fd;
     raise e);
  match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> (fd, p) | _ -> (fd, port)

let create ?(max_conns = 16384) ~listen_fd ~handler ?(on_bad_frame = fun _ -> None) () =
  (* a client that hangs up mid-reply must cost one connection, not the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock stop_r;
  Unix.set_nonblock stop_w;
  let epfd = epoll_create () in
  if epfd < 0 then Log.info (fun m -> m "epoll unavailable; using poll backend");
  {
    listen_fd;
    listen_ifd = fd_int listen_fd;
    handler;
    on_bad_frame;
    max_conns;
    shed = 0;
    dispatched = 0;
    conns = Hashtbl.create 1024;
    stop_r;
    stop_w;
    stop_flag = Atomic.make false;
    epfd;
  }

let live_conns t = Hashtbl.length t.conns
let shed_count t = t.shed
let dispatched t = t.dispatched

let stop t =
  if not (Atomic.exchange t.stop_flag true) then
    try ignore (Unix.single_write_substring t.stop_w "x" 0 1)
    with Unix.Unix_error _ -> ()

(* SIGTERM gets the same graceful path as SIGINT: a supervisor's stop (or a
   container runtime's) must spool/checkpoint exactly like a ^C. *)
let stop_on_signals stop =
  List.iter
    (fun signum -> ignore (Sys.signal signum (Sys.Signal_handle (fun _ -> stop ()))))
    [ Sys.sigint; Sys.sigterm ]

let backend_add t ifd ev = if t.epfd >= 0 then ignore (epoll_ctl t.epfd 0 ifd ev)
let backend_del t ifd = if t.epfd >= 0 then ignore (epoll_ctl t.epfd 2 ifd 0)

let close_conn t c =
  if not c.dead then begin
    c.dead <- true;
    backend_del t c.ifd;
    Hashtbl.remove t.conns c.ifd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  end

(* Bytes that still have to leave the socket. *)
let out_bytes c = String.length c.inflight - c.ioff + Buffer.length c.pending

let frame_reply c text =
  match c.proto with
  | Some V1 ->
    Buffer.add_string c.pending text;
    Buffer.add_char c.pending '\n'
  | Some V2 -> Frame.frame_into c.pending text
  | None -> ()

(* Push pending replies into the socket until it would block.
   EPIPE/ECONNRESET just kill the connection. *)
let rec flush_out t c =
  if not c.dead then begin
    if c.inflight = "" && Buffer.length c.pending > 0 then begin
      c.inflight <- Buffer.contents c.pending;
      c.ioff <- 0;
      Buffer.clear c.pending
    end;
    if c.inflight <> "" then begin
      let n = String.length c.inflight - c.ioff in
      match Unix.write_substring c.fd c.inflight c.ioff n with
      | k ->
        c.ioff <- c.ioff + k;
        if c.ioff = String.length c.inflight then begin
          c.inflight <- "";
          c.ioff <- 0;
          flush_out t c
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_out t c
      | exception Unix.Unix_error _ -> close_conn t c
    end
  end

let update_interest t c =
  if not c.dead then begin
    let out = out_bytes c in
    if c.rd_paused && out <= lo_water then c.rd_paused <- false;
    if c.closing && out = 0 then close_conn t c
    else begin
      let ev =
        (if c.closing || c.rd_paused then 0 else ev_in)
        lor (if out > 0 then ev_out else 0)
      in
      if ev <> c.reg_ev then begin
        if t.epfd >= 0 then ignore (epoll_ctl t.epfd 1 c.ifd ev);
        c.reg_ev <- ev
      end
    end
  end

let queue_reply c reply =
  frame_reply c reply;
  if out_bytes c > hi_water then c.rd_paused <- true

let run_handler t c proto ~raw ~body =
  t.dispatched <- t.dispatched + 1;
  match t.handler ~ctx:c.ctx ~proto ~raw ~body with
  | Reply reply -> queue_reply c reply
  | Record { head; body } ->
    if c.proto = Some V2 then begin
      Frame.frame_parts_into c.pending ~head body;
      if out_bytes c > hi_water then c.rd_paused <- true
    end
    else queue_reply c (head ^ body)
  | exception exn ->
    (* the server's handler turns its own failures into ERR replies; an
       exception here means the seam itself is broken — drop the conn *)
    Log.err (fun m -> m "handler raised %s; closing connection" (Printexc.to_string exn));
    c.closing <- true

let bad_frame t c reason =
  Log.warn (fun m -> m "protocol error: %s; closing connection" reason);
  (match c.proto with
  | Some _ -> (
    match t.on_bad_frame reason with
    | Some reply -> queue_reply c reply
    | None -> ())
  | None -> ());
  c.rpos <- c.rlen;
  c.rscan <- c.rlen;
  c.closing <- true

(* One pass over buffered input: detect the protocol on first bytes, then
   peel off as many complete requests as the buffer holds. *)
let process t c =
  let progress = ref true in
  while !progress && not c.dead && not c.closing do
    progress := false;
    match c.proto with
    | None ->
      if c.rlen - c.rpos >= 1 then
        if Bytes.get c.rbuf c.rpos <> '\x00' then begin
          c.proto <- Some V1;
          progress := true
        end
        else if c.rlen - c.rpos >= 4 then
          if Bytes.sub_string c.rbuf c.rpos 4 = Frame.preamble then begin
            c.proto <- Some V2;
            c.rpos <- c.rpos + 4;
            c.rscan <- c.rpos;
            progress := true
          end
          else bad_frame t c "bad v2 preamble"
    | Some V1 -> (
      match Bytes.index_from_opt c.rbuf c.rscan '\n' with
      | Some i when i < c.rlen ->
        let stop = if i > c.rpos && Bytes.get c.rbuf (i - 1) = '\r' then i - 1 else i in
        let line = Bytes.sub_string c.rbuf c.rpos (stop - c.rpos) in
        c.rpos <- i + 1;
        c.rscan <- c.rpos;
        run_handler t c V1 ~raw:"" ~body:line;
        progress := true
      | _ ->
        c.rscan <- c.rlen;
        if c.rlen - c.rpos > Frame.max_body then
          bad_frame t c "request line exceeds frame limit")
    | Some V2 -> (
      match Frame.scan c.rbuf ~pos:c.rpos ~len:c.rlen with
      | Frame.Need _ -> ()
      | Frame.Bad reason -> bad_frame t c reason
      | Frame.Got { body; next } ->
        let raw = Bytes.sub_string c.rbuf c.rpos (next - c.rpos) in
        c.rpos <- next;
        run_handler t c V2 ~raw ~body;
        progress := true)
  done;
  (* reclaim the consumed prefix so the buffer never creeps *)
  if c.rpos > 0 then begin
    let live = c.rlen - c.rpos in
    if live > 0 then Bytes.blit c.rbuf c.rpos c.rbuf 0 live;
    c.rlen <- live;
    c.rscan <- max 0 (c.rscan - c.rpos);
    c.rpos <- 0
  end

let ensure_capacity t c =
  if c.rlen = Bytes.length c.rbuf then begin
    let cap = Frame.max_body + 16 in
    if Bytes.length c.rbuf >= cap then bad_frame t c "request exceeds frame limit"
    else begin
      let b = Bytes.create (min cap (2 * Bytes.length c.rbuf)) in
      Bytes.blit c.rbuf 0 b 0 c.rlen;
      c.rbuf <- b
    end
  end

let on_readable t c =
  let budget = ref read_budget in
  let continue = ref true in
  while !continue && !budget > 0 && not c.dead && not c.closing do
    ensure_capacity t c;
    if c.dead || c.closing then continue := false
    else begin
      match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
      | 0 ->
        (* EOF: whatever is buffered is all there will ever be; flush
           queued replies, then close *)
        c.closing <- true;
        continue := false
      | k ->
        c.rlen <- c.rlen + k;
        budget := !budget - k;
        if k < Bytes.length c.rbuf - (c.rlen - k) then continue := false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
        close_conn t c;
        continue := false
    end
  done;
  if not c.dead then begin
    process t c;
    flush_out t c;
    update_interest t c
  end

let on_writable t c =
  flush_out t c;
  if not c.dead then update_interest t c

let register_conn t fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let c =
    {
      fd;
      ifd = fd_int fd;
      ctx = { epoch = 0 };
      proto = None;
      rbuf = Bytes.create initial_rbuf;
      rpos = 0;
      rlen = 0;
      rscan = 0;
      pending = Buffer.create 256;
      inflight = "";
      ioff = 0;
      reg_ev = ev_in;
      rd_paused = false;
      closing = false;
      dead = false;
    }
  in
  Hashtbl.replace t.conns c.ifd c;
  backend_add t c.ifd ev_in

(* Admission at accept time: under the cap admits, over it counts a shed.
   The loop is the only acceptor and registers an admitted fd before it
   accepts the next, so the cap is exact. *)
let try_admit t =
  if Hashtbl.length t.conns >= t.max_conns then begin
    t.shed <- t.shed + 1;
    false
  end
  else true

let accept_ready t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      continue := false
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      (* out of descriptors: nothing to do but stop accepting this round *)
      Log.warn (fun m -> m "accept: out of file descriptors");
      continue := false
    | exception Unix.Unix_error _ -> continue := false
    | fd, _ ->
      if not (try_admit t) then begin
        (* accept-and-drop beats leaving the backlog to time out: the
           client sees a crisp close instead of a hang *)
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else register_conn t fd
  done

let drain_stop_pipe t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.stop_r b 0 64 with
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* One readiness round on the poll backend: build the interleaved
   [fd; events] spec from live connections, mirror conns into an array so
   result slots map back. *)
let poll_round t =
  let n = Hashtbl.length t.conns in
  let extra = 2 (* the stop pipe, then the listening socket *) in
  let spec = Array.make ((n + extra) * 2) 0 in
  let index = Array.make (n + extra) None in
  spec.(0) <- fd_int t.stop_r;
  spec.(1) <- ev_in;
  spec.(2) <- t.listen_ifd;
  spec.(3) <- ev_in;
  let slot = ref extra in
  Hashtbl.iter
    (fun ifd c ->
      let i = !slot in
      if i < n + extra then begin
        spec.(i * 2) <- ifd;
        spec.(i * 2 + 1) <- c.reg_ev;
        index.(i) <- Some c;
        incr slot
      end)
    t.conns;
  let revents = poll_fds spec (-1) in
  let stop_hit = Array.length revents > 0 && revents.(0) land (ev_in lor ev_err) <> 0 in
  if stop_hit then drain_stop_pipe t;
  if Array.length revents > 1 && revents.(1) land ev_in <> 0 then accept_ready t;
  for i = extra to Array.length revents - 1 do
    match index.(i) with
    | None -> ()
    | Some c ->
      let ev = revents.(i) in
      if ev land ev_err <> 0 then close_conn t c
      else begin
        if ev land ev_out <> 0 then on_writable t c;
        if ev land ev_in <> 0 && not c.dead then on_readable t c
      end
  done

let epoll_round t =
  let evs = epoll_wait t.epfd (-1) in
  let n = Array.length evs / 2 in
  for i = 0 to n - 1 do
    let ifd = evs.(i * 2) and ev = evs.(i * 2 + 1) in
    if ifd = t.listen_ifd then (if ev land ev_in <> 0 then accept_ready t)
    else if ifd = fd_int t.stop_r then drain_stop_pipe t
    else
      (* a conn closed earlier in this same batch is simply gone *)
      match Hashtbl.find_opt t.conns ifd with
      | None -> ()
      | Some c ->
        if ev land ev_err <> 0 then close_conn t c
        else begin
          if ev land ev_out <> 0 then on_writable t c;
          if ev land ev_in <> 0 && not c.dead then on_readable t c
        end
  done

let run t =
  Unix.set_nonblock t.listen_fd;
  if t.epfd >= 0 then begin
    backend_add t t.listen_ifd ev_in;
    backend_add t (fd_int t.stop_r) ev_in
  end;
  (while not (Atomic.get t.stop_flag) do
     if t.epfd >= 0 then epoll_round t else poll_round t
   done);
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (fun c -> close_conn t c) conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  if t.epfd >= 0 then (try Unix.close (fd_of_int t.epfd) with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  try Unix.close t.stop_w with Unix.Unix_error _ -> ()
