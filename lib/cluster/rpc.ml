module P = Delphic_server.Protocol
module Frame = Delphic_server.Frame
module Evloop = Delphic_server.Evloop

(* Kept only for source compatibility with callers that still name the
   protocol: v2 is the one wire a client connection speaks. *)
type proto = V2

type recv_error =
  | Timed_out  (** the deadline passed with no complete reply frame; the
                   peer may still be alive, but its reply stream can no
                   longer be trusted to stay framed *)
  | Closed of string  (** EOF, a transport error, or a bad frame *)

(* Dial failures are typed so the caller can tell a black-holed address (the
   bounded dial budget elapsed with no SYN-ACK — quarantine, long backoff)
   from an active refusal or resolution failure (the host answered; retry
   soon may work). *)
type connect_error =
  | Dial_timeout of float  (** no connection within this many seconds *)
  | Dial_failed of string  (** resolution failure, ECONNREFUSED, ... *)

(* The socket ops behind a connection, pluggable so a fault-injection
   harness can wrap them.  Semantics mirror [Unix.read]/[Unix.write_substring]
   exactly: same return conventions, same exceptions. *)
type io = {
  io_read : Unix.file_descr -> Bytes.t -> int -> int -> int;
  io_write : Unix.file_descr -> string -> int -> int -> int;
}

let default_io = { io_read = Unix.read; io_write = Unix.write_substring }

type t = {
  fd : Unix.file_descr;
  io : io;
  host : string;
  port : int;
  timeout : float; (* default per-recv budget when no deadline is given *)
  (* Staged-but-unsent request frames: [stage] appends here without touching
     the socket, [flush_staged] ships the whole accumulation as one
     write+flush (writev-style coalescing).  [send]/[call] drain it first so
     a synchronous request can never leapfrog staged frames on the wire. *)
  buf : Buffer.t;
  (* Pooled v2 encode scratch: [stage] encodes each request body into this
     sink and frames straight out of it, so small frames (batch-1 ADDB)
     cost no per-request Buffer + string round trip. *)
  scratch : Frame.sink;
  (* Reads bypass in_channel: a raw [Unix.read] surfaces EAGAIN from
     SO_RCVTIMEO as a typed timeout instead of a Sys_error string, which is
     what lets [recv_timeout] tell "slow" from "dead".  Received bytes
     accumulate in one growable buffer: [rbuf.[rpos .. rlen-1]] is received
     but not yet consumed, always starting at a reply boundary.  A reply
     spanning many reads is appended chunk by chunk in place and decoded
     once.  The buffer grows to the largest reply seen (bounded by
     {!Frame.max_body} plus one read) and is reused. *)
  mutable rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  (* the SO_RCVTIMEO value currently armed on [fd]: re-arming costs a
     syscall per read, and in the steady state every recv wants the same
     budget, so [read_chunk] skips the setsockopt when close enough.
     Starts at 0.0 — an impossible budget — so the first read on any fresh
     or reconnected socket always arms explicitly instead of trusting a
     value inherited from a previous connection's life. *)
  mutable armed : float;
}

let address t = Printf.sprintf "%s:%d" t.host t.port

let describe_recv_error = function
  | Timed_out -> "timed out waiting for a reply"
  | Closed msg -> msg

let describe_connect_error = function
  | Dial_timeout budget -> Printf.sprintf "dial timed out after %.2fs" budget
  | Dial_failed msg -> msg

(* A write to a worker that died mid-conversation must surface as EPIPE
   (caught in [send]), not kill the whole coordinator process. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> Error (Printf.sprintf "no address for %S" host)
    | { Unix.h_addr_list; _ } -> Ok h_addr_list.(0)
    | exception Not_found -> Error (Printf.sprintf "cannot resolve %S" host))

(* Bytes asked of the kernel per read. *)
let read_size = 65536

let make_conn fd ~io ~host ~port ~timeout =
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
  let t =
    {
      fd;
      io;
      host;
      port;
      timeout;
      buf = Buffer.create 4096;
      scratch = Frame.sink_create 256;
      rbuf = Bytes.create (2 * read_size);
      rpos = 0;
      rlen = 0;
      armed = 0.0;
    }
  in
  (* The v2 preamble rides in the staging buffer: it reaches the wire ahead
     of the first staged frame in the same coalesced write, so protocol
     selection costs zero extra syscalls. *)
  Buffer.add_string t.buf Frame.preamble;
  t

let connect ?(io = default_io) ?proto:_ ?(dial_timeout = 2.0) ~host ~port
    ~timeout () =
  Lazy.force ignore_sigpipe;
  match resolve host with
  | Error msg -> Error (Dial_failed msg)
  | Ok addr -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let fail e =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Dial_failed (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e)))
    in
    let timed_out () =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Dial_timeout dial_timeout)
    in
    (* Nonblocking connect bounded by poll (select would cap the process at
       FD_SETSIZE descriptors): a plain connect can hang for minutes on an
       unreachable host, far beyond any useful RPC budget.  The dial gets
       its own budget, separate from the per-reply [timeout]: a black-holed
       address burns [dial_timeout] exactly once and then quarantines. *)
    Unix.set_nonblock fd;
    match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
      match Evloop.wait_fd fd ~write:true ~timeout:dial_timeout with
      | `Ready -> (
        match Unix.getsockopt_error fd with
        | None ->
          Unix.clear_nonblock fd;
          Ok (make_conn fd ~io ~host ~port ~timeout)
        | Some e -> fail e)
      | `Timeout -> timed_out ()
      | exception Unix.Unix_error (e, _, _) -> fail e)
    | exception Unix.Unix_error (e, _, _) -> fail e
    | () ->
      (* loopback can connect synchronously even in nonblocking mode *)
      Unix.clear_nonblock fd;
      Ok (make_conn fd ~io ~host ~port ~timeout))

let stage t req =
  P.encode_request_v2_sink t.scratch req;
  Frame.frame_sink_into t.buf t.scratch

let staged_bytes t = Buffer.length t.buf

let write_all t payload =
  let n = String.length payload in
  let off = ref 0 in
  while !off < n do
    match t.io.io_write t.fd payload !off (n - !off) with
    | 0 -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let flush_staged t =
  if Buffer.length t.buf = 0 then Ok ()
  else begin
    let payload = Buffer.contents t.buf in
    (* Cleared unconditionally: on failure the caller quarantines the
       connection and replays from its own pending queue, so resending these
       bytes on a fresh socket would duplicate frames. *)
    Buffer.clear t.buf;
    match write_all t payload with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  end

let send t req =
  stage t req;
  flush_staged t

(* Room for one more [read_size] read at [rlen]: slide the unconsumed
   bytes to the front first, and only grow when a single reply outgrows
   the buffer. *)
let reserve t =
  if Bytes.length t.rbuf - t.rlen < read_size then begin
    let live = t.rlen - t.rpos in
    let buf =
      if live + read_size <= Bytes.length t.rbuf then t.rbuf
      else Bytes.create (2 * (live + read_size))
    in
    Bytes.blit t.rbuf t.rpos buf 0 live;
    t.rbuf <- buf;
    t.rpos <- 0;
    t.rlen <- live
  end

(* One chunk off the socket, appended at [rlen], with SO_RCVTIMEO armed to
   whatever remains of [deadline] (clamped to 1ms: a zero timeout means
   block forever, and bytes already delivered to the kernel buffer are
   returned regardless, so an exhausted budget still collects a reply that
   has in fact arrived).  The setsockopt is skipped when the armed value is
   already within 10% of the budget — a stale-armed EAGAIN before the
   deadline just re-arms and retries, so the skip can delay a timeout by at
   most that 10%. *)
let rec read_chunk t ~deadline =
  let remaining = deadline -. Unix.gettimeofday () in
  let budget = if remaining < 0.001 then 0.001 else remaining in
  if Float.abs (t.armed -. budget) > 0.1 *. budget then begin
    (try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO budget
     with Unix.Unix_error _ -> ());
    t.armed <- budget
  end;
  reserve t;
  match t.io.io_read t.fd t.rbuf t.rlen read_size with
  | 0 -> Error (Closed "connection closed by peer")
  | k ->
    t.rlen <- t.rlen + k;
    Ok ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
    ->
    if Unix.gettimeofday () < deadline -. 0.0005 then read_chunk t ~deadline
    else Error Timed_out
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk t ~deadline
  | exception Unix.Unix_error (e, _, _) -> Error (Closed (Unix.error_message e))

(* Consume [n] bytes; an emptied buffer rewinds to its start for free. *)
let consume t n =
  t.rpos <- t.rpos + n;
  if t.rpos = t.rlen then begin
    t.rpos <- 0;
    t.rlen <- 0
  end

(* Replies are length-prefixed frames: the header says how much is missing,
   so no rescan is needed; the CRC is checked and the body decoded in place.
   A CRC mismatch means the stream can no longer be trusted to stay framed —
   same verdict as an undecodable body. *)
let rec read_frame t ~deadline =
  let avail = t.rlen - t.rpos in
  let len = if avail >= 8 then Frame.read_be32_bytes t.rbuf t.rpos else -1 in
  if len > Frame.max_body then Error (Closed "oversized reply frame")
  else if len >= 0 && avail >= 8 + len then begin
    let crc = Frame.read_be32_bytes t.rbuf (t.rpos + 4) in
    let pos = t.rpos + 8 in
    consume t (8 + len);
    (* [consume] moved only the indices: the body is still in place *)
    if Frame.crc32_bytes t.rbuf ~pos ~len <> crc then
      Error (Closed "CRC mismatch on reply frame")
    else Ok (P.parse_reply_frame t.rbuf ~pos ~len)
  end
  else
    match read_chunk t ~deadline with
    | Ok () -> read_frame t ~deadline
    | Error _ as e -> e

let recv_timeout ?deadline t =
  let deadline =
    match deadline with Some d -> d | None -> Unix.gettimeofday () +. t.timeout
  in
  match read_frame t ~deadline with
  | Error _ as e -> e
  | Ok (Ok _ as ok) -> ok
  (* an unparseable reply means the stream is misframed — the connection is
     as good as dead even though the socket is open *)
  | Ok (Error msg) -> Error (Closed msg)

let recv t = Result.map_error describe_recv_error (recv_timeout t)

let call t req = Result.bind (send t req) (fun () -> recv t)

let close t =
  (* shutdown first so a blocked peer sees EOF; the out channel shares the
     fd, so only the fd itself is closed *)
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()
