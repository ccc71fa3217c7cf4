(* The load generator: one process, two threads, one v2 connection each to
   the coordinator, opened with the service's own {!Delphic_cluster.Rpc}
   client.

   In a measured window the ingest thread sends one [ADDB] frame per
   period with one in flight; every frame carries an explicit [t=] from the
   generator's logical clock, which advances one tick per frame.  The query
   thread runs an open loop at a fixed rate, timing each request from the
   moment it was due, and pins [WIN at=] to the same logical clock.  The
   capacity phase, run after the window with no query traffic, is a closed
   loop of pipelined frames.  Every frame and query is recorded with its
   wall times so the answers can be scored after the run. *)

module P = Delphic_server.Protocol
module Rpc = Delphic_cluster.Rpc

let now = Unix.gettimeofday

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Unix.sleepf d

(* Seconds a reply may take before the connection is given up. *)
let timeout = 5.0

let dial port =
  Result.map_error Rpc.describe_connect_error (Rpc.connect ~proto:Rpc.V2 ~host:"127.0.0.1" ~port ~timeout ())

let with_conn port f =
  match dial port with
  | Error msg -> failwith ("connect: " ^ msg)
  | Ok c -> Fun.protect ~finally:(fun () -> Rpc.close c) (fun () -> f c)

type frame = {
  session : int;
  first : int;  (** stream index of the frame's first set in its session *)
  count : int;
  stamp : float;  (** the frame's [t=] *)
  due : float;  (** when a paced frame was due; [sent] when pipelined *)
  sent : float;
  mutable acked : float;  (** [infinity] until an [OKB] for every set arrives *)
}

type outcome = Value of float | Low_support | Failed of string

type query = {
  kind : Spec.kind;
  due : float;
  sent : float;
  replied : float;
  at : float;  (** the logical clock when the query left *)
  outcome : outcome;
}

(* Generator state that outlives one phase: the stream cursors, the logical
   clock, and the log of every frame sent to this cluster. *)
type t = {
  spec : Spec.t;
  port : int;
  cursor : int array;
  clock : int Atomic.t;  (** frames stamped so far *)
  mutable frames : frame list;  (** newest first *)
}

let create spec ~port =
  { spec; port; cursor = Array.make (Array.length spec.Spec.sessions) 0; clock = Atomic.make 0; frames = [] }

let logical_now t = float_of_int (Atomic.get t.clock) *. t.spec.Spec.tick

(* The frames sent since the log held [before] of them, in send order. *)
let since t before =
  let fresh = List.length t.frames - before in
  List.rev (List.filteri (fun i _ -> i < fresh) t.frames)

(* Send the next frame of [session]: [count] sets from its cursor, stamped
   with the next tick, and log it. *)
let send_frame ?due t conn ~session ~count =
  let s : Spec.session = t.spec.Spec.sessions.(session) in
  let p = Array.length s.payloads in
  let first = t.cursor.(session) in
  t.cursor.(session) <- first + count;
  let stamp = float_of_int (Atomic.fetch_and_add t.clock 1 + 1) *. t.spec.Spec.tick in
  let payloads = List.init count (fun i -> s.payloads.((first + i) mod p)) in
  let sent = now () in
  let fr = { session; first; count; stamp; due = Option.value due ~default:sent; sent; acked = infinity } in
  t.frames <- fr :: t.frames;
  (fr, Rpc.send conn (P.Add_batch { session = s.name; payloads; ts = Some stamp }))

let ack fr = function
  | Ok (P.Ok_batch { accepted; errors = [] }) when accepted = fr.count -> fr.acked <- now ()
  | _ -> ()

(* Frames of [count] sets into the sessions [next] names, until it gives
   [None], with up to [window] in flight; every reply is collected before
   this returns.  A transport error ends the pipeline, and the frames still
   in flight stay unacknowledged. *)
let pipeline t conn ~window ~count next =
  let inflight = Queue.create () in
  let alive = ref true and more = ref true in
  let recv () =
    let fr = Queue.pop inflight in
    let r = Rpc.recv conn in
    ack fr r;
    if Result.is_error r then alive := false
  in
  while !alive && !more do
    (match next () with
    | None -> more := false
    | Some session -> (
      let fr, sent = send_frame t conn ~session ~count in
      match sent with Ok () -> Queue.push fr inflight | Error _ -> alive := false));
    if !alive && Queue.length inflight >= window then recv ()
  done;
  while !alive && not (Queue.is_empty inflight) do
    recv ()
  done

let expect_ok what = function
  | Ok (P.Ok_reply _ | P.Estimate { degraded = false; _ }) -> ()
  | Ok r -> failwith (Printf.sprintf "%s: %s" what (P.render_response r))
  | Error msg -> failwith (Printf.sprintf "%s: %s" what msg)

(* Open every session, send the preload with 8 frames of 64 sets in flight,
   then read each session once so replica logs are materialised before the
   measured window. *)
let setup t =
  with_conn t.port (fun conn ->
      Array.iter
        (fun (s : Spec.session) ->
          expect_ok ("OPEN " ^ s.name)
            (Rpc.call conn
               (P.Open
                  {
                    session = s.name;
                    family = P.Rect;
                    epsilon = Spec.epsilon;
                    delta = Spec.delta;
                    log2_universe = Spec.log2_universe;
                  })))
        t.spec.Spec.sessions;
      let todo =
        ref (List.concat_map (fun (session, sets) -> List.init ((sets + 63) / 64) (fun _ -> session)) t.spec.Spec.preload)
      in
      pipeline t conn ~window:8 ~count:64 (fun () ->
          match !todo with
          | [] -> None
          | s :: rest ->
            todo := rest;
            Some s);
      if List.exists (fun fr -> fr.acked = infinity) t.frames then failwith "preload frame refused";
      Array.iter
        (fun (s : Spec.session) -> expect_ok ("EST " ^ s.name) (Rpc.call conn (P.Est { session = s.name })))
        t.spec.Spec.sessions)

let classify = function
  | Ok (P.Estimate { value; degraded = false; _ }) -> Value value
  | Ok (P.Expr_reply { value = Some v; degraded = false; _ }) -> Value v
  | Ok (P.Expr_reply { value = None; degraded = false; _ }) -> Low_support
  | Ok (P.Estimate { degraded = true; _ } | P.Expr_reply { degraded = true; _ }) -> Failed "DEGRADED"
  | Ok (P.Error_reply e) -> Failed ("ERR " ^ P.error_code e)
  | Ok r -> Failed ("unexpected reply " ^ P.render_response r)
  | Error msg -> Failed msg

(* Sessions of [fed], round robin. *)
let cycle fed =
  let i = ref 0 in
  fun () ->
    let s = fed.(!i mod Array.length fed) in
    incr i;
    s

let ingest_loop t conn ~start ~until =
  let rate = t.spec.Spec.ingest_rate and count = t.spec.Spec.frame_sets in
  let next_session = cycle t.spec.Spec.fed in
  let alive = ref true in
  let k = ref 0 in
  let due () = start +. (float_of_int !k /. rate) in
  while !alive && due () < until do
    sleep_until (due ());
    let fr, sent = send_frame ~due:(due ()) t conn ~session:(next_session ()) ~count in
    (match sent with
    | Ok () ->
      let r = Rpc.recv conn in
      ack fr r;
      if Result.is_error r then alive := false
    | Error _ -> alive := false);
    incr k
  done

(* The query connection is its own: after a timeout or a transport error
   its framing is lost, so it is closed and the next request dials again. *)
let query_loop t ~start ~until =
  let spec = t.spec in
  let conn = ref None in
  let call req =
    match match !conn with Some c -> Ok c | None -> dial t.port with
    | Error msg -> Error ("connect: " ^ msg)
    | Ok c ->
      let r = Rpc.call c req in
      (match r with
      | Ok _ -> conn := Some c
      | Error _ ->
        Rpc.close c;
        conn := None);
      r
  in
  let out = ref [] in
  let k = ref 0 in
  let due () = start +. (float_of_int !k /. spec.Spec.query_rate) in
  (match dial t.port with Ok c -> conn := Some c | Error _ -> ());
  Fun.protect
    ~finally:(fun () -> Option.iter Rpc.close !conn)
    (fun () ->
      while due () < until do
        let due = due () in
        sleep_until due;
        let kind = Spec.kinds.(!k mod Array.length Spec.kinds) in
        let at = logical_now t in
        let req = Spec.request spec kind ~at in
        let sent = now () in
        let reply = call req in
        let replied = now () in
        out := { kind; due; sent; replied; at; outcome = classify reply } :: !out;
        incr k
      done);
  List.rev !out

type phase = {
  measure_from : float;
  until : float;
  seconds : float;
  sent : frame list;  (** this phase's frames, in send order *)
  queries : query list;
}

(* One measured window: [warm] seconds of unrecorded-for-metrics warm-up,
   then [seconds] measured.  Both connections open at the start and close at
   the end, so probes between phases never hold more than two. *)
let run_phase t ~warm ~seconds =
  let before = List.length t.frames in
  let start = now () +. 0.05 in
  let until = start +. warm +. seconds in
  let queries =
    with_conn t.port (fun ingest_conn ->
        let q = Domain.spawn (fun () -> query_loop t ~start ~until) in
        sleep_until start;
        (try ingest_loop t ingest_conn ~start ~until with e -> ignore (Domain.join q); raise e);
        Domain.join q)
  in
  { measure_from = start +. warm; until; seconds; sent = since t before; queries }

(* Frames in flight during the capacity phase. *)
let capacity_window = 4

(* Ingest capacity: a closed loop of [capacity_window] pipelined frames of
   64 sets over the workload's fed sessions, with no query traffic, for
   [seconds].  Returns the phase's frames. *)
let capacity t ~seconds =
  let before = List.length t.frames in
  let next_session = cycle t.spec.Spec.fed in
  with_conn t.port (fun conn ->
      let until = now () +. seconds in
      pipeline t conn ~window:capacity_window ~count:64 (fun () ->
          if now () < until then Some (next_session ()) else None));
  since t before
