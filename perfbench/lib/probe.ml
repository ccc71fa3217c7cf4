(* Outside-in probes of the running processes, taken between measured
   windows with one connection open at a time: bare and session STATS,
   PING round trips, and per-worker SNAPSHOT fetches that first miss and
   then hit the worker's encode memo. *)

module P = Delphic_server.Protocol
module Rpc = Delphic_cluster.Rpc

let now = Unix.gettimeofday

let fail what = function
  | Ok r -> failwith (Printf.sprintf "%s: unexpected reply %s" what (P.render_response r))
  | Error msg -> failwith (Printf.sprintf "%s: %s" what msg)

let srvstats c =
  match Rpc.call c P.Server_stats with Ok (P.Server_stats_reply s) -> s | r -> fail "STATS" r

let session_stats c name =
  match Rpc.call c (P.Stats { session = name }) with Ok (P.Stats_reply s) -> s | r -> fail ("STATS " ^ name) r

type node = { srv : P.server_stats; sessions : (string * P.stats) list }

type stats = { coord : node; workers : node list }

(* Bare STATS everywhere; session STATS for every session on every worker
   and for A on the coordinator (a gather). *)
let stats (sut : Sut.t) (spec : Spec.t) =
  let names = Array.to_list (Array.map (fun (s : Spec.session) -> s.name) spec.sessions) in
  let node port names =
    Loadgen.with_conn port (fun c ->
        let srv = srvstats c in
        { srv; sessions = List.map (fun n -> (n, session_stats c n)) names })
  in
  {
    coord = node sut.coord.port [ spec.sessions.(Spec.a).name ];
    workers = List.map (fun (w : Sut.proc) -> node w.port names) sut.workers;
  }

let ping_us port ~n =
  Loadgen.with_conn port (fun c ->
      List.init n (fun _ ->
          let t0 = now () in
          (match Rpc.call c P.Ping with Ok P.Pong -> () | r -> fail "PING" r);
          (now () -. t0) *. 1e6))

let fetch c name =
  match Rpc.call c (P.Fetch { session = name; cutoff = None }) with
  | Ok (P.Sketch tok) -> tok
  | r -> fail ("SNAPSHOT " ^ name) r

type fetches = {
  miss_ms : float list;
  hit_ms : float list;
  tokens : (string * string list) list;  (** session -> one token per worker *)
}

(* On each worker, [reps] times: one fresh frame into A straight to the
   worker, then SNAPSHOT A twice — the first encodes (memo miss), the second
   is served from the memo.  Then A's, B's and C's tokens are kept for the
   in-process gather replay. *)
let snapshots (gen : Loadgen.t) (sut : Sut.t) ~reps =
  let spec = gen.spec in
  let a = spec.sessions.(Spec.a).name in
  let leaves = Array.to_list (Array.sub spec.sessions 0 3) in
  let fetch_ms c name =
    let t0 = now () in
    ignore (fetch c name);
    (now () -. t0) *. 1e3
  in
  let per_worker =
    List.map
      (fun (w : Sut.proc) ->
        Loadgen.with_conn w.port (fun c ->
            let samples =
              List.init reps (fun _ ->
                  let fr, sent = Loadgen.send_frame gen c ~session:Spec.a ~count:spec.frame_sets in
                  (match sent with Ok () -> () | Error msg -> failwith ("probe frame: " ^ msg));
                  Loadgen.ack fr (Rpc.recv c);
                  let miss = fetch_ms c a in
                  let hit = fetch_ms c a in
                  (miss, hit))
            in
            let tokens = List.map (fun (s : Spec.session) -> (s.name, fetch c s.name)) leaves in
            (samples, tokens)))
      sut.workers
  in
  let samples = List.concat_map fst per_worker in
  let tokens =
    List.map
      (fun (s : Spec.session) -> (s.name, List.map (fun (_, toks) -> List.assoc s.name toks) per_worker))
      leaves
  in
  { miss_ms = List.map fst samples; hit_ms = List.map snd samples; tokens }
