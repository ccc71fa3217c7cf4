module Io = Delphic_core.Snapshot_io
module Parsers = Delphic_stream.Parsers

let ( let* ) = Result.bind

type session = {
  slock : Mutex.t;  (* serialises estimator mutation for this session only *)
  mutable runner : Families.t;  (* replaced wholesale by MERGE *)
  mutable adds : int;  (* ADD attempts, the per-session line counter *)
  mutable parse_rejects : int;
  mutable last_estimate : float;
  mutable merges : int;
  mutable wire_cache : (float option * string) option;
      (* the session's Fetch token keyed by the fetch's cutoff, memoised
         until the next mutation: a coordinator polling EST (or WIN at a
         stable cutoff bucket) on a quiescent shard pays the snapshot encode
         once, not per gather *)
}

(* The table is striped: a session name hashes to one segment, whose mutex
   guards only that segment's [Hashtbl] — held for the lookup/insert/remove
   itself, never across estimator work.  Estimator mutation happens under
   the per-session [slock], so SNAPSHOT/EST on one session never blocks
   ADDB on another, even in the same segment. *)
type segment = { seg_lock : Mutex.t; sessions : (string, session) Hashtbl.t }

type t = {
  segments : segment array;
  base_seed : int;
  clock : unit -> float;
      (* query clock for WIN/EXPR-w cutoffs when the request does not pin
         one; injectable so tests and replay are deterministic *)
  meta : Mutex.t;  (* guards [opened] *)
  mutable opened : int;  (* distinct seeds for successive sessions *)
}

let create ?(stripes = 16) ?(clock = Unix.gettimeofday) ~seed () =
  if stripes < 1 then invalid_arg "Registry.create: need stripes >= 1";
  {
    segments =
      Array.init stripes (fun _ ->
          { seg_lock = Mutex.create (); sessions = Hashtbl.create 8 });
    base_seed = seed;
    clock;
    meta = Mutex.create ();
    opened = 0;
  }

let now t = t.clock ()

let with_mutex m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let segment_of t name = t.segments.(Hashtbl.hash name mod Array.length t.segments)

let next_seed t =
  with_mutex t.meta (fun () ->
      t.opened <- t.opened + 1;
      t.base_seed + (7919 * t.opened))

(* Lock ordering: a segment lock may be taken while holding nothing, or all
   segment locks together in index order (the whole-table operations); the
   [meta] and session locks are only ever taken under at most the segment
   locks and never the other way round, so no cycle exists. *)

let find_session t name =
  let seg = segment_of t name in
  with_mutex seg.seg_lock (fun () -> Hashtbl.find_opt seg.sessions name)

(* Run [f] on session [name] under its own lock.  The segment lock is
   released before [slock] is taken: a racing CLOSE can orphan the session
   so [f] mutates a table-less estimator, which is harmless — the stream
   semantics only promise that each session's operations serialise. *)
let with_session t name f =
  match find_session t name with
  | None -> Error (Protocol.Unknown_session name)
  | Some s -> with_mutex s.slock (fun () -> f s)

let open_session t ~name ~family ~epsilon ~delta ~log2_universe =
  let seg = segment_of t name in
  with_mutex seg.seg_lock (fun () ->
      if Hashtbl.mem seg.sessions name then Error (Protocol.Session_exists name)
      else
        match Families.create ~family ~epsilon ~delta ~log2_universe ~seed:(next_seed t) with
        | Error msg -> Error (Protocol.Bad_params msg)
        | Ok runner ->
          Hashtbl.replace seg.sessions name
            {
              slock = Mutex.create ();
              runner;
              adds = 0;
              parse_rejects = 0;
              last_estimate = 0.0;
              merges = 0;
              wire_cache = None;
            };
          Ok ())

let add ?ts t ~name ~payload =
  with_session t name (fun s ->
      s.adds <- s.adds + 1;
      s.wire_cache <- None;
      match Families.add ?ts s.runner ~lineno:s.adds payload with
      | () -> Ok ()
      | exception Parsers.Parse_error { line; msg } ->
        s.parse_rejects <- s.parse_rejects + 1;
        Error (Protocol.Bad_line { line; msg }))

(* One session-mutex acquisition for the whole frame — the point of ADDB.
   A payload that fails to parse is recorded as (index, msg) and the rest of
   the frame still lands, mirroring the singleton path's
   keep-the-session-usable contract. *)
let add_batch ?ts t ~name ~payloads =
  with_session t name (fun s ->
      s.wire_cache <- None;
      let accepted = ref 0 in
      let errors = ref [] in
      List.iteri
        (fun i payload ->
          s.adds <- s.adds + 1;
          match Families.add ?ts s.runner ~lineno:s.adds payload with
          | () -> incr accepted
          | exception Parsers.Parse_error { line = _; msg } ->
            s.parse_rejects <- s.parse_rejects + 1;
            errors := (i, msg) :: !errors)
        payloads;
      Ok (!accepted, List.rev !errors))

(* A backup replica copy lands in the estimator on arrival, exactly like an
   ADDB frame.  The ack counts every payload and lists no errors: the
   primary copy already reported any parse error to the sender, so here a
   malformed payload only bumps [parse_rejects]. *)
let add_log ?ts t ~name ~payloads =
  Result.map (fun _ -> List.length payloads) (add_batch ?ts t ~name ~payloads)

let estimate t ~name =
  with_session t name (fun s ->
      let v = Families.estimate s.runner in
      s.last_estimate <- v;
      Ok v)

(* Windowed estimate: the absolute cutoff is the pinned query instant (or
   the injectable clock's now) minus the window; [seconds = infinity] gives
   [cutoff = -inf] and agrees with EST exactly.  [last_estimate] is the
   full-stream STATS figure, so WIN leaves it alone. *)
let win t ~name ~seconds ~at =
  with_session t name (fun s ->
      let at = match at with Some a -> a | None -> now t in
      Ok (Families.estimate_window s.runner ~cutoff:(at -. seconds)))

let stats t ~name =
  with_session t name (fun s ->
      Ok
        {
          Protocol.family = Families.family_token s.runner;
          items = Families.items s.runner;
          entries = Families.entries s.runner;
          exact = Families.is_exact s.runner;
          last_estimate = s.last_estimate;
          parse_rejects = s.parse_rejects;
          merges = s.merges;
        })

let close t ~name =
  let seg = segment_of t name in
  with_mutex seg.seg_lock (fun () ->
      if Hashtbl.mem seg.sessions name then begin
        Hashtbl.remove seg.sessions name;
        Ok ()
      end
      else Error (Protocol.Unknown_session name))

let snapshot_session ?fsync s ~path =
  match Io.save ?fsync ~path (Families.to_io ~merges:s.merges s.runner) with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Protocol.Io_error msg)
  | exception Invalid_argument msg -> Error (Protocol.Server_error msg)

let snapshot_to t ~name ~path =
  with_session t name (fun s -> snapshot_session s ~path)

let fetch ?cutoff t ~name =
  with_session t name (fun s ->
      match s.wire_cache with
      | Some (key, encoded) when key = cutoff -> Ok encoded
      | _ -> (
        match Families.encode ~merges:s.merges ?cutoff s.runner with
        | Ok encoded ->
          s.wire_cache <- Some (cutoff, encoded);
          Ok encoded
        | Error msg -> Error (Protocol.Server_error msg)))

let merge_in t ~name ~encoded =
  with_session t name (fun s ->
      match Io.of_wire encoded with
      | Error msg -> Error (Protocol.Bad_params msg)
      | Ok v -> (
        match Families.fold [ Families.Live s.runner; Families.Decoded v ] ~seed:(next_seed t) with
        | Error msg -> Error (Protocol.Bad_params msg)
        | Ok merged ->
          let io = Io.header v in
          s.runner <- merged;
          s.adds <- s.adds + io.Io.items;
          s.merges <- s.merges + 1 + io.Io.merges;
          s.wire_cache <- None;
          Ok ()))

let default_expr_samples = 256
let max_expr_samples = 65536

(* An EXPR query in three steps: clone each leaf session under its own lock
   (cheap snapshot round-trip, so ingestion resumes immediately), fold the
   clones into one union sketch, then sample-and-probe lock-free on the
   clones.  Cross-leaf consistency is per-leaf point-in-time — the same
   contract a coordinator gather gives. *)
let expr_query ?w t ~expr ~m =
  let module E = Protocol.Expr_ast in
  let names = E.leaves expr in
  if List.length names > E.max_leaves then
    Error
      (Protocol.Bad_params
         (Printf.sprintf "expression names %d distinct sessions; the cap is %d"
            (List.length names) E.max_leaves))
  else
    let samples =
      match m with
      | None -> default_expr_samples
      | Some n -> min n max_expr_samples
    in
    (* The window cutoff is computed once, before any leaf is cloned, so
       every leaf is restricted against the same instant. *)
    let cutoff = Option.map (fun w -> now t -. w) w in
    let rec clone acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        let copied =
          with_session t name (fun s ->
              Result.map_error
                (fun msg -> Protocol.Server_error msg)
                (match cutoff with
                | None -> Families.copy s.runner ~seed:(next_seed t)
                | Some c -> Families.restrict s.runner ~cutoff:c ~seed:(next_seed t)))
        in
        match copied with
        | Ok c -> clone ((name, c) :: acc) rest
        | Error e -> Error e)
    in
    let* leaves = clone [] names in
    let* union =
      match leaves with
      | [] -> Error (Protocol.Bad_params "expression names no sessions")
      | [ (_, only) ] -> Ok only
      | _ ->
        Result.map_error
          (fun msg -> Protocol.Bad_params msg)
          (Families.fold
             (List.map (fun (_, c) -> Families.Live c) leaves)
             ~seed:(next_seed t))
    in
    match Families.expr_estimate ~union ~leaves ~expr ~samples with
    | Ok outcome -> Ok outcome
    | Error msg -> Error (Protocol.Bad_params msg)

(* caller holds the segment lock for [name] (or all of them) *)
let restore_session t ~name ~path =
  let seg = segment_of t name in
  if Hashtbl.mem seg.sessions name then Error (Protocol.Session_exists name)
  else
    match Io.load ~path with
    | Error msg -> Error (Protocol.Io_error msg)
    | Ok io -> (
      match Families.of_io io ~seed:(next_seed t) with
      | Error msg -> Error (Protocol.Io_error msg)
      | Ok runner ->
        Hashtbl.replace seg.sessions name
          {
            slock = Mutex.create ();
            runner;
            adds = (Io.header io).Io.items;
            parse_rejects = 0;
            last_estimate = 0.0;
            merges = (Io.header io).Io.merges;
            wire_cache = None;
          };
        Ok ())

let restore_from t ~name ~path =
  let seg = segment_of t name in
  with_mutex seg.seg_lock (fun () -> restore_session t ~name ~path)

(* Whole-table operations take every segment lock in index order (cycle-free
   by the ordering argument above), so they observe one consistent table:
   no session can be opened, closed, or restored while they run.  Per-session
   estimator reads still go through each session's own lock, so a handler
   mid-ADDB finishes its frame before the spool encodes that session. *)
let lock_all t f =
  Array.iter (fun seg -> Mutex.lock seg.seg_lock) t.segments;
  Fun.protect
    ~finally:(fun () -> Array.iter (fun seg -> Mutex.unlock seg.seg_lock) t.segments)
    f

let all_sessions_locked t =
  Array.to_list t.segments
  |> List.concat_map (fun seg ->
         Hashtbl.fold (fun name s acc -> (name, s) :: acc) seg.sessions [])

let names t =
  lock_all t (fun () -> List.map fst (all_sessions_locked t) |> List.sort compare)

(* The [SESSIONS] enumeration: every open session with its creation triple,
   sorted by name.  This is what makes workers the durable truth for a
   warm-standby coordinator — takeover re-registers routing entries from
   here instead of from a coordinator journal. *)
let session_descs t =
  lock_all t (fun () ->
      all_sessions_locked t
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (name, s) ->
             with_mutex s.slock (fun () ->
                 let epsilon, delta, log2u = Families.params s.runner in
                 {
                   Protocol.sd_name = name;
                   sd_family = Families.family_token s.runner;
                   sd_epsilon = epsilon;
                   sd_delta = delta;
                   sd_log2_universe = log2u;
                 })))

let spool_path dir name = Filename.concat dir (name ^ ".snap")

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let snapshot_all ?fsync t ~dir =
  lock_all t (fun () ->
      let sessions = all_sessions_locked t in
      match mkdir_p dir with
      | exception Unix.Unix_error (e, _, _) ->
        List.map (fun (name, _) -> (name, Error (Unix.error_message e))) sessions
      | () ->
        sessions
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (name, s) ->
               with_mutex s.slock (fun () ->
                   let path = spool_path dir name in
                   match snapshot_session ?fsync s ~path with
                   | Ok () -> (name, Ok path)
                   | Error e -> (name, Error (Protocol.describe_error e)))))

let restore_all ?(consume = true) t ~dir =
  lock_all t (fun () ->
      match Sys.readdir dir with
      | exception Sys_error _ -> []
      | files ->
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".snap")
        |> List.sort compare
        |> List.map (fun f ->
               let name = Filename.chop_suffix f ".snap" in
               let path = Filename.concat dir f in
               match restore_session t ~name ~path with
               | Ok () ->
                 if consume then (try Sys.remove path with Sys_error _ -> ());
                 (name, Ok ())
               | Error e -> (name, Error (Protocol.describe_error e))))

let dispatch t (req : Protocol.request) : Protocol.response =
  let reply = function Ok r -> r | Error e -> Protocol.Error_reply e in
  match req with
  | Protocol.Ping -> Protocol.Pong
  (* The registry has no process identity; the TCP server intercepts HELLO
     and answers with its real generation.  0 = "not generation-fenced". *)
  | Protocol.Hello -> Protocol.Hello_reply { generation = 0; epoch = 0 }
  (* Process-wide figures (conns, domains, WAL queue) live in the server,
     not the session registry; the TCP server intercepts bare STATS just
     like HELLO.  A registry reached directly has nothing to report. *)
  | Protocol.Server_stats ->
    Protocol.Server_stats_reply
      {
        conns = 0;
        shed = 0;
        dispatched = [];
        wal_queue = 0;
        wal_last_group = 0;
        wal_groups = 0;
        shard_fresh = [];
      }
  (* Epoch fencing is per-connection state, which only the TCP server has;
     a registry reached directly echoes the announce unfenced. *)
  | Protocol.Coord_epoch { epoch } -> Protocol.Epoch_reply { epoch }
  | Protocol.Sessions -> Protocol.Sessions_reply (session_descs t)
  (* Leases are between coordinators; a plain registry is never a lease
     target. *)
  | Protocol.Lease -> Protocol.Error_reply (Protocol.Unknown_command "LEASE")
  | Protocol.Open { session; family; epsilon; delta; log2_universe } ->
    reply
      (Result.map
         (fun () -> Protocol.Ok_reply (Some ("opened " ^ session)))
         (open_session t ~name:session ~family ~epsilon ~delta ~log2_universe))
  | Protocol.Add { session; payload; ts } ->
    reply (Result.map (fun () -> Protocol.Ok_reply None) (add ?ts t ~name:session ~payload))
  | Protocol.Add_batch { session; payloads; ts } ->
    reply
      (Result.map
         (fun (accepted, errors) -> Protocol.Ok_batch { accepted; errors })
         (add_batch ?ts t ~name:session ~payloads))
  (* A backup replica copy: same ack shape as ADDB so coordinator pipelining
     treats both uniformly; its parse errors only bump the reject counter. *)
  | Protocol.Add_log { session; payloads; ts } ->
    reply
      (Result.map
         (fun accepted -> Protocol.Ok_batch { accepted; errors = [] })
         (add_log ?ts t ~name:session ~payloads))
  | Protocol.Est { session } ->
    reply
      (Result.map
         (fun value -> Protocol.Estimate { value; degraded = false; stale_shards = [] })
         (estimate t ~name:session))
  | Protocol.Win { session; seconds; at } ->
    reply
      (Result.map
         (fun value -> Protocol.Estimate { value; degraded = false; stale_shards = [] })
         (win t ~name:session ~seconds ~at))
  | Protocol.Stats { session } ->
    reply (Result.map (fun s -> Protocol.Stats_reply s) (stats t ~name:session))
  | Protocol.Snapshot { session; path } ->
    reply
      (Result.map
         (fun () -> Protocol.Ok_reply (Some ("snapshotted " ^ session)))
         (snapshot_to t ~name:session ~path))
  | Protocol.Restore { session; path } ->
    reply
      (Result.map
         (fun () -> Protocol.Ok_reply (Some ("restored " ^ session)))
         (restore_from t ~name:session ~path))
  | Protocol.Fetch { session; cutoff } ->
    reply (Result.map (fun encoded -> Protocol.Sketch encoded) (fetch ?cutoff t ~name:session))
  | Protocol.Merge { session; encoded } ->
    reply
      (Result.map
         (fun () -> Protocol.Ok_reply (Some ("merged into " ^ session)))
         (merge_in t ~name:session ~encoded))
  | Protocol.Close { session } ->
    reply (Result.map (fun () -> Protocol.Ok_reply (Some ("closed " ^ session))) (close t ~name:session))
  | Protocol.Expr { expr; m; w } ->
    reply
      (Result.map
         (Protocol.expr_reply_of_outcome ~degraded:false)
         (expr_query ?w t ~expr ~m))
