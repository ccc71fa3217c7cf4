module Io = Delphic_core.Snapshot_io
module Parsers = Delphic_stream.Parsers

let ( let* ) = Result.bind

type session = {
  mutable runner : Families.t;  (* replaced wholesale by MERGE *)
  mutable adds : int;  (* ADD attempts, the per-session line counter *)
  mutable parse_rejects : int;
  mutable last_estimate : float;
  mutable merges : int;
  mutable version : int;
      (* names the session's state for a versioned fetch; redrawn from
         [versions] at every mutation *)
}

(* One counter for the whole process, so no two states of any session —
   even a session closed and re-opened under the same name — share a
   version.  A restarted process counts again from 1, which is why a
   coordinator trusts a version only on the connection it arrived on.
   Atomic because registries on different threads share it: a test or an
   in-process replay runs several servers in one process. *)
let versions = Atomic.make 0
let next_version () = 1 + Atomic.fetch_and_add versions 1

let touch s = s.version <- next_version ()

(* No lock: one thread owns a registry — a server's event loop, which also
   runs its checkpoints. *)
type t = {
  sessions : (string, session) Hashtbl.t;
  base_seed : int;
  clock : unit -> float;
      (* query clock for WIN/EXPR-w cutoffs when the request does not pin
         one; injectable so tests and replay are deterministic *)
  mutable opened : int;  (* distinct seeds for successive sessions *)
}

let create ?(clock = Unix.gettimeofday) ~seed () =
  { sessions = Hashtbl.create 16; base_seed = seed; clock; opened = 0 }

let now t = t.clock ()

let next_seed t =
  t.opened <- t.opened + 1;
  t.base_seed + (7919 * t.opened)

let with_session t name f =
  match Hashtbl.find_opt t.sessions name with
  | None -> Error (Protocol.Unknown_session name)
  | Some s -> f s

let open_session t ~name ~family ~epsilon ~delta ~log2_universe =
  if Hashtbl.mem t.sessions name then Error (Protocol.Session_exists name)
  else
    match Families.create ~family ~epsilon ~delta ~log2_universe ~seed:(next_seed t) with
    | Error msg -> Error (Protocol.Bad_params msg)
    | Ok runner ->
      Hashtbl.replace t.sessions name
        {
          runner;
          adds = 0;
          parse_rejects = 0;
          last_estimate = 0.0;
          merges = 0;
          version = next_version ();
        };
      Ok ()

let add ?ts t ~name ~payload =
  with_session t name (fun s ->
      s.adds <- s.adds + 1;
      touch s;
      match Families.add ?ts s.runner ~lineno:s.adds payload with
      | () -> Ok ()
      | exception Parsers.Parse_error { line; msg } ->
        s.parse_rejects <- s.parse_rejects + 1;
        Error (Protocol.Bad_line { line; msg }))

(* One session lookup and one version move for the whole frame — the
   point of ADDB.  A payload that fails to parse is recorded as (index,
   msg) and the rest of the frame still lands, mirroring the singleton
   path's keep-the-session-usable contract. *)
let add_batch ?ts t ~name ~payloads =
  with_session t name (fun s ->
      touch s;
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
  if Hashtbl.mem t.sessions name then begin
    Hashtbl.remove t.sessions name;
    Ok ()
  end
  else Error (Protocol.Unknown_session name)

let snapshot_session ?fsync s ~path =
  match Io.save ?fsync ~path (Families.to_io ~merges:s.merges s.runner) with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Protocol.Io_error msg)
  | exception Invalid_argument msg -> Error (Protocol.Server_error msg)

let snapshot_to t ~name ~path =
  with_session t name (fun s -> snapshot_session s ~path)

let fetch_since ?cutoff t ~name ~since =
  with_session t name (fun s ->
      if since = s.version then Ok (s.version, None)
      else
        match Families.encode ~merges:s.merges ?cutoff s.runner with
        | Ok encoded -> Ok (s.version, Some encoded)
        | Error msg -> Error (Protocol.Server_error msg))

let fetch ?cutoff t ~name =
  Result.map (fun (_, token) -> Option.get token) (fetch_since ?cutoff t ~name ~since:0)

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
          touch s;
          Ok ()))

let default_expr_samples = 256
let max_expr_samples = 65536

(* The leaves an EXPR reads and its draw count — refused before any leaf is
   touched when the expression names too many sessions.  The coordinator
   plans its EXPR with this too. *)
let expr_plan ~expr ~m =
  let module E = Protocol.Expr_ast in
  let names = E.leaves expr in
  if List.length names > E.max_leaves then
    Error
      (Protocol.Bad_params
         (Printf.sprintf "expression names %d distinct sessions; the cap is %d"
            (List.length names) E.max_leaves))
  else Ok (names, match m with None -> default_expr_samples | Some n -> min n max_expr_samples)

(* An EXPR query in two steps: clone each leaf session (a cheap snapshot
   round-trip), then evaluate on the clones (Families.eval_expr, which
   folds them into a union only while every leaf is exact).  Cross-leaf
   consistency is per-leaf point-in-time — the same contract a
   coordinator gather gives. *)
let expr_query ?w t ~expr ~m =
  let* names, samples = expr_plan ~expr ~m in
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
  Result.map_error
    (fun msg -> Protocol.Bad_params msg)
    (Families.eval_expr ~leaves ~expr ~samples ~seed:(next_seed t))

let restore_from t ~name ~path =
  if Hashtbl.mem t.sessions name then Error (Protocol.Session_exists name)
  else
    match Io.load ~path with
    | Error msg -> Error (Protocol.Io_error msg)
    | Ok io -> (
      match Families.of_io io ~seed:(next_seed t) with
      | Error msg -> Error (Protocol.Io_error msg)
      | Ok runner ->
        Hashtbl.replace t.sessions name
          {
            runner;
            adds = (Io.header io).Io.items;
            parse_rejects = 0;
            last_estimate = 0.0;
            merges = (Io.header io).Io.merges;
            version = next_version ();
          };
        Ok ())

let sorted_sessions t =
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.sessions []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let names t = List.map fst (sorted_sessions t)

(* The [SESSIONS] enumeration: every open session with its creation triple,
   sorted by name.  This is what makes workers the durable truth for a
   warm-standby coordinator — takeover re-registers routing entries from
   here instead of from a coordinator journal. *)
let session_descs t =
  sorted_sessions t
  |> List.map (fun (name, s) ->
         let epsilon, delta, log2u = Families.params s.runner in
         {
           Protocol.sd_name = name;
           sd_family = Families.family_token s.runner;
           sd_epsilon = epsilon;
           sd_delta = delta;
           sd_log2_universe = log2u;
         })

let spool_path dir name = Filename.concat dir (name ^ ".snap")

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let snapshot_all ?fsync t ~dir =
  let sessions = sorted_sessions t in
  match mkdir_p dir with
  | exception Unix.Unix_error (e, _, _) ->
    List.map (fun (name, _) -> (name, Error (Unix.error_message e))) sessions
  | () ->
    List.map
      (fun (name, s) ->
        let path = spool_path dir name in
        match snapshot_session ?fsync s ~path with
        | Ok () -> (name, Ok path)
        | Error e -> (name, Error (Protocol.describe_error e)))
      sessions

let restore_all ?(consume = true) t ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".snap")
    |> List.sort compare
    |> List.map (fun f ->
           let name = Filename.chop_suffix f ".snap" in
           let path = Filename.concat dir f in
           match restore_from t ~name ~path with
           | Ok () ->
             if consume then (try Sys.remove path with Sys_error _ -> ());
             (name, Ok ())
           | Error e -> (name, Error (Protocol.describe_error e)))

let dispatch t (req : Protocol.request) : Protocol.response =
  let reply = function Ok r -> r | Error e -> Protocol.Error_reply e in
  match req with
  | Protocol.Ping -> Protocol.Pong
  (* The registry has no process identity; the TCP server intercepts HELLO
     and answers with its real generation.  0 = "not generation-fenced". *)
  | Protocol.Hello -> Protocol.Hello_reply { generation = 0; epoch = 0 }
  (* Process-wide figures (conns, sheds, requests) live in the front door,
     not the session registry: it lays them over these zeros. *)
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
  | Protocol.Fetch_since { session; cutoff; since } ->
    reply
      (Result.map
         (fun (version, token) -> Protocol.Sketch_at { version; token })
         (fetch_since ?cutoff t ~name:session ~since))
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
