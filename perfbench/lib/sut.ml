(* The system under test: one [delphic coord] and three [delphic worker]
   processes on loopback, spawned from the checkout's own build.

   Every flag is a CLI default except the two that pick directories and
   [--wal-group 1] (see [wal_group_reason]).  Ports are ephemeral: each
   process is started with [-p 0] and its bound port is read back from the
   "listening on" banner it prints. *)

let exe = "_build/default/bin/main.exe"

let workers = 3

let wal_group_reason =
  "group commit (the --wal-group 64 default) stalls acks until the \
   coordinator's 2 s timeout under pipelined ingest, giving a 10x bimodal \
   spread no bound can absorb"

type proc = { name : string; pid : int; port : int; argv : string list }

type t = { coord : proc; workers : proc list; dir : string }

let now = Unix.gettimeofday

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* "... listening on 127.0.0.1:41234 ..." -> 41234 *)
let port_of_banner text =
  let key = "listening on " in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length text then None
    else if String.sub text i kl = key then Some (i + kl)
    else find (i + 1)
  in
  Option.bind (find 0) (fun start ->
      match String.index_from_opt text start ':' with
      | None -> None
      | Some colon ->
        let j = ref (colon + 1) in
        while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
          incr j
        done;
        int_of_string_opt (String.sub text (colon + 1) (!j - colon - 1)))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let spawn ~dir ~name args =
  let log = Filename.concat dir (name ^ ".log") in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv = exe :: args in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list argv) null out out)
  in
  let deadline = now () +. 15.0 in
  let rec wait () =
    let text = try Procfs.read_file log with Sys_error _ -> "" in
    match port_of_banner text with
    | Some port -> { name; pid; port; argv }
    | None ->
      if exited pid then failwith (Printf.sprintf "%s exited before listening: %s" name text)
      else if now () > deadline then begin
        kill_and_reap pid;
        failwith (Printf.sprintf "%s did not report a port within 15 s" name)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
  in
  wait ()

let worker_args ~dir i =
  let home = Filename.concat dir (Printf.sprintf "w%d" i) in
  [ "worker"; "-p"; "0"; "--spool"; Filename.concat home "spool"; "--wal"; Filename.concat home "wal";
    "--wal-group"; "1" ]

(* SIGTERM, then SIGKILL for anything still alive after [grace] seconds;
   every child is reaped before this returns. *)
let stop_procs ?(grace = 5.0) procs =
  List.iter (fun p -> try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ()) procs;
  let deadline = now () +. grace in
  let rec reap pending =
    let pending = List.filter (fun p -> not (exited p.pid)) pending in
    if pending <> [] then
      if now () > deadline then List.iter (fun p -> kill_and_reap p.pid) pending
      else begin
        Unix.sleepf 0.01;
        reap pending
      end
  in
  reap procs

let start ~dir =
  rm_rf dir;
  mkdir_p dir;
  let started = ref [] in
  try
    for i = 1 to workers do
      started := spawn ~dir ~name:(Printf.sprintf "worker%d" i) (worker_args ~dir i) :: !started
    done;
    let ws = List.rev !started in
    let addrs = String.concat "," (List.map (fun w -> Printf.sprintf "127.0.0.1:%d" w.port) ws) in
    let coord = spawn ~dir ~name:"coord" [ "coord"; "-p"; "0"; "-w"; addrs ] in
    { coord; workers = ws; dir }
  with e ->
    stop_procs !started;
    raise e

let stop t =
  stop_procs (t.coord :: t.workers);
  rm_rf t.dir

let wal_dir t = Filename.concat t.dir "w1/wal"

(* Peak RSS (VmHWM) of the coordinator and of each worker, in MiB; NaN for
   a process that has exited. *)
let rss t =
  let get p = Option.value ~default:Float.nan (Procfs.peak_rss_mb p.pid) in
  (get t.coord, List.map get t.workers)

let describe t =
  let line argv = String.concat " " ("delphic" :: List.tl argv) in
  line t.coord.argv :: List.map (fun w -> line w.argv) t.workers

(* One line per process that has exited while it should be serving.  A
   coordinator failing over or a worker dying can leave every request
   answered, so this is checked on its own. *)
let exited_procs t =
  List.filter_map
    (fun p -> if exited p.pid then Some (Printf.sprintf "%s (pid %d) exited during the run" p.name p.pid) else None)
    (t.coord :: t.workers)
