let log_src = Logs.Src.create "delphic.wal" ~doc:"write-ahead journal"

module Log = (val Logs.src_log log_src : Logs.LOG)

type fsync_policy = Always | Interval of float | Never

let fsync_policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 0.2)
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
    let v = String.sub s 9 (String.length s - 9) in
    match float_of_string_opt v with
    | Some secs when secs > 0.0 -> Ok (Interval secs)
    | _ -> Error (Printf.sprintf "bad fsync interval %S" v))
  | _ -> Error (Printf.sprintf "unknown fsync policy %S (want always, interval[:secs] or never)" s)

let fsync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval secs -> Printf.sprintf "interval:%g" secs

(* Frame layout and CRC-32 live in [Frame], shared with wire protocol v2:
   the on-disk record and the v2 wire message are the same bytes. *)
let crc32 = Frame.crc32

type t = {
  dir : string;
  fd : Unix.file_descr;
  fsync : fsync_policy;
  gen : int;
  mutable records : int; (* since the last checkpoint/truncate *)
  mutable last_sync : float;
  mutable dirty : bool; (* bytes written since the last fsync *)
  mutable closed : bool;
}

(* Durability of metadata operations (rename, create, unlink) needs the
   parent directory flushed too — an fsynced file reachable only through an
   unsynced directory entry can vanish across a power cut. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let journal_path dir = Filename.concat dir "journal"
let generation_path dir = Filename.concat dir "generation"
let checkpoint_dir t = Filename.concat t.dir "checkpoint"

(* A generation no earlier process in the same slot is likely to have
   served.  The fence only compares generations for equality, and a
   collision would silently skip the coordinator's restart resync, so draw
   real entropy rather than hashing (pid, time) — 30 random bits from the
   OS, with the hash only as a fallback for hosts without /dev/urandom.
   The 2^30 bit keeps the value nonzero: a coordinator reads 0 as "never
   asked". *)
let random_generation () =
  let entropy =
    match open_in_bin "/dev/urandom" with
    | exception Sys_error _ -> None
    | ic ->
      let v =
        match really_input_string ic 4 with
        | s ->
          Some
            ((Char.code s.[0] lsl 24)
            lor (Char.code s.[1] lsl 16)
            lor (Char.code s.[2] lsl 8)
            lor Char.code s.[3])
        | exception End_of_file -> None
      in
      close_in_noerr ic;
      v
  in
  let entropy =
    match entropy with
    | Some v -> v
    | None -> Hashtbl.hash (Unix.getpid (), Unix.gettimeofday (), Sys.time ())
  in
  0x40000000 lor (entropy land 0x3FFFFFFF)

(* Bump-and-persist: read the last epoch, write epoch+1 via tmp + rename +
   fsync so a crash mid-update leaves either the old or the new number,
   never a torn one.  The fence only needs monotonicity, not contiguity.
   A directory with no readable epoch starts from a random one: a worker
   restarted on a wiped directory must not answer the generation its
   predecessor did, or the coordinator takes the restart for a blip. *)
let next_generation dir =
  let path = generation_path dir in
  let prev =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
      let g =
        match input_line ic with
        | line -> int_of_string_opt (String.trim line)
        | exception End_of_file -> None
      in
      close_in_noerr ic;
      g
  in
  let gen = match prev with Some g -> g + 1 | None -> random_generation () in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let s = string_of_int gen ^ "\n" in
      ignore (Unix.write_substring fd s 0 (String.length s));
      Unix.fsync fd);
  Sys.rename tmp path;
  (* Without this the rename itself can be lost to a power cut: the next
     boot would reuse [prev], the coordinator's HELLO fence would see an
     unchanged generation and skip the resync a restart requires. *)
  fsync_dir dir;
  gen

let open_ ~dir ~fsync =
  mkdir_p dir;
  mkdir_p (Filename.concat dir "checkpoint");
  let gen = next_generation dir in
  let fd =
    Unix.openfile (journal_path dir) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
  in
  (* pin the journal's directory entry, in case openfile just created it *)
  fsync_dir dir;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  {
    dir;
    fd;
    fsync;
    gen;
    records = 0;
    last_sync = Unix.gettimeofday ();
    dirty = false;
    closed = false;
  }

let generation t = t.gen
let records_since_checkpoint t = t.records

let read_be32 = Frame.read_be32
let frame = Frame.frame

let maybe_fsync t =
  match t.fsync with
  | Never -> ()
  | Always ->
    Unix.fsync t.fd;
    t.dirty <- false
  | Interval secs ->
    let now = Unix.gettimeofday () in
    if now -. t.last_sync >= secs then begin
      Unix.fsync t.fd;
      t.last_sync <- now;
      t.dirty <- false
    end

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let append t body =
  (* Text records are one rendered request line and must stay newline-free;
     binary v2 bodies (leading '\x01', see Protocol.parse_frame_body) carry
     raw payload bytes and the length prefix is their only delimiter. *)
  if String.length body = 0 || body.[0] <> '\x01' then
    String.iter
      (fun c ->
        if c = '\n' || c = '\r' then invalid_arg "Wal.append: record contains a newline")
      body;
  if t.closed then invalid_arg "Wal.append: journal closed";
  (* one write() per record: a kill -9 can tear only the record being
     written, and the tear is visible as a short or CRC-failing frame *)
  write_all t.fd (frame body);
  t.dirty <- true;
  t.records <- t.records + 1;
  maybe_fsync t

let append_framed t framed =
  (* Zero-copy splice: [framed] is a complete wire frame (header + body)
     whose bytes go to disk verbatim — no re-render, no re-CRC.  Only the
     length field is sanity-checked; trusting a wrong CRC here would plant
     a record that truncates every future replay at this offset. *)
  let n = String.length framed in
  if n < 8 || read_be32 framed 0 <> n - 8 then
    invalid_arg "Wal.append_framed: not a whole frame";
  if t.closed then invalid_arg "Wal.append_framed: journal closed";
  write_all t.fd framed;
  t.dirty <- true;
  t.records <- t.records + 1;
  maybe_fsync t

let read_whole fd =
  let len = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let buf = Bytes.create len in
  let off = ref 0 in
  (try
     while !off < len do
       match Unix.read fd buf !off (len - !off) with
       | 0 -> raise Exit
       | k -> off := !off + k
     done
   with Exit -> ());
  Bytes.sub_string buf 0 !off

let replay t ~f =
  let data = read_whole t.fd in
  let n = String.length data in
  let pos = ref 0 in
  let replayed = ref 0 in
  let cut = ref None in
  (try
     while !pos < n && !cut = None do
       if n - !pos < 8 then
         cut := Some (Printf.sprintf "torn header at byte %d (%d trailing bytes)" !pos (n - !pos))
       else begin
         let len = read_be32 data !pos in
         let crc = read_be32 data (!pos + 4) in
         if len < 0 || !pos + 8 + len > n then
           cut :=
             Some
               (Printf.sprintf "torn record at byte %d (%d of %d body bytes present)"
                  !pos (n - !pos - 8) len)
         else begin
           let body = String.sub data (!pos + 8) len in
           if crc32 body <> crc then
             cut := Some (Printf.sprintf "CRC mismatch at byte %d" !pos)
           else begin
             f body;
             incr replayed;
             pos := !pos + 8 + len
           end
         end
       end
     done
   with exn ->
     (* [f] raised: keep the journal intact past this record and rethrow *)
     ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
     raise exn);
  (match !cut with
  | None -> ()
  | Some reason ->
    Log.warn (fun m -> m "journal truncated: %s" reason);
    Unix.ftruncate t.fd !pos;
    if t.fsync <> Never then Unix.fsync t.fd);
  ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
  t.records <- !replayed;
  (!replayed, !cut)

(* Delete checkpoint files for sessions not in [live]: a .snap left behind
   by a since-CLOSEd session would be resurrected by the next recovery once
   the journal truncation retires its CLOSE record.  Spool temporaries from
   an interrupted earlier checkpoint go too — Snapshot_io writes via
   tmp+rename, so a bare .tmp is never the only copy of anything. *)
let prune_stale_snapshots t ~live =
  let dir = checkpoint_dir t in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    let pruned = ref 0 in
    Array.iter
      (fun f ->
        let stale =
          if Filename.check_suffix f ".tmp" then true
          else
            Filename.check_suffix f ".snap"
            && not (List.mem (Filename.chop_suffix f ".snap") live)
        in
        if stale then begin
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          incr pruned;
          Log.info (fun m -> m "checkpoint: pruned stale %s" f)
        end)
      files;
    if !pruned > 0 && t.fsync <> Never then fsync_dir dir

(* Retire the whole journal: the checkpoint just written covers every
   record in it. *)
let truncate_journal t =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  if t.fsync <> Never then begin
    Unix.fsync t.fd;
    t.dirty <- false
  end;
  t.records <- 0

let checkpoint t ~spool =
  (* The caller owns the journal for the whole checkpoint: nothing is
     appended between the record count taken below and the truncate, so
     the spool covers every record and the journal is retired whole.  An
     append from inside [spool] breaks that — the spool may miss the
     record and the truncate would drop it — so it is refused after the
     fact, with nothing retired. *)
  if t.closed then invalid_arg "Wal.checkpoint: journal closed";
  (* the records must be on disk before the spool that may retire them *)
  if t.dirty && t.fsync <> Never then begin
    Unix.fsync t.fd;
    t.dirty <- false
  end;
  let records = t.records in
  let outcomes = spool ~dir:(checkpoint_dir t) in
  if t.records <> records then
    invalid_arg "Wal.checkpoint: the journal grew during the spool";
  if List.for_all (fun (_, r) -> Result.is_ok r) outcomes then begin
    prune_stale_snapshots t ~live:(List.map fst outcomes);
    truncate_journal t
  end
  else
    Log.warn (fun m ->
        m "checkpoint incomplete (%d sessions failed to spool); journal kept"
          (List.length (List.filter (fun (_, r) -> Result.is_error r) outcomes)));
  outcomes

let close t =
  if not t.closed then begin
    t.closed <- true;
    (if t.dirty && t.fsync <> Never then
       try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
