(* Write-ahead journal: framed round-trips (fixed and qcheck), torn-tail
   and CRC-failure truncation via byte surgery on the journal file,
   checkpoint truncation semantics, and the generation fence.  Every test
   drives the real file — the crash artifacts are produced with ftruncate
   and in-place byte flips, the same shapes a kill -9 leaves behind. *)

module Wal = Delphic_server.Wal

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "delphic-wal-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf dir;
    dir

let journal dir = Filename.concat dir "journal"

let replay_all w =
  let seen = ref [] in
  let n, cut = Wal.replay w ~f:(fun body -> seen := body :: !seen) in
  (List.rev !seen, n, cut)

(* Reopen-and-replay: what a restarted process would see. *)
let recover ~dir =
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  let r = replay_all w in
  (w, r)

let file_size path = (Unix.stat path).Unix.st_size

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd len;
  Unix.close fd

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5A));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Journal-before-reply: the server answers right after [append] returns,
   so a record's bytes must already be in the file at that moment — no
   flush, close or background writer in between. *)
let check_on_disk dir body =
  Alcotest.(check bool)
    ("on disk when append returns: " ^ body)
    true
    (contains (read_file (journal dir)) body)

let bodies = [ "OPEN s rect 0.3 0.2 17"; "ADD s 0 9 0 9"; "ADD s 5 14 0 9" ]

let test_roundtrip () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~dir ~fsync:Wal.Always in
  List.iter
    (fun b ->
      Wal.append w b;
      check_on_disk dir b)
    bodies;
  Alcotest.(check int) "records counted" (List.length bodies)
    (Wal.records_since_checkpoint w);
  Wal.close w;
  let w', (seen, n, cut) = recover ~dir in
  Alcotest.(check (list string)) "replay = append order" bodies seen;
  Alcotest.(check int) "replay count" (List.length bodies) n;
  Alcotest.(check bool) "no cut on a clean journal" true (cut = None);
  Alcotest.(check int) "replay primes the checkpoint counter"
    (List.length bodies)
    (Wal.records_since_checkpoint w');
  (* the replayed handle appends after the survivors, not over them; the
     pre-framed splice path is as durable at return as [append] *)
  Wal.append w' "ADD s 100 100 100 100";
  check_on_disk dir "ADD s 100 100 100 100";
  Wal.append_framed w' (Delphic_server.Frame.frame "ADD s 200 200 200 200");
  check_on_disk dir "ADD s 200 200 200 200";
  Wal.close w';
  let w'', (seen'', _, cut'') = recover ~dir in
  Alcotest.(check (list string)) "append after replay lands at the tail"
    (bodies @ [ "ADD s 100 100 100 100"; "ADD s 200 200 200 200" ]) seen'';
  Alcotest.(check bool) "still clean" true (cut'' = None);
  Wal.close w''

let test_torn_tail () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  List.iter (Wal.append w) bodies;
  Wal.close w;
  (* a kill -9 mid-write leaves a short final frame: cut 3 bytes *)
  let size = file_size (journal dir) in
  truncate_file (journal dir) (size - 3);
  let w', (seen, n, cut) = recover ~dir in
  Alcotest.(check (list string)) "intact prefix replayed"
    [ List.nth bodies 0; List.nth bodies 1 ]
    seen;
  Alcotest.(check int) "two of three" 2 n;
  (match cut with
  | Some reason ->
    Alcotest.(check bool)
      (Printf.sprintf "cut names the tear (%s)" reason)
      true
      (String.length reason > 0)
  | None -> Alcotest.fail "torn tail must be reported");
  Wal.close w';
  (* the tear was truncated away: the next recovery is clean *)
  let w'', (seen'', _, cut'') = recover ~dir in
  Alcotest.(check (list string)) "truncation is durable" seen seen'';
  Alcotest.(check bool) "no cut after truncation" true (cut'' = None);
  Wal.close w''

let test_torn_header () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  List.iter (Wal.append w) bodies;
  Wal.close w;
  (* tear inside the length/CRC header of a fresh fourth record *)
  let size = file_size (journal dir) in
  let fd = Unix.openfile (journal dir) [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd size Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\x00\x00" 0 2);
  Unix.close fd;
  let w', (seen, _, cut) = recover ~dir in
  Alcotest.(check (list string)) "whole records survive" bodies seen;
  Alcotest.(check bool) "torn header reported" true (cut <> None);
  Wal.close w'

let test_crc_mismatch () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  List.iter (Wal.append w) bodies;
  Wal.close w;
  (* corrupt one body byte of the LAST record: frames are 8 + |body| *)
  let last = List.nth bodies 2 in
  let off = file_size (journal dir) - String.length last in
  flip_byte (journal dir) off;
  let w', (seen, n, cut) = recover ~dir in
  Alcotest.(check (list string)) "records before the corruption replay"
    [ List.nth bodies 0; List.nth bodies 1 ]
    seen;
  Alcotest.(check int) "stops at the bad CRC" 2 n;
  (match cut with
  | Some reason ->
    Alcotest.(check bool)
      (Printf.sprintf "cut names the CRC failure (%s)" reason)
      true
      (String.length reason > 0)
  | None -> Alcotest.fail "CRC mismatch must be reported");
  (* corrupt journals truncate too — acknowledged-but-poisoned state must
     not resurrect on the recovery after next *)
  Alcotest.(check int) "file truncated at the bad record"
    (List.fold_left (fun acc b -> acc + 8 + String.length b) 0 [ List.nth bodies 0; List.nth bodies 1 ])
    (file_size (journal dir));
  Wal.close w'

let test_append_validates () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  Alcotest.check_raises "newline rejected"
    (Invalid_argument "Wal.append: record contains a newline") (fun () ->
      Wal.append w "ADD s 1\n2");
  Alcotest.check_raises "carriage return rejected"
    (Invalid_argument "Wal.append: record contains a newline") (fun () ->
      Wal.append w "ADD s 1\r2");
  Wal.close w;
  Alcotest.check_raises "append after close rejected"
    (Invalid_argument "Wal.append: journal closed") (fun () -> Wal.append w "x");
  Wal.close w (* idempotent *)

let test_checkpoint () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  List.iter (Wal.append w) bodies;
  (* a failing spool must keep the journal: replay still covers everything *)
  let outcomes =
    Wal.checkpoint w ~spool:(fun ~dir:_ ->
        [ ("good", Ok "good.snap"); ("bad", Error "disk full") ])
  in
  Alcotest.(check int) "outcomes returned" 2 (List.length outcomes);
  Alcotest.(check int) "journal kept on spool failure" (List.length bodies)
    (Wal.records_since_checkpoint w);
  Alcotest.(check bool) "journal bytes intact" true (file_size (journal dir) > 0);
  (* a clean spool retires the journal *)
  let spooled = ref None in
  ignore
    (Wal.checkpoint w ~spool:(fun ~dir ->
         spooled := Some dir;
         [ ("good", Ok "good.snap") ]));
  Alcotest.(check (option string)) "spool ran in the checkpoint dir"
    (Some (Wal.checkpoint_dir w))
    !spooled;
  Alcotest.(check int) "counter reset" 0 (Wal.records_since_checkpoint w);
  Alcotest.(check int) "journal truncated" 0 (file_size (journal dir));
  (* appends after the checkpoint journal afresh *)
  Wal.append w "ADD s 7 7 7 7";
  Wal.close w;
  let w', (seen, _, cut) = recover ~dir in
  Alcotest.(check (list string)) "only the post-checkpoint tail replays"
    [ "ADD s 7 7 7 7" ] seen;
  Alcotest.(check bool) "clean" true (cut = None);
  Wal.close w'

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* A .snap left behind by a closed session must not survive the checkpoint
   that retires its CLOSE record from the journal — recovery restores every
   snapshot file, so a stale one resurrects the session with pre-close
   state. *)
let test_checkpoint_prunes_stale () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  let ckpt = Wal.checkpoint_dir w in
  (* leftovers from earlier checkpoints: a since-closed session's snapshot
     and an interrupted spool temporary *)
  write_file (Filename.concat ckpt "dead.snap") "stale";
  write_file (Filename.concat ckpt "dead.snap.tmp") "partial";
  Wal.append w "CLOSE dead";
  ignore
    (Wal.checkpoint w ~spool:(fun ~dir ->
         write_file (Filename.concat dir "live.snap") "fresh";
         [ ("live", Ok "live.snap") ]));
  Alcotest.(check bool) "live snapshot kept" true
    (Sys.file_exists (Filename.concat ckpt "live.snap"));
  Alcotest.(check bool) "dead snapshot pruned" false
    (Sys.file_exists (Filename.concat ckpt "dead.snap"));
  Alcotest.(check bool) "spool temporary pruned" false
    (Sys.file_exists (Filename.concat ckpt "dead.snap.tmp"));
  (* a failing spool keeps the journal AND the checkpoint files: replay
     still needs both *)
  write_file (Filename.concat ckpt "dead.snap") "stale";
  ignore (Wal.checkpoint w ~spool:(fun ~dir:_ -> [ ("live", Error "disk full") ]));
  Alcotest.(check bool) "failed spool prunes nothing" true
    (Sys.file_exists (Filename.concat ckpt "dead.snap"));
  Wal.close w

(* A journal has one thread, so nothing may be appended while a checkpoint
   spools.  An append from inside the spool is refused after the fact: the
   checkpoint raises and retires nothing, so replay still covers every
   record, the spool-time one included, and a later checkpoint works. *)
let test_append_during_spool_refused () =
  let dir = fresh_dir () in
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  List.iter (Wal.append w) bodies;
  let ckpt = Wal.checkpoint_dir w in
  write_file (Filename.concat ckpt "dead.snap") "stale";
  Alcotest.check_raises "append during the spool refused"
    (Invalid_argument "Wal.checkpoint: the journal grew during the spool") (fun () ->
      ignore
        (Wal.checkpoint w ~spool:(fun ~dir:_ ->
             Wal.append w "ADD s 42 42 42 42";
             [ ("s", Ok "s.snap") ])));
  Alcotest.(check int) "every record still uncovered" (List.length bodies + 1)
    (Wal.records_since_checkpoint w);
  Alcotest.(check bool) "refused checkpoint prunes nothing" true
    (Sys.file_exists (Filename.concat ckpt "dead.snap"));
  Wal.close w;
  let w', (seen, _, cut) = recover ~dir in
  Alcotest.(check (list string)) "journal kept whole"
    (bodies @ [ "ADD s 42 42 42 42" ])
    seen;
  Alcotest.(check bool) "clean" true (cut = None);
  ignore (Wal.checkpoint w' ~spool:(fun ~dir:_ -> [ ("s", Ok "s.snap") ]));
  Alcotest.(check int) "the next checkpoint retires it" 0 (file_size (journal dir));
  Wal.close w'

module Registry = Delphic_server.Registry
module Protocol = Delphic_server.Protocol

(* What Server.create does on boot with a journal, minus the socket:
   restore the checkpoint (non-consuming), then replay the tail. *)
let boot ~dir ~seed =
  let w = Wal.open_ ~dir ~fsync:Wal.Never in
  let reg = Registry.create ~seed () in
  ignore (Registry.restore_all ~consume:false reg ~dir:(Wal.checkpoint_dir w));
  ignore
    (Wal.replay w ~f:(fun line ->
         match Protocol.parse_request line with
         | Error _ -> ()
         | Ok req -> ignore (Registry.dispatch reg req)));
  (w, reg)

(* End-to-end resurrection regression: checkpoint, CLOSE, checkpoint again
   (which retires the CLOSE record), crash, reboot — the closed session
   must stay closed even though no journal record mentions it any more. *)
let test_closed_session_not_resurrected () =
  let dir = fresh_dir () in
  let w, reg = boot ~dir ~seed:11 in
  let drive line =
    match Protocol.parse_request line with
    | Error e -> Alcotest.failf "bad request %S: %s" line (Protocol.describe_error e)
    | Ok req ->
      (match Registry.dispatch reg req with
      | Protocol.Error_reply e ->
        Alcotest.failf "%S failed: %s" line (Protocol.describe_error e)
      | _ -> ());
      Wal.append w line
  in
  drive "OPEN keep rect 0.3 0.2 17";
  drive "OPEN doomed rect 0.3 0.2 17";
  drive "ADD keep 0 9 0 9";
  drive "ADD doomed 0 99 0 99";
  let ckpt () =
    let outcomes =
      Wal.checkpoint w ~spool:(fun ~dir -> Registry.snapshot_all reg ~dir)
    in
    List.iter
      (function
        | _, Ok _ -> ()
        | name, Error msg -> Alcotest.failf "spool of %s failed: %s" name msg)
      outcomes
  in
  ckpt ();
  (* the CLOSE lands in the journal; the next checkpoint retires the record,
     which is exactly the window where a stale doomed.snap used to win *)
  drive "CLOSE doomed";
  ckpt ();
  (* crash: no graceful close — reboot from checkpoint + journal *)
  let w2, reg2 = boot ~dir ~seed:11 in
  Alcotest.(check (list string)) "closed session stays closed" [ "keep" ]
    (Registry.names reg2);
  Wal.close w2;
  Wal.close w

(* Windowed queries survive a crash: every journal record carries its ingest
   timestamp (the server stamps t= at receive time, before journaling) and
   checkpoints spool v3 snapshots with per-entry tags, so kill -9 mid-window
   followed by checkpoint-restore + tail replay answers WIN identically.  A
   legacy record without t= replays at t=0 — all-history, never a spurious
   window hit. *)
let test_win_survives_crash () =
  let dir = fresh_dir () in
  (* Server.create's recovery, minus the socket: restore, then replay the
     tail resolving untimestamped mutations to t=0. *)
  let boot_win ~dir ~seed =
    let w = Wal.open_ ~dir ~fsync:Wal.Never in
    let reg = Registry.create ~seed () in
    ignore (Registry.restore_all ~consume:false reg ~dir:(Wal.checkpoint_dir w));
    ignore
      (Wal.replay w ~f:(fun line ->
           match Protocol.parse_request line with
           | Error _ -> ()
           | Ok req ->
             let req =
               match req with
               | Protocol.Add ({ ts = None; _ } as r) ->
                 Protocol.Add { r with ts = Some 0.0 }
               | Protocol.Add_batch ({ ts = None; _ } as r) ->
                 Protocol.Add_batch { r with ts = Some 0.0 }
               | req -> req
             in
             ignore (Registry.dispatch reg req)));
    (w, reg)
  in
  let w, reg = boot_win ~dir ~seed:29 in
  let drive reg w line =
    match Protocol.parse_request line with
    | Error e -> Alcotest.failf "bad request %S: %s" line (Protocol.describe_error e)
    | Ok req ->
      (match Registry.dispatch reg req with
      | Protocol.Error_reply e ->
        Alcotest.failf "%S failed: %s" line (Protocol.describe_error e)
      | _ -> ());
      Wal.append w line
  in
  let ask reg line =
    match Protocol.parse_request line with
    | Error e -> Alcotest.failf "bad query %S: %s" line (Protocol.describe_error e)
    | Ok req -> (
      match Registry.dispatch reg req with
      | Protocol.Estimate { value; _ } -> value
      | r -> Alcotest.failf "%S: unexpected reply %s" line (Protocol.render_response r))
  in
  (* disjoint 100-point rectangles keep the adaptive estimator in exact
     mode, so every WIN answer is a deterministic integer and the
     before/after comparison is bitwise — the test isolates the timestamp
     plumbing from sketch-sampling noise *)
  drive reg w "OPEN s rect 0.3 0.2 17";
  drive reg w "ADD s t=10 0 9 0 9";
  drive reg w "ADD s t=50 100 109 0 9";
  (* checkpoint lands mid-window: the spooled snapshot must carry the tags *)
  List.iter
    (function
      | _, Ok _ -> ()
      | name, Error msg -> Alcotest.failf "spool of %s failed: %s" name msg)
    (Wal.checkpoint w ~spool:(fun ~dir -> Registry.snapshot_all reg ~dir));
  drive reg w "ADD s t=110 300 309 0 9";
  drive reg w "ADD s 500 509 0 9" (* legacy untimestamped record *);
  let queries =
    [ "WIN s 60 at=120"; "WIN s 90 at=120"; "WIN s 200 at=120"; "WIN s inf" ]
  in
  let before = List.map (ask reg) queries in
  (* the 60 s window holds only the t=110 rectangle; 90 s reaches back to
     the checkpointed t=50 one (its tag must survive the snapshot); the
     legacy add sits at t=0, inside any window covering the origin *)
  List.iter2
    (fun expect got -> Alcotest.(check (float 0.0)) "pre-crash WIN truth" expect got)
    [ 100.0; 200.0; 400.0; 400.0 ] before;
  (* crash: no graceful close — reboot from checkpoint + journal tail *)
  let w2, reg2 = boot_win ~dir ~seed:29 in
  let after = List.map (ask reg2) queries in
  List.iter2
    (fun b a -> Alcotest.(check (float 0.0)) "WIN unchanged across crash" b a)
    before after;
  Wal.close w2;
  Wal.close w

let test_generation_fence () =
  let dir = fresh_dir () in
  let w1 = Wal.open_ ~dir ~fsync:Wal.Never in
  let g1 = Wal.generation w1 in
  Wal.close w1;
  let w2 = Wal.open_ ~dir ~fsync:Wal.Never in
  let g2 = Wal.generation w2 in
  Wal.close w2;
  let w3 = Wal.open_ ~dir ~fsync:Wal.Never in
  let g3 = Wal.generation w3 in
  Wal.close w3;
  Alcotest.(check bool) "first generation positive" true (g1 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "generations strictly climb (%d < %d < %d)" g1 g2 g3)
    true
    (g1 < g2 && g2 < g3);
  (* a worker restarted on a wiped directory must not pass for the process
     it replaces: a fresh directory starts from a random generation *)
  let other = fresh_dir () in
  let first = Wal.open_ ~dir:other ~fsync:Wal.Never in
  let g = Wal.generation first in
  Wal.close first;
  rm_rf other;
  let w = Wal.open_ ~dir:other ~fsync:Wal.Never in
  Alcotest.(check bool)
    (Printf.sprintf "a wiped directory never repeats its generation (%d, then %d)" g
       (Wal.generation w))
    true
    (Wal.generation w <> g && Wal.generation w > 0);
  Wal.close w;
  rm_rf other

let test_fsync_policy_strings () =
  let ok s p =
    match Wal.fsync_policy_of_string s with
    | Ok p' -> Alcotest.(check string) s (Wal.fsync_policy_to_string p) (Wal.fsync_policy_to_string p')
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "always" Wal.Always;
  ok "never" Wal.Never;
  ok "interval" (Wal.Interval 0.2);
  ok "interval:0.5" (Wal.Interval 0.5);
  ok "ALWAYS" Wal.Always;
  List.iter
    (fun s ->
      match Wal.fsync_policy_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" s)
    [ "sometimes"; "interval:"; "interval:-1"; "interval:nope"; "" ]

(* qcheck: any newline-free bodies round-trip through append/replay, across
   all three fsync policies. *)
let gen_body =
  QCheck.Gen.(
    string_size (int_range 0 60)
      ~gen:
        (oneofl
           [ 'A'; 'z'; '0'; '9'; ' '; '%'; '-'; ':'; '.'; '\t'; '\x00'; '\xff' ]))

let gen_policy = QCheck.Gen.oneofl [ Wal.Always; Wal.Interval 0.01; Wal.Never ]

let prop_roundtrip =
  QCheck.Test.make ~name:"append/replay roundtrip (random)" ~count:40
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 12) gen_body) gen_policy))
    (fun (bodies, policy) ->
      let dir = fresh_dir () in
      let w = Wal.open_ ~dir ~fsync:policy in
      List.iter (Wal.append w) bodies;
      Wal.close w;
      let w', (seen, n, cut) = recover ~dir in
      Wal.close w';
      seen = bodies && n = List.length bodies && cut = None)

(* qcheck: cut the journal at ANY byte length — replay must yield a prefix
   of the appended bodies and never crash, whatever the tear position. *)
let prop_any_tear =
  QCheck.Test.make ~name:"arbitrary tear yields a clean prefix (random)" ~count:40
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 1 8) gen_body) (int_range 0 200)))
    (fun (bodies, cut_at) ->
      let dir = fresh_dir () in
      let w = Wal.open_ ~dir ~fsync:Wal.Never in
      List.iter (Wal.append w) bodies;
      Wal.close w;
      let size = file_size (journal dir) in
      let cut_at = min cut_at size in
      truncate_file (journal dir) cut_at;
      let w', (seen, n, cut) = recover ~dir in
      Wal.close w';
      (* frames fully inside the tear replay; a partial frame is the cut *)
      let expected = ref [] in
      let boundary = ref 0 in
      let stopped = ref false in
      List.iter
        (fun b ->
          let next = !boundary + 8 + String.length b in
          if (not !stopped) && next <= cut_at then begin
            expected := b :: !expected;
            boundary := next
          end
          else stopped := true)
        bodies;
      seen = List.rev !expected
      && n = List.length !expected
      && (cut = None) = (!boundary = cut_at))

let suite =
  [
    Alcotest.test_case "append/replay round-trip" `Quick test_roundtrip;
    Alcotest.test_case "torn tail truncates to the intact prefix" `Quick test_torn_tail;
    Alcotest.test_case "torn header drops only the tear" `Quick test_torn_header;
    Alcotest.test_case "CRC mismatch cuts the journal" `Quick test_crc_mismatch;
    Alcotest.test_case "append validates" `Quick test_append_validates;
    Alcotest.test_case "checkpoint truncates only after a clean spool" `Quick
      test_checkpoint;
    Alcotest.test_case "checkpoint prunes stale snapshots" `Quick
      test_checkpoint_prunes_stale;
    Alcotest.test_case "append during spool is refused, journal kept whole" `Quick
      test_append_during_spool_refused;
    Alcotest.test_case "closed session is not resurrected after crash" `Quick
      test_closed_session_not_resurrected;
    Alcotest.test_case "WIN answers survive kill and restart" `Quick
      test_win_survives_crash;
    Alcotest.test_case "generation fence climbs" `Quick test_generation_fence;
    Alcotest.test_case "fsync policy strings" `Quick test_fsync_policy_strings;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_any_tear;
  ]
