(* Tests of the benchmark's own machinery: percentile selection and the
   sample-size rule, truth brackets on hand-built streams, the (A & B) \ C
   inclusion–exclusion identity against brute-force membership, and the
   /proc parsers. *)

open Perfbench
module Rect = Delphic_sets.Rectangle
module Exact = Delphic_sets.Exact
module Rng = Delphic_util.Rng

let box x0 x1 y0 y1 = Rect.create ~lo:[| x0; y0 |] ~hi:[| x1; y1 |]

let float_eq = Alcotest.(check (float 1e-9))

(* ---- percentiles ---- *)

let test_rank () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  float_eq "p50 of 1..100" 50.0 (Pct.percentile xs 0.5);
  float_eq "p90 of 1..100" 90.0 (Pct.percentile xs 0.9);
  float_eq "p99 of 1..100" 99.0 (Pct.percentile xs 0.99);
  float_eq "p99 of 1..1000" 990.0 (Pct.percentile (List.init 1000 (fun i -> float_of_int (i + 1))) 0.99);
  float_eq "unsorted input" 3.0 (Pct.median [ 5.0; 1.0; 3.0; 4.0; 2.0 ]);
  Alcotest.(check int) "single sample" 1 (Pct.rank ~n:1 0.99)

let test_beyond_rule () =
  Alcotest.(check bool) "p99 of 1000 leaves 10" true (Pct.enough ~n:1000 0.99);
  Alcotest.(check bool) "p99 of 999 leaves 9" false (Pct.enough ~n:999 0.99);
  Alcotest.(check int) "p99 needs 1000" 1000 (Pct.needed 0.99);
  Alcotest.(check int) "p90 needs 100" 100 (Pct.needed 0.9);
  Alcotest.(check int) "p50 needs 20" 20 (Pct.needed 0.5);
  Alcotest.(check bool) "empty sample" false (Pct.enough ~n:0 0.5)

(* ---- truth brackets ---- *)

(* One session, pool of three disjoint boxes of 4, 9 and 1 points. *)
let pool = [| box 0 1 0 1; box 10 12 10 12; box 20 20 20 20 |]

let spec () =
  let s = Spec.session "A" pool in
  {
    Spec.name = "hand";
    exact = true;
    sessions = [| s; Spec.session "B" pool; Spec.session "C" pool |];
    fed = [| 0 |];
    capacity = false;
    preload = [];
    frame_sets = 1;
    ingest_rate = 1.0;
    query_rate = 1.0;
    tick = 10.0;
    win_seconds = 15.0;
  }

(* Frames of one set each: sent at t = 1, 2, 3, 4; acked at 1.5, 2.5, never,
   4.5; stamped 10, 20, 30, 40.  The fourth set is pool.(0) again. *)
let frames () =
  List.mapi
    (fun i acked ->
      {
        Loadgen.session = 0;
        first = i;
        count = 1;
        stamp = 10.0 *. float_of_int (i + 1);
        due = float_of_int (i + 1);
        sent = float_of_int (i + 1);
        acked;
      })
    [ 1.5; 2.5; infinity; 4.5 ]

let query ~sent ~replied ~at =
  { Loadgen.kind = Spec.Est_live; due = sent; sent; replied; at; outcome = Loadgen.Value 0.0 }

let test_est_bracket () =
  let lanes = Score.lanes (spec ()) (frames ()) in
  let br q = Score.est_bracket lanes.(0) q in
  let check name (lo, hi) q =
    let b = br q in
    float_eq (name ^ " lo") lo b.Truth.lo;
    float_eq (name ^ " hi") hi b.Truth.hi
  in
  check "before anything" (0.0, 0.0) (query ~sent:0.5 ~replied:0.9 ~at:0.0);
  check "first in flight" (0.0, 4.0) (query ~sent:0.5 ~replied:1.2 ~at:0.0);
  check "first acked, second sent" (4.0, 13.0) (query ~sent:1.6 ~replied:2.1 ~at:0.0);
  (* the third frame never acks, so the acknowledged prefix stops at two
     even after the fourth is acknowledged *)
  check "unacked gap" (13.0, 14.0) (query ~sent:5.0 ~replied:5.1 ~at:0.0)

let test_win_bracket () =
  let lanes = Score.lanes (spec ()) (frames ()) in
  let b = Score.win_bracket lanes.(0) ~seconds:15.0 (query ~sent:5.0 ~replied:5.1 ~at:40.0) in
  (* cutoff 25: the sets stamped 30 and 40 are pool.(2) and pool.(0).  The
     acknowledged prefix ends before the unacked third frame, so the lower
     end holds neither. *)
  float_eq "win lo" 0.0 b.Truth.lo;
  float_eq "win hi" 5.0 b.Truth.hi;
  let b = Score.win_bracket lanes.(0) ~seconds:100.0 (query ~sent:2.1 ~replied:2.2 ~at:20.0) in
  float_eq "whole stream lo" 4.0 b.Truth.lo;
  float_eq "whole stream hi" 13.0 b.Truth.hi

let test_score () =
  let br = { Truth.lo = 100.0; hi = 110.0 } in
  let v = Truth.score ~tolerance:0.0 br 105.0 in
  Alcotest.(check bool) "inside exactly" true v.Truth.inside;
  float_eq "no error" 0.0 v.Truth.rel_err;
  let v = Truth.score ~tolerance:0.0 br 111.0 in
  Alcotest.(check bool) "exact regime tolerates nothing" false v.Truth.inside;
  let v = Truth.score ~tolerance:0.2 br 220.0 in
  Alcotest.(check bool) "2x is outside 1+eps" false v.Truth.inside;
  float_eq "factor" 2.0 v.Truth.factor;
  float_eq "rel err" 1.0 v.Truth.rel_err;
  let v = Truth.score ~tolerance:0.2 br 85.0 in
  Alcotest.(check bool) "within 1-eps of lo" true v.Truth.inside

(* Acks at 1.5, 2.5 and 4.5 (the third frame never acks): counting from 2.0
   leaves the frames acked at 2.5 and 4.5, one set after the first ack over
   two seconds. *)
let test_capacity () =
  let rate, attempted, failed = Score.capacity (frames ()) ~from:2.0 ~until:5.0 in
  float_eq "rate" 0.5 rate;
  Alcotest.(check (pair int int)) "attempted, failed" (4, 1) (attempted, failed);
  let rate, _, _ = Score.capacity (frames ()) ~from:4.0 ~until:5.0 in
  Alcotest.(check bool) "one ack gives no rate" true (Float.is_nan rate);
  Alcotest.(check (list int)) "half seconds" [ 1; 0; 1; 0; 0; 0; 1 ] (Score.half_seconds (frames ()) ~from:1.5)

(* ---- inclusion–exclusion ---- *)

let brute ~a ~b ~c ~size =
  let n = ref 0 in
  for x = 0 to size - 1 do
    for y = 0 to size - 1 do
      let p = [| x; y |] in
      if Exact.rectangle_union_mem a p && Exact.rectangle_union_mem b p && not (Exact.rectangle_union_mem c p)
      then incr n
    done
  done;
  float_of_int !n

let test_and_minus () =
  let rng = Rng.create ~seed:7 in
  let size = 12 in
  let boxes n =
    List.init n (fun _ ->
        let x = Rng.int rng size and y = Rng.int rng size in
        box x (min (size - 1) (x + Rng.int rng 4)) y (min (size - 1) (y + Rng.int rng 4)))
  in
  for trial = 1 to 200 do
    let a = boxes (1 + Rng.int rng 5) and b = boxes (1 + Rng.int rng 5) and c = boxes (Rng.int rng 4) in
    float_eq (Printf.sprintf "trial %d" trial) (brute ~a ~b ~c ~size) (Truth.and_minus ~a ~b ~c)
  done

(* ---- /proc parsing ---- *)

let status =
  "Name:\tmain.exe\nVmPeak:\t  812344 kB\nVmSize:\t  812300 kB\nVmHWM:\t   53248 kB\nVmRSS:\t   40960 kB\nThreads:\t5\n"

let test_vmhwm () =
  Alcotest.(check (option int)) "VmHWM" (Some 53248) (Procfs.vmhwm_kb status);
  Alcotest.(check (option int)) "VmRSS" (Some 40960) (Procfs.status_kb ~field:"VmRSS" status);
  Alcotest.(check (option int)) "absent" None (Procfs.vmhwm_kb "Name:\tx\n");
  Alcotest.(check (option int)) "prefix is not a match" None (Procfs.status_kb ~field:"Vm" status);
  match Procfs.peak_rss_mb (Unix.getpid ()) with
  | Some mb -> Alcotest.(check bool) "own peak RSS is positive" true (mb > 0.0)
  | None -> Alcotest.fail "no VmHWM for this process"

let mounts =
  "/dev/vda / ext4 rw,relatime 0 0\n\
   proc /proc proc rw 0 0\n\
   tmpfs /run/my\\040dir tmpfs rw 0 0\n\
   /dev/vdb /data xfs rw 0 0\n"

let test_fs_type () =
  let fs p = Procfs.fs_type ~mounts p in
  Alcotest.(check (option string)) "root" (Some "ext4") (fs "/home/x/.perfbench/1/w1/wal");
  Alcotest.(check (option string)) "longest mount wins" (Some "xfs") (fs "/data/wal");
  Alcotest.(check (option string)) "prefix is not a mount" (Some "ext4") (fs "/database/wal");
  Alcotest.(check (option string)) "escaped blank" (Some "tmpfs") (fs "/run/my dir/wal")

let test_banner () =
  Alcotest.(check (option int)) "worker banner" (Some 41234)
    (Sut.port_of_banner "delphic worker: listening on 127.0.0.1:41234 (spool: s, domains: 2)\n");
  Alcotest.(check (option int)) "coord banner" (Some 7900)
    (Sut.port_of_banner "delphic coord: listening on 127.0.0.1:7900, 3 workers\n");
  Alcotest.(check (option int)) "not yet" None (Sut.port_of_banner "")

let () =
  Alcotest.run "perfbench"
    [
      ("percentiles", [ Alcotest.test_case "nearest rank" `Quick test_rank; Alcotest.test_case "10 beyond" `Quick test_beyond_rule ]);
      ( "truth",
        [
          Alcotest.test_case "EST brackets" `Quick test_est_bracket;
          Alcotest.test_case "WIN brackets" `Quick test_win_bracket;
          Alcotest.test_case "verdicts" `Quick test_score;
          Alcotest.test_case "capacity rate" `Quick test_capacity;
          Alcotest.test_case "(A & B) \\ C identity" `Quick test_and_minus;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "VmHWM" `Quick test_vmhwm;
          Alcotest.test_case "mount types" `Quick test_fs_type;
          Alcotest.test_case "port banner" `Quick test_banner;
        ] );
    ]
