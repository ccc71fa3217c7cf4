(* Statistical service oracle.  Seeded op sequences — OPEN, ADDB, MERGE,
   EST, WIN — with one fault per run (a worker killed and restarted from
   its WAL; the sketch session's home killed the same way while a full
   window of its sets is unacknowledged; a worker partitioned away and
   healed; or none), run against an in-process loopback cluster of three
   journaled workers at R = 1 and R = 2, and scored against [Exact]:

   - exact-regime answers must match bitwise: every mid-stream EST/WIN that
     is not DEGRADED, and the settled answer once the fault has healed;
   - a sketch-regime answer is an (ε,δ) estimate, so one run may miss by
     more than ε with probability up to δ, and a per-run (1±ε) assert would
     fail a correct estimator δ of the time.  Each seed contributes its
     settled answer; a seed set is rejected only when the binomial tail
     P[X >= misses | n, δ] falls below 1e-3, and the failure names each
     seed that missed, with its fault and settled ratio;
   - once settled, no worker outside a session's replica window holds any
     of its items: one session, one estimator, whatever failed.

   [test_oracle.ml] runs a fast seed set with the rest of the suite;
   [full.exe] runs 30 seeds per replication factor (CI runs it on its own:
   [dune exec test/oracle/full.exe]). *)

module Server = Delphic_server.Server
module Registry = Delphic_server.Registry
module Wal = Delphic_server.Wal
module P = Delphic_server.Protocol
module Coordinator = Delphic_cluster.Coordinator
module Rpc = Delphic_cluster.Rpc
module Chaos = Delphic_harness.Chaos
module Rng = Delphic_util.Rng
module Bigint = Delphic_util.Bigint
module Rectangle = Delphic_sets.Rectangle
module Exact = Delphic_sets.Exact
module Workload = Delphic_stream.Workload

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let dir tag n =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "delphic-oracle-%s-%d-%d" tag (Unix.getpid ()) n)

let payload_of box =
  let lo = Rectangle.lo box and hi = Rectangle.hi box in
  String.concat " "
    (Array.to_list (Array.mapi (fun i l -> Printf.sprintf "%d %d" l hi.(i)) lo))

let truth boxes = Bigint.to_float (Exact.rectangle_union boxes)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (P.render_response (P.Error_reply e))

(* The two sessions of a run: [x] stays exact (small boxes), [k] is the E1
   big-box pool, far past the exact capacity from its first frame. *)
let exact_params = (0.3, 0.2, 17.0)
let sketch_params = (0.3, 0.2, 40.0)
let small gen count = Workload.Rectangles.uniform gen ~universe:300 ~dim:2 ~count ~max_side:6

let big gen count =
  Workload.Rectangles.uniform gen ~universe:1_000_000 ~dim:2 ~count ~max_side:60_000

(* A journaled worker: the same directories and port across restarts, so a
   restart recovers from its checkpoint and journal. *)
let start_worker ~n ~port ~seed =
  let rec create tries =
    match
      Server.create
        ~wal:{ Server.dir = dir "wal" n; fsync = Wal.Interval 0.05; checkpoint_every = 64 }
        ~port ~spool:(dir "spool" n) ~seed ()
    with
    | s -> s
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
      Thread.delay 0.05;
      create (tries - 1)
  in
  let s = create 40 in
  (s, Server.start s)

let stop_worker (s, th) =
  Server.request_stop s;
  Thread.join th

type fault = Kill_restart | Kill_window | Partition_heal | No_fault

let fault_name = function
  | Kill_restart -> "kill"
  | Kill_window -> "kill with a full window unacked"
  | Partition_heal -> "partition"
  | No_fault -> "no fault"

(* The coordinator's placement: a session's replica window starts at ring
   position [Hashtbl.hash name mod n]. *)
let in_window ~replicas ~n name i = (i - (Hashtbl.hash name mod n) + n) mod n < replicas

(* The items worker [port]'s copy of [name] holds, asked over a plain
   connection. *)
let items_on ~ctx port name =
  match Rpc.connect ~host:"127.0.0.1" ~port ~timeout:2.0 () with
  | Error e -> Alcotest.failf "%s: dial worker: %s" ctx (Rpc.describe_connect_error e)
  | Ok c ->
    let r = Rpc.call c (P.Stats { session = name }) in
    Rpc.close c;
    (match r with
    | Ok (P.Stats_reply st) -> st.P.items
    | Ok r -> Alcotest.failf "%s: worker STATS %s: %s" ctx name (P.render_response r)
    | Error msg -> Alcotest.failf "%s: worker STATS %s: %s" ctx name msg)

(* One seeded run; returns the fault and the sketch session's settled
   ratio to truth ([None] if it unexpectedly stayed exact and was checked
   bitwise). *)
let run ~replicas seed =
  let rng = Rng.create ~seed:((seed * 7919) + replicas) in
  let gen = Rng.create ~seed:(seed + 1000) in
  let base = (seed * 8) + (replicas * 4) in
  for i = 0 to 2 do
    rm_rf (dir "wal" (base + i));
    rm_rf (dir "spool" (base + i))
  done;
  let workers =
    Array.init 3 (fun i -> start_worker ~n:(base + i) ~port:0 ~seed:((seed * 31) + i))
  in
  let ports = Array.map (fun (s, _) -> Server.port s) workers in
  let chaos = Chaos.create (Chaos.config ~seed ()) in
  let io =
    {
      Rpc.io_read = Chaos.wrap_read chaos Unix.read;
      io_write = Chaos.wrap_write chaos Unix.write_substring;
    }
  in
  let window = 64 in
  let coord =
    Coordinator.create ~replicas ~timeout:0.25 ~backoff:0.01 ~batch:16
      ~window ~io
      ~workers:(Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) ports))
      ~seed:(seed + 77) ()
  in
  let ctx = Printf.sprintf "R=%d seed %d" replicas seed in
  let x = Printf.sprintf "x%d" seed and k = Printf.sprintf "k%d" seed in
  let open_ name (epsilon, delta, log2_universe) =
    ok (ctx ^ " OPEN")
      (Coordinator.open_session coord ~name ~family:P.Rect ~epsilon ~delta ~log2_universe)
  in
  open_ x exact_params;
  open_ k sketch_params;
  (* what each session acknowledged, with its ingest timestamp *)
  let xs = ref [] and ks = ref [] in
  let clock = ref 0.0 in
  let addb name acked boxes =
    let accepted, errors =
      ok (ctx ^ " ADDB")
        (Coordinator.add_batch ~ts:!clock coord ~name ~payloads:(List.map payload_of boxes))
    in
    ignore accepted;
    List.iteri
      (fun i b -> if not (List.mem_assoc i errors) then acked := (!clock, b) :: !acked)
      boxes
  in
  (* an external sketch of fresh sets, merged into the exact session *)
  let merge boxes =
    let reg = Registry.create ~seed:(seed + 5) () in
    let epsilon, delta, log2_universe = exact_params in
    ok "outsider OPEN" (Registry.open_session reg ~name:x ~family:P.Rect ~epsilon ~delta ~log2_universe);
    ignore (ok "outsider ADDB" (Registry.add_batch ~ts:!clock reg ~name:x ~payloads:(List.map payload_of boxes)));
    let token = ok "outsider FETCH" (Registry.fetch reg ~name:x) in
    match Coordinator.merge_in coord ~name:x ~encoded:token with
    | Ok () -> List.iter (fun b -> xs := (!clock, b) :: !xs) boxes
    | Error _ -> ()
  in
  let since cutoff acked = List.filter_map (fun (ts, b) -> if ts >= cutoff then Some b else None) acked in
  let check_exact what value expected =
    Alcotest.(check (float 0.0)) (Printf.sprintf "%s: %s is exact" ctx what) expected value
  in
  (* one draw in six: two kill, two partition, one each for the window
     shape and no fault — a seed's kill or partition stays the one it drew
     before the window shape existed *)
  let fault =
    match Rng.int rng 6 with
    | 0 | 3 -> Kill_restart
    | 1 | 4 -> Partition_heal
    | 2 -> Kill_window
    | _ -> No_fault
  in
  let victim = Rng.int rng 3 in
  (* the window shape fells the sketch session's home: at R = 1 its only
     replica *)
  let victim = if fault = Kill_window then Hashtbl.hash k mod 3 else victim in
  let fault_at = 1 + Rng.int rng 4 in
  let heal_at = fault_at + 2 + Rng.int rng 4 in
  let down = ref false in
  let heal () =
    if !down then begin
      down := false;
      match fault with
      | Kill_restart | Kill_window ->
        workers.(victim) <-
          start_worker ~n:(base + victim) ~port:ports.(victim) ~seed:((seed * 31) + victim + 100)
      | Partition_heal -> Chaos.heal chaos
      | No_fault -> ()
    end
  in
  addb k ks (big gen 40);
  for step = 0 to 11 do
    clock := !clock +. 1.0;
    if step = fault_at then begin
      down := true;
      match fault with
      | Kill_restart -> stop_worker workers.(victim)
      | Kill_window ->
        (* every earlier ack read, then one set short of a window shipped
           to the home and none of its acks read *)
        Coordinator.flush coord;
        addb k ks (big gen (window - 1));
        stop_worker workers.(victim)
      | Partition_heal -> Chaos.partition chaos [ ports.(victim) ]
      | No_fault -> ()
    end;
    if step = heal_at then heal ();
    match Rng.int rng 6 with
    | 0 | 1 -> addb x xs (small gen (1 + Rng.int rng 6))
    | 2 -> addb k ks (big gen (8 + Rng.int rng 12))
    | 3 -> merge (small gen (2 + Rng.int rng 3))
    | 4 -> (
      match Coordinator.estimate coord ~name:x with
      | Ok (v, false, _) -> check_exact "mid-stream EST" v (truth (List.map snd !xs))
      | Ok (_, true, _) | Error _ -> ())
    | _ -> (
      let at = !clock and seconds = 4.5 in
      match Coordinator.win coord ~name:x ~seconds ~at:(Some at) with
      | Ok (v, false, _) -> check_exact "mid-stream WIN" v (truth (since (at -. seconds) !xs))
      | Ok (_, true, _) | Error _ -> ())
  done;
  heal ();
  (* settle: once the fault has healed, every answer must come back fresh *)
  let settled name =
    let rec go attempt =
      Coordinator.flush coord;
      match Coordinator.estimate coord ~name with
      | Ok (v, false, _) -> v
      | _ when attempt < 60 ->
        Thread.delay 0.05;
        go (attempt + 1)
      | Ok (_, true, stale) ->
        Alcotest.failf "%s: %s still DEGRADED (stale %s)" ctx name
          (String.concat "," (List.map string_of_int stale))
      | Error e -> Alcotest.failf "%s: EST %s: %s" ctx name (P.describe_error e)
    in
    go 0
  in
  check_exact "settled EST" (settled x) (truth (List.map snd !xs));
  let estimate = settled k in
  let exact_k = truth (List.map snd !ks) in
  let result =
    match Coordinator.stats coord ~name:k with
    | Ok st when st.P.exact ->
      check_exact "sketch session still exact" estimate exact_k;
      None
    | Ok _ -> Some (fault, estimate /. exact_k)
    | Error e -> Alcotest.failf "%s: STATS: %s" ctx (P.describe_error e)
  in
  List.iter
    (fun name ->
      Array.iteri
        (fun i port ->
          if not (in_window ~replicas ~n:3 name i) then
            Alcotest.(check int)
              (Printf.sprintf "%s (%s): worker %d, outside %s's window, holds none of it" ctx
                 (fault_name fault) i name)
              0 (items_on ~ctx port name))
        ports)
    [ x; k ];
  Coordinator.shutdown coord;
  Array.iter stop_worker workers;
  for i = 0 to 2 do
    rm_rf (dir "wal" (base + i));
    rm_rf (dir "spool" (base + i))
  done;
  result

let seed_set ~replicas seeds () =
  let outcomes =
    List.filter_map (fun seed -> Option.map (fun o -> (seed, o)) (run ~replicas seed)) seeds
  in
  let n = List.length outcomes in
  let epsilon, delta, _ = sketch_params in
  let missed =
    List.filter (fun (_, (_, ratio)) -> Float.abs (ratio -. 1.0) > epsilon) outcomes
  in
  let misses = List.length missed in
  let tail = Delphic_util.Special.binomial_tail ~n ~p:delta misses in
  Alcotest.(check bool)
    (Printf.sprintf
       "R=%d: %d of %d sketch answers miss by more than ε (%s); P[X >= %d | n = %d, δ = %.1f] \
        = %.2g must not fall below 1e-3"
       replicas misses n
       (String.concat ", "
          (List.map
             (fun (seed, (fault, ratio)) ->
               Printf.sprintf "seed %d, %s: %.3f× truth" seed (fault_name fault) ratio)
             missed))
       misses n delta tail)
    true (tail >= 1e-3)
