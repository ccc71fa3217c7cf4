(* delphic — command-line front end.

   Subcommands estimate union sizes for each supported Delphic family on
   synthetic workloads (or stdin for KMP), and run the experiment suite. *)

module Rng = Delphic_util.Rng
module Bigint = Delphic_util.Bigint
module Rectangle = Delphic_sets.Rectangle
module Range1d = Delphic_sets.Range1d
module Dnf = Delphic_sets.Dnf
module Coverage = Delphic_sets.Coverage
module Exact = Delphic_sets.Exact
module Workload = Delphic_stream.Workload

(* The CLI estimates through the Adaptive wrapper: exact answers whenever
   the union is small (including universes below the Theorem 1.2 sampling
   floor), VATIC sketching at scale. *)
module Vatic_rect = Delphic_core.Adaptive.Make (Rectangle)
module Vatic_dnf = Delphic_core.Adaptive.Make (Dnf)
module Vatic_cov = Delphic_core.Adaptive.Make (Coverage)
module Vatic_single = Delphic_core.Adaptive.Make (Delphic_sets.Singleton)
module Vatic_hyper = Delphic_core.Adaptive.Make (Delphic_sets.Hypervolume)
module Vatic_affine = Delphic_core.Adaptive.Make (Delphic_sets.Affine_subspace)

open Cmdliner

let log2f x = log x /. log 2.0

(* Shared options. *)

let epsilon =
  let doc = "Target relative accuracy (0 < eps < 1)." in
  Arg.(value & opt float 0.2 & info [ "e"; "epsilon" ] ~docv:"EPS" ~doc)

let delta =
  let doc = "Failure probability (0 < delta < 1)." in
  Arg.(value & opt float 0.2 & info [ "d"; "delta" ] ~docv:"DELTA" ~doc)

let seed =
  let doc = "PRNG seed (experiments are reproducible)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let count =
  let doc = "Number of stream items M." in
  Arg.(value & opt int 1000 & info [ "m"; "count" ] ~docv:"M" ~doc)


(* kmp: read rectangles from a file ("lo1 hi1 lo2 hi2 ..." per line) or
   generate a synthetic cloud. *)

let kmp_cmd =
  let file =
    let doc = "Read rectangles (one per line: lo1 hi1 lo2 hi2 ...) from $(docv)." in
    Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)
  in
  let dim =
    let doc = "Dimension of synthetic boxes." in
    Arg.(value & opt int 2 & info [ "dim" ] ~docv:"D" ~doc)
  in
  let universe =
    let doc = "Side of the universe (each coordinate in [0, $(docv)))." in
    Arg.(value & opt int 1_000_000 & info [ "u"; "universe" ] ~docv:"N" ~doc)
  in
  let exact =
    let doc = "Also compute the exact union volume (slow; small inputs only)." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run epsilon delta seed count file dim universe exact =
    let boxes =
      match file with
      | Some path -> Delphic_stream.Parsers.rectangles_of_file path
      | None ->
        let rng = Rng.create ~seed in
        Workload.Rectangles.uniform rng ~universe ~dim ~count ~max_side:(universe / 20)
    in
    match boxes with
    | [] -> prerr_endline "no rectangles"; exit 1
    | first :: _ ->
      let d = Rectangle.dim first in
      let side =
        match file with
        | None -> universe
        | Some _ ->
          1 + List.fold_left (fun acc b -> Array.fold_left Stdlib.max acc (Rectangle.hi b)) 0 boxes
      in
      let log2_universe = float_of_int d *. log2f (float_of_int side) in
      let t = Vatic_rect.create ~epsilon ~delta ~log2_universe ~seed () in
      List.iter (Vatic_rect.process t) boxes;
      Printf.printf "estimated union volume: %.6g  (M = %d boxes, d = %d)\n"
        (Vatic_rect.estimate t) (List.length boxes) d;
      Printf.printf "estimator state: %s\n" (Vatic_rect.describe t);
      if exact then
        Printf.printf "exact union volume:     %s\n"
          (Bigint.to_string (Exact.rectangle_union boxes))
  in
  let doc = "Estimate the union volume of a stream of axis-parallel boxes (Klee's Measure Problem)." in
  Cmd.v (Cmd.info "kmp" ~doc)
    Term.(const run $ epsilon $ delta $ seed $ count $ file $ dim $ universe $ exact)

(* dnf: synthetic random k-DNF model counting. *)

let dnf_cmd =
  let nvars =
    let doc = "Number of Boolean variables." in
    Arg.(value & opt int 40 & info [ "n"; "nvars" ] ~docv:"N" ~doc)
  in
  let width =
    let doc = "Literals per term." in
    Arg.(value & opt int 10 & info [ "w"; "width" ] ~docv:"W" ~doc)
  in
  let exact =
    let doc = "Also compute the exact model count with a BDD." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let file =
    let doc = "Read terms (DIMACS-style signed literals per line) from $(docv)." in
    Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)
  in
  let run epsilon delta seed count nvars width exact file =
    let rng = Rng.create ~seed in
    let terms =
      match file with
      | Some path -> Delphic_stream.Parsers.dnf_of_file ~nvars path
      | None -> Workload.Dnf_terms.random rng ~nvars ~count ~width
    in
    let t =
      Vatic_dnf.create ~epsilon ~delta ~log2_universe:(float_of_int nvars) ~seed ()
    in
    List.iter (Vatic_dnf.process t) terms;
    Printf.printf "estimated model count: %.6g  (n = %d, %d terms)\n"
      (Vatic_dnf.estimate t) nvars (List.length terms);
    Printf.printf "estimator state: %s\n" (Vatic_dnf.describe t);
    if exact then
      Printf.printf "exact model count:     %s\n"
        (Bigint.to_string (Exact.dnf_count ~nvars terms))
  in
  let doc = "Estimate the model count of a streamed DNF formula." in
  Cmd.v (Cmd.info "dnf" ~doc)
    Term.(const run $ epsilon $ delta $ seed $ count $ nvars $ width $ exact $ file)

(* coverage: t-wise coverage of a random test suite. *)

let coverage_cmd =
  let nbits =
    let doc = "Width of each test vector." in
    Arg.(value & opt int 14 & info [ "n"; "nbits" ] ~docv:"N" ~doc)
  in
  let strength =
    let doc = "Interaction strength t." in
    Arg.(value & opt int 2 & info [ "t"; "strength" ] ~docv:"T" ~doc)
  in
  let exact =
    let doc = "Also compute the exact coverage by enumeration." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let file =
    let doc = "Read test vectors (one 0/1 string per line) from $(docv)." in
    Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)
  in
  let run epsilon delta seed count nbits strength exact file =
    let rng = Rng.create ~seed in
    let vectors =
      match file with
      | Some path -> Delphic_stream.Parsers.vectors_of_file path
      | None -> Workload.Coverage_suites.random rng ~nbits ~count ~bias:0.5
    in
    let nbits =
      match vectors with [] -> nbits | v :: _ -> Delphic_util.Bitvec.width v
    in
    let stream = Workload.Coverage_suites.coverage_sets ~strength vectors in
    let log2_universe = Bigint.log2 (Coverage.universe_size ~n:nbits ~strength) in
    let t = Vatic_cov.create ~epsilon ~delta ~log2_universe ~seed () in
    List.iter (Vatic_cov.process t) stream;
    Printf.printf "estimated %d-wise coverage: %.6g  (%d vectors of %d bits)\n" strength
      (Vatic_cov.estimate t) (List.length vectors) nbits;
    Printf.printf "estimator state: %s\n" (Vatic_cov.describe t);
    if exact then
      Printf.printf "exact coverage:            %s\n"
        (Bigint.to_string (Exact.coverage_union ~strength vectors))
  in
  let doc = "Estimate the t-wise coverage of a streamed test suite." in
  Cmd.v (Cmd.info "coverage" ~doc)
    Term.(const run $ epsilon $ delta $ seed $ count $ nbits $ strength $ exact $ file)

(* distinct: classic distinct elements on a Zipf stream. *)

let distinct_cmd =
  let universe =
    let doc = "Universe size." in
    Arg.(value & opt int 1_000_000 & info [ "u"; "universe" ] ~docv:"N" ~doc)
  in
  let zipf =
    let doc = "Zipf exponent for the value distribution (0 = uniform)." in
    Arg.(value & opt float 0.0 & info [ "zipf" ] ~docv:"S" ~doc)
  in
  let run epsilon delta seed count universe zipf =
    let rng = Rng.create ~seed in
    let stream =
      if zipf > 0.0 then Workload.Singletons.zipf rng ~universe ~count ~exponent:zipf
      else Workload.Singletons.uniform rng ~universe ~count
    in
    let t =
      Vatic_single.create ~epsilon ~delta
        ~log2_universe:(log2f (float_of_int universe))
        ~seed ()
    in
    List.iter (Vatic_single.process t) stream;
    let truth = Exact.distinct (List.map Delphic_sets.Singleton.value stream) in
    Printf.printf "estimated distinct: %.6g   exact: %d\n" (Vatic_single.estimate t) truth;
    Printf.printf "estimator state: %s\n" (Vatic_single.describe t)
  in
  let doc = "Estimate the number of distinct elements in a synthetic stream." in
  Cmd.v (Cmd.info "distinct" ~doc)
    Term.(const run $ epsilon $ delta $ seed $ count $ universe $ zipf)

(* hypervolume: dominated volume of a streamed Pareto front. *)

let hypervolume_cmd =
  let dim =
    let doc = "Number of objectives." in
    Arg.(value & opt int 3 & info [ "dim" ] ~docv:"D" ~doc)
  in
  let universe =
    let doc = "Objective scale (coordinates in [0, $(docv)))." in
    Arg.(value & opt int 4096 & info [ "u"; "universe" ] ~docv:"N" ~doc)
  in
  let exact =
    let doc = "Also compute the exact hypervolume (small inputs only)." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run epsilon delta seed count dim universe exact =
    let rng = Rng.create ~seed in
    let front =
      Workload.Hypervolumes.pareto_front rng ~universe ~dim ~count
    in
    let log2_universe = float_of_int dim *. log2f (float_of_int universe) in
    let t = Vatic_hyper.create ~epsilon ~delta ~log2_universe ~seed () in
    List.iter (Vatic_hyper.process t) front;
    Printf.printf "estimated hypervolume: %.6g  (%d points, %d objectives)\n"
      (Vatic_hyper.estimate t) count dim;
    Printf.printf "estimator state: %s\n" (Vatic_hyper.describe t);
    if exact then
      Printf.printf "exact hypervolume:     %s\n"
        (Bigint.to_string
           (Exact.rectangle_union
              (List.map Delphic_sets.Hypervolume.to_rectangle front)))
  in
  let doc = "Estimate the hypervolume indicator of a streamed Pareto front." in
  Cmd.v (Cmd.info "hypervolume" ~doc)
    Term.(const run $ epsilon $ delta $ seed $ count $ dim $ universe $ exact)

(* xor: union of random XOR-constraint solution spaces. *)

let xor_cmd =
  let nvars =
    let doc = "Number of GF(2) variables." in
    Arg.(value & opt int 48 & info [ "n"; "nvars" ] ~docv:"N" ~doc)
  in
  let rows =
    let doc = "Constraints per system." in
    Arg.(value & opt int 38 & info [ "r"; "rows" ] ~docv:"R" ~doc)
  in
  let run epsilon delta seed count nvars rows =
    let rng = Rng.create ~seed in
    let stream = ref [] in
    while List.length !stream < count do
      let row () =
        { Delphic_util.Gf2.coeffs = Delphic_util.Bitvec.random rng ~width:nvars;
          rhs = Rng.bool rng }
      in
      match
        Delphic_sets.Affine_subspace.create_opt ~nvars
          (List.init rows (fun _ -> row ()))
      with
      | Some s -> stream := s :: !stream
      | None -> ()
    done;
    let t =
      Vatic_affine.create ~epsilon ~delta ~log2_universe:(float_of_int nvars) ~seed ()
    in
    List.iter (Vatic_affine.process t) !stream;
    Printf.printf
      "estimated union of %d affine subspaces of GF(2)^%d: %.6g\n" count nvars
      (Vatic_affine.estimate t);
    Printf.printf "estimator state: %s\n" (Vatic_affine.describe t)
  in
  let doc = "Estimate the union size of random XOR-constraint solution spaces." in
  Cmd.v (Cmd.info "xor" ~doc)
    Term.(const run $ epsilon $ delta $ seed $ count $ nvars $ rows)

(* watch: incremental estimates over boxes streaming on stdin. *)

module Watch_vatic = Delphic_core.Vatic.Make (Rectangle)

let watch_cmd =
  let every =
    let doc = "Print a running estimate every $(docv) items." in
    Arg.(value & opt int 100 & info [ "every" ] ~docv:"N" ~doc)
  in
  let log2u =
    let doc = "log2 of the universe size (boxes: d * log2 |Delta|)." in
    Arg.(value & opt float 40.0 & info [ "log2-universe" ] ~docv:"B" ~doc)
  in
  let run epsilon delta seed every log2u =
    let t = Watch_vatic.create ~epsilon ~delta ~log2_universe:log2u ~seed () in
    let items = ref 0 in
    let lineno = ref 0 in
    (try
       while true do
         let line = String.trim (input_line stdin) in
         incr lineno;
         if line <> "" && line.[0] <> '#' then begin
           let box = Delphic_stream.Parsers.rectangle_of_line ~lineno:!lineno line in
           Watch_vatic.process t box;
           incr items;
           if !items mod every = 0 then
             Printf.printf "%d items: estimate %.6g (bucket %d)\n%!" !items
               (Watch_vatic.estimate t) (Watch_vatic.bucket_size t)
         end
       done
     with End_of_file -> ());
    Printf.printf "final after %d items: %.6g\n" !items (Watch_vatic.estimate t)
  in
  let doc =
    "Stream boxes on stdin (one per line: lo1 hi1 lo2 hi2 ...) and print running union-volume estimates."
  in
  Cmd.v (Cmd.info "watch" ~doc)
    Term.(const run $ epsilon $ delta $ seed $ every $ log2u)

(* compare: all applicable estimators on one synthetic range stream. *)

module Cmp_vatic = Delphic_core.Vatic.Make (Range1d)
module Cmp_aps = Delphic_core.Aps_estimator.Make (Range1d)
module Cmp_kl = Delphic_core.Karp_luby.Make (Range1d)

let compare_cmd =
  let universe =
    let doc = "Universe size." in
    Arg.(value & opt int 1_000_000 & info [ "u"; "universe" ] ~docv:"N" ~doc)
  in
  let heavy =
    let doc = "Use a heavy-tailed (Pareto) length distribution instead of uniform." in
    Arg.(value & flag & info [ "heavy-tailed" ] ~doc)
  in
  let run epsilon delta seed count universe heavy =
    let rng = Rng.create ~seed in
    let pool =
      if heavy then
        Workload.Ranges.heavy_tailed rng ~universe ~count:(max 1 (count / 5)) ~shape:0.8
      else Workload.Ranges.uniform rng ~universe ~count:(max 1 (count / 5))
             ~max_len:(max 1 (universe / 200))
    in
    let pool_arr = Array.of_list pool in
    let stream =
      List.init count (fun _ -> pool_arr.(Rng.int rng (Array.length pool_arr)))
    in
    let truth = float_of_int (Exact.range_union pool) in
    let log2u = log2f (float_of_int universe) in
    let time f =
      let t0 = Unix.gettimeofday () in
      let v = f () in
      (v, Unix.gettimeofday () -. t0)
    in
    let vatic, vt =
      time (fun () ->
          let t = Cmp_vatic.create ~epsilon ~delta ~log2_universe:log2u ~seed () in
          List.iter (Cmp_vatic.process t) stream;
          (Cmp_vatic.estimate t, Cmp_vatic.max_bucket_size t))
    in
    let aps, at =
      time (fun () ->
          let t =
            Cmp_aps.create ~epsilon ~delta ~log2_universe:log2u
              ~stream_length:(List.length stream) ~seed ()
          in
          List.iter (Cmp_aps.process t) stream;
          (Cmp_aps.estimate t, Cmp_aps.max_bucket_size t))
    in
    let kl, kt =
      time (fun () ->
          let t = Cmp_kl.create ~epsilon ~delta ~seed () in
          List.iter (Cmp_kl.add t) stream;
          (Cmp_kl.estimate t, Cmp_kl.stored_sets t))
    in
    let err est = Float.abs (est -. truth) /. truth in
    Printf.printf "exact union size: %.0f (M = %d, %s lengths)\n" truth count
      (if heavy then "heavy-tailed" else "uniform");
    Delphic_harness.Table.print
      ~header:[ "method"; "estimate"; "rel err"; "space"; "seconds" ]
      [
        [ "VATIC (unknown M)"; Printf.sprintf "%.0f" (fst vatic);
          Printf.sprintf "%.4f" (err (fst vatic));
          Printf.sprintf "%d entries" (snd vatic); Printf.sprintf "%.3f" vt ];
        [ "APS (needs M)"; Printf.sprintf "%.0f" (fst aps);
          Printf.sprintf "%.4f" (err (fst aps));
          Printf.sprintf "%d entries" (snd aps); Printf.sprintf "%.3f" at ];
        [ "Karp-Luby (offline)"; Printf.sprintf "%.0f" (fst kl);
          Printf.sprintf "%.4f" (err (fst kl));
          Printf.sprintf "%d sets stored" (snd kl); Printf.sprintf "%.3f" kt ];
      ]
  in
  let doc = "Run VATIC, APS-Estimator and Karp-Luby side by side on one range stream." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ epsilon $ delta $ seed $ count $ universe $ heavy)

(* serve: the TCP estimation service (lib/server). *)

let port_arg =
  let doc = "TCP port (0 picks an ephemeral port and prints it)." in
  Arg.(value & opt int 7764 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Address to bind/connect to." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let max_conns_arg =
  let doc =
    "Accept at most $(docv) concurrent connections; the event loop closes \
     excess accepts immediately instead of queueing them.  The process \
     descriptor limit is raised toward $(docv) at startup when possible."
  in
  Arg.(value & opt int 16384 & info [ "max-conns" ] ~docv:"N" ~doc)

(* WAL options, shared by serve and worker: --wal DIR upgrades the
   durability contract from "graceful stop" to "kill -9". *)

let wal_term =
  let wal_dir =
    let doc =
      "Write-ahead journal directory.  Every accepted mutation is journalled \
       (length-prefixed, CRC-framed) before its OK leaves the socket, and \
       startup recovers from the last checkpoint plus the journal tail — the \
       process survives $(b,kill -9) without losing an acknowledged set.  \
       The spool directory is then unused."
    in
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"DIR" ~doc)
  in
  let fsync =
    let fsync_conv =
      Arg.conv
        ( (fun s ->
            match Delphic_server.Wal.fsync_policy_of_string s with
            | Ok p -> Ok p
            | Error msg -> Error (`Msg msg)),
          fun ppf p ->
            Format.pp_print_string ppf
              (Delphic_server.Wal.fsync_policy_to_string p) )
    in
    let doc =
      "Journal fsync policy: $(b,always) (survives power cuts), $(b,never) \
       (survives process death only), or $(b,interval)[:SECONDS] (fsync at \
       most once per interval; default 0.2s).  Only meaningful with \
       $(b,--wal)."
    in
    Arg.(
      value
      & opt fsync_conv (Delphic_server.Wal.Interval 0.2)
      & info [ "fsync" ] ~docv:"POLICY" ~doc)
  in
  let checkpoint_every =
    let doc =
      "Snapshot the sessions and truncate the journal every $(docv) journal \
       records ($(b,0) disables periodic checkpoints; the graceful-stop one \
       remains).  Only meaningful with $(b,--wal)."
    in
    Arg.(value & opt int 512 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  (* Deprecated shim: older launch scripts pass [--wal-group 1]; any other
     value asked for group commit, which no longer exists, so it is refused
     rather than silently ignored. *)
  let wal_group =
    let only_one =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some 1 -> Ok ()
            | _ ->
              Error
                (`Msg
                   (Printf.sprintf
                      "%s: group commit was removed; every journal append is \
                       written before its reply, so only 1 is accepted" s))),
          fun ppf () -> Format.pp_print_int ppf 1 )
    in
    let doc =
      "Deprecated; accepts only $(b,1).  Group commit was removed: every \
       journal append is written (and fsynced per $(b,--fsync)) before its \
       OK/OKB leaves the socket."
    in
    Arg.(value & opt only_one () & info [ "wal-group" ] ~docv:"1" ~doc)
  in
  let combine dir fsync checkpoint_every () =
    Option.map (fun dir -> { Delphic_server.Server.dir; fsync; checkpoint_every }) dir
  in
  Term.(const combine $ wal_dir $ fsync $ checkpoint_every $ wal_group)

let durability_banner = function
  | None -> ""
  | Some { Delphic_server.Server.dir; fsync; _ } ->
    Printf.sprintf ", wal: %s (fsync %s)" dir
      (Delphic_server.Wal.fsync_policy_to_string fsync)

let serve_cmd =
  let spool =
    let doc =
      "Spool directory for durable session snapshots: restored on start, \
       written on SIGINT/SIGTERM.  Superseded by $(b,--wal) when given."
    in
    Arg.(value & opt string "delphic-spool" & info [ "spool" ] ~docv:"DIR" ~doc)
  in
  let run seed port host spool wal max_conns =
    ignore (Delphic_server.Evloop.raise_nofile (max_conns + 64));
    let server = Delphic_server.Server.create ~host ?wal ~port ~spool ~seed ~max_conns () in
    Delphic_server.Evloop.stop_on_signals (fun () ->
        Delphic_server.Server.request_stop server);
    List.iter
      (function
        | name, Ok () -> Printf.printf "restored session %s\n%!" name
        | name, Error msg ->
          Printf.printf "warning: session %s not restored: %s\n%!" name msg)
      (Delphic_server.Server.restored server);
    Printf.printf "delphic serve: listening on %s:%d (spool: %s%s)\n%!" host
      (Delphic_server.Server.port server)
      spool (durability_banner wal);
    Delphic_server.Server.serve server;
    print_endline "delphic serve: stopped; sessions spooled"
  in
  let doc =
    "Run the estimation service: a newline-delimited TCP protocol \
     (OPEN/ADD/EST/EXPR/STATS/SNAPSHOT/RESTORE/CLOSE/PING) over long-lived \
     estimator sessions, with durable snapshots on shutdown (or a \
     write-ahead journal with $(b,--wal)).  EXPR estimates the cardinality \
     of a set expression over open sessions, e.g. \
     $(b,EXPR (A & B) \\\\ C)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ seed $ port_arg $ host_arg $ spool $ wal_term $ max_conns_arg)

(* worker / coord: the sharded cluster (lib/cluster).  A worker is just a
   server under a name that reads well in cluster commands. *)

let worker_cmd =
  let spool =
    let doc = "Spool directory for durable session snapshots." in
    Arg.(value & opt string "delphic-worker-spool" & info [ "spool" ] ~docv:"DIR" ~doc)
  in
  let run seed port host spool wal max_conns =
    ignore (Delphic_server.Evloop.raise_nofile (max_conns + 64));
    let server = Delphic_server.Server.create ~host ?wal ~port ~spool ~seed ~max_conns () in
    Delphic_server.Evloop.stop_on_signals (fun () ->
        Delphic_server.Server.request_stop server);
    Printf.printf "delphic worker: listening on %s:%d (spool: %s%s)\n%!" host
      (Delphic_server.Server.port server)
      spool (durability_banner wal);
    Delphic_server.Server.serve server;
    print_endline "delphic worker: stopped; sessions spooled"
  in
  let doc =
    "Run one cluster worker: a full estimation server (every verb including \
     SNAPSHOT/MERGE/HELLO), ready to be driven by $(b,delphic coord); with \
     $(b,--wal) an acknowledged set survives $(b,kill -9)."
  in
  Cmd.v (Cmd.info "worker" ~doc)
    Term.(const run $ seed $ port_arg $ host_arg $ spool $ wal_term $ max_conns_arg)

let workers_arg =
  let parse s =
    let worker tok =
      match String.rindex_opt tok ':' with
      | None -> Error (Printf.sprintf "%S: want host:port" tok)
      | Some i -> (
        let host = String.sub tok 0 i in
        let port = String.sub tok (i + 1) (String.length tok - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && host <> "" -> Ok (host, p)
        | _ -> Error (Printf.sprintf "%S: want host:port" tok))
    in
    let rec all acc = function
      | [] -> Ok (List.rev acc)
      | tok :: rest -> (
        match worker tok with Ok w -> all (w :: acc) rest | Error _ as e -> e)
    in
    match
      all [] (String.split_on_char ',' s |> List.filter (fun x -> String.trim x <> ""))
    with
    | Ok [] -> Error (`Msg "empty worker list")
    | Ok ws -> Ok ws
    | Error msg -> Error (`Msg msg)
  in
  let print ppf ws =
    Format.pp_print_string ppf
      (String.concat "," (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) ws))
  in
  let workers_conv = Arg.conv (parse, print) in
  let doc = "Comma-separated worker addresses, e.g. $(b,127.0.0.1:7801,127.0.0.1:7802)." in
  Arg.(
    required & opt (some workers_conv) None & info [ "w"; "workers" ] ~docv:"HOST:PORT,..." ~doc)

let coord_cmd =
  let timeout =
    let doc = "Per-worker connect/read/write timeout in seconds." in
    Arg.(value & opt float 2.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let replicas =
    let doc =
      "Keep $(docv) full copies of each session, on its home ring position \
       and the successors (clamped to the pool size).  A query reads one \
       copy, so replication never changes the estimate; with $(b,2) the \
       cluster answers EST fresh through the loss of any single worker.  \
       $(b,1) disables replication."
    in
    Arg.(value & opt int 2 & info [ "replicas" ] ~docv:"R" ~doc)
  in
  let dial_timeout =
    let doc =
      "TCP connect budget per worker dial in seconds, separate from \
       $(b,--timeout): a black-holed worker address costs one dial budget \
       and is quarantined instead of stalling the scatter."
    in
    Arg.(value & opt float 2.0 & info [ "dial-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let epoch =
    let doc =
      "Fencing epoch announced to every worker ($(b,COORD) verb; $(b,0) \
       disables fencing).  Workers refuse mutations from connections whose \
       announced epoch has been superseded — how a deposed primary's late \
       writes die after a failover."
    in
    Arg.(value & opt int 1 & info [ "epoch" ] ~docv:"E" ~doc)
  in
  let standby_of =
    let standby_conv =
      Arg.conv
        ( (fun tok ->
            match String.rindex_opt tok ':' with
            | None -> Error (`Msg (Printf.sprintf "%S: want host:port" tok))
            | Some i -> (
              let host = String.sub tok 0 i in
              let port = String.sub tok (i + 1) (String.length tok - i - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && host <> "" -> Ok (host, p)
              | _ -> Error (`Msg (Printf.sprintf "%S: want host:port" tok)))),
          fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p )
    in
    let doc =
      "Run as a warm standby of the primary coordinator at $(docv): serve \
       every query read-only (mutations answer $(b,ERR READONLY)) while the \
       primary's LEASE renews, and take over — rebuilding routing state \
       purely from the workers and fencing the old primary with a higher \
       epoch — when it stops."
    in
    Arg.(
      value
      & opt (some standby_conv) None
      & info [ "standby-of" ] ~docv:"HOST:PORT" ~doc)
  in
  let lease_interval =
    let doc =
      "Lease poll period in seconds for $(b,--standby-of); 3 consecutive \
       misses trigger the takeover."
    in
    Arg.(value & opt float 0.5 & info [ "lease-interval" ] ~docv:"SECONDS" ~doc)
  in
  let batch =
    let doc =
      "Scatter batch size: up to $(docv) consecutive same-session sets are \
       framed into one ADDB request per worker ($(b,1) disables batching)."
    in
    Arg.(value & opt int 64 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let run seed port host workers timeout replicas dial_timeout epoch
      standby_of lease_interval batch max_conns =
    ignore (Delphic_server.Evloop.raise_nofile (max_conns + 64));
    let coord =
      Delphic_cluster.Coordinator.create ~replicas ~timeout
        ~dial_timeout ~epoch ~batch ~workers ~seed ()
    in
    let failover =
      Option.map
        (fun primary ->
          let f =
            Delphic_cluster.Failover.create ~interval:lease_interval ~dial_timeout
              ~timeout ~primary ~coord ()
          in
          Delphic_cluster.Failover.start f;
          f)
        standby_of
    in
    let frontend =
      Delphic_cluster.Frontend.create ~host ~port ~max_conns
        ~dispatch:(Delphic_cluster.Coordinator.dispatch coord)
        ()
    in
    Delphic_server.Evloop.stop_on_signals (fun () ->
        Delphic_cluster.Frontend.request_stop frontend);
    Printf.printf
      "delphic coord: listening on %s:%d, %d workers (%d replica%s%s)\n%!"
      host
      (Delphic_cluster.Frontend.port frontend)
      (List.length workers)
      replicas
      (if replicas = 1 then "" else "s")
      (match standby_of with
      | None -> ""
      | Some (h, p) -> Printf.sprintf ", standby of %s:%d" h p);
    Delphic_cluster.Frontend.serve frontend;
    Option.iter Delphic_cluster.Failover.stop failover;
    Delphic_cluster.Coordinator.shutdown coord;
    print_endline "delphic coord: stopped (workers keep running)"
  in
  let doc =
    "Run the scatter/gather coordinator: speaks the same protocol as \
     $(b,delphic serve).  Each session lives on its home ring position \
     and the successors ($(b,--replicas) full copies); ADDs go to every \
     copy and EST reads one (DEGRADED is flagged only when no copy \
     answers fresh).  EXPR \
     set-expression queries are answered coordinator-side from the same \
     gathered sketches — workers need no new verb.  With \
     $(b,--standby-of) the process is a warm standby that takes over with \
     a fencing epoch when the primary's lease lapses."
  in
  Cmd.v
    (Cmd.info "coord" ~doc)
    Term.(
      const run $ seed $ port_arg $ host_arg $ workers_arg $ timeout
      $ replicas $ dial_timeout $ epoch $ standby_of $ lease_interval $ batch
      $ max_conns_arg)

(* query: one-shot client for the service. *)

let query_cmd =
  let commands =
    let doc =
      "Request lines to send (e.g. \"PING\", \"OPEN s1 rect 0.2 0.1 40\", \
       \"ADD s1 t=12.5 0 9 0 9\", \"WIN s1 60\", \"EXPR (A & B) \\\\ C\"); \
       with none, lines are read from stdin."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST" ~doc)
  in
  let at =
    let doc =
      "Pin the logical clock at $(docv) seconds: WIN lines without an \
       explicit $(b,at=) are pinned to it, and ADD/ADDB lines without \
       $(b,t=) are stamped with it — reproducible windowed runs without \
       editing every line."
    in
    Arg.(value & opt (some float) None & info [ "at" ] ~docv:"SECS" ~doc)
  in
  let run port host at commands =
    let pin line =
      match at with
      | None -> line
      | Some a -> (
        let module P = Delphic_server.Protocol in
        match P.parse_request line with
        | Ok (P.Win ({ at = None; _ } as r)) ->
          P.render_request (P.Win { r with at = Some a })
        | Ok (P.Add ({ ts = None; _ } as r)) ->
          P.render_request (P.Add { r with ts = Some a })
        | Ok (P.Add_batch ({ ts = None; _ } as r)) ->
          P.render_request (P.Add_batch { r with ts = Some a })
        | Ok _ | Error _ -> line (* anything else goes out verbatim *))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    (try Unix.connect fd addr
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "delphic query: cannot connect to %s:%d: %s\n" host port
         (Unix.error_message e);
       exit 1);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let failures = ref 0 in
    let roundtrip line =
      let line = pin line in
      output_string oc line;
      output_char oc '\n';
      flush oc;
      match input_line ic with
      | reply ->
        print_endline reply;
        if String.length reply >= 4 && String.sub reply 0 4 = "ERR " then incr failures
      | exception End_of_file ->
        prerr_endline "delphic query: server closed the connection";
        exit 1
    in
    (match commands with
    | [] -> (
      try
        while true do
          roundtrip (input_line stdin)
        done
      with End_of_file -> ())
    | _ -> List.iter roundtrip commands);
    Unix.close fd;
    if !failures > 0 then exit 3
  in
  let doc =
    "Send protocol requests to a running $(b,delphic serve) and print the \
     replies (exit 3 if any reply is an ERR).  Supports the full grammar \
     including timestamped ingestion (ADD/ADDB $(b,t=) tokens) and windowed \
     queries ($(b,WIN <session> <seconds> [at=<secs>])); $(b,--at) pins the \
     logical clock across a whole scripted run."
  in
  Cmd.v (Cmd.info "query" ~doc) Term.(const run $ port_arg $ host_arg $ at $ commands)

(* experiments *)

let experiments_cmd =
  let only =
    let doc = "Run only the experiment with this id (e.g. E4); default: all." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let list_flag =
    let doc = "List experiment ids and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let csv_flag =
    let doc = "Emit tables as CSV instead of aligned text." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let run only list_flag csv_flag =
    if csv_flag then Delphic_harness.Table.set_output `Csv;
    if list_flag then
      List.iter
        (fun (id, descr, _) -> Printf.printf "%-4s %s\n" id descr)
        Delphic_harness.Experiments.all
    else
      match only with
      | Some id -> Delphic_harness.Experiments.run id
      | None -> Delphic_harness.Experiments.run_all ()
  in
  let doc = "Run the paper-reproduction experiment suite (see EXPERIMENTS.md)." in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ only $ list_flag $ csv_flag)

let () =
  let doc = "streaming estimation of the size of unions of Delphic sets (PODS'22)" in
  let info = Cmd.info "delphic" ~version:"1.0.0" ~doc in
  match
    Cmd.eval ~catch:false
      (Cmd.group info
         [ kmp_cmd; dnf_cmd; coverage_cmd; distinct_cmd; hypervolume_cmd; xor_cmd;
           compare_cmd; watch_cmd; serve_cmd; worker_cmd; coord_cmd; query_cmd;
           experiments_cmd ])
  with
  | code -> exit code
  | exception Delphic_stream.Parsers.Parse_error { line; msg } ->
    (* Malformed input data is a user error, not a crash: no backtrace. *)
    Printf.eprintf "delphic: parse error at line %d: %s\n" line msg;
    exit 2
  | exception exn ->
    Printf.eprintf "delphic: internal error: %s\n" (Printexc.to_string exn);
    exit 125
