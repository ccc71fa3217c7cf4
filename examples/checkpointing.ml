(* Surviving a restart mid-stream with sketch checkpointing.

   A session's state is a few thousand (element, level) pairs plus its
   parameters, and it has one saved form: the v4 snapshot token.
   Families.encode writes it straight from the estimator's tables,
   Snapshot_io.save puts it on disk, and Families.of_io folds it back into
   a live session — here across a simulated crash halfway through a day of
   box traffic.

   Run with:  dune exec examples/checkpointing.exe *)

module Families = Delphic_server.Families
module Protocol = Delphic_server.Protocol
module Snapshot_io = Delphic_core.Snapshot_io
module Rectangle = Delphic_sets.Rectangle
module Workload = Delphic_stream.Workload

let ok = function Ok v -> v | Error msg -> failwith msg

(* The service's rect line: "lo hi" per dimension. *)
let line box =
  let lo = Rectangle.lo box and hi = Rectangle.hi box in
  String.concat " " (List.init (Array.length lo) (fun i -> Printf.sprintf "%d %d" lo.(i) hi.(i)))

let () =
  let universe = 1_000_000 and dim = 2 in
  let log2_universe = 2.0 *. (log (float_of_int universe) /. log 2.0) in
  let rng = Delphic_util.Rng.create ~seed:4242 in
  let pool = Workload.Rectangles.uniform rng ~universe ~dim ~count:200 ~max_side:50_000 in
  let day =
    List.init 4000 (fun _ -> List.nth pool (Delphic_util.Rng.int rng 200))
  in
  let morning = List.filteri (fun i _ -> i < 2000) day in
  let afternoon = List.filteri (fun i _ -> i >= 2000) day in
  let session seed =
    ok (Families.create ~family:Protocol.Rect ~epsilon:0.15 ~delta:0.1 ~log2_universe ~seed)
  in
  let feed t boxes = List.iteri (fun i b -> Families.add t ~lineno:(i + 1) (line b)) boxes in

  (* Process the morning, checkpoint, "crash". *)
  let before = session 1 in
  feed before morning;
  let path = Filename.temp_file "checkpoint" ".snap" in
  let token = ok (Snapshot_io.decode (ok (Families.encode before))) in
  Snapshot_io.save ~path token;
  Printf.printf "checkpoint after %d items: %d sketch entries, %d bytes\n"
    (Snapshot_io.header token).Snapshot_io.items
    (Snapshot_io.sketch_count token)
    (String.length (Snapshot_io.encode token));

  (* A new process restores and finishes the day. *)
  let resumed = ok (Families.of_io (ok (Snapshot_io.load ~path)) ~seed:99) in
  Sys.remove path;
  feed resumed afternoon;

  (* An uninterrupted run for comparison. *)
  let uninterrupted = session 1 in
  feed uninterrupted day;

  let exact = Delphic_util.Bigint.to_float (Delphic_sets.Exact.rectangle_union pool) in
  let show name v =
    Printf.printf "%-24s %.6g  (rel.err %.4f)\n" name v
      (Float.abs (v -. exact) /. exact)
  in
  Printf.printf "exact union volume:      %.6g\n" exact;
  show "resumed estimate:" (Families.estimate resumed);
  show "uninterrupted estimate:" (Families.estimate uninterrupted)
