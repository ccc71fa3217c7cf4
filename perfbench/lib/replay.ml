(* In-process replay of a traced run: the frames the generator sent and the
   sketch tokens the probes fetched are pushed through each layer's public
   functions again, one timed call at a time, with the cluster already torn
   down.  Every layer gets a wall-clock budget so a slow layer (VATIC on
   60 000-wide boxes) cannot stretch the run past its deadline. *)

module P = Delphic_server.Protocol
module Frame = Delphic_server.Frame
module Registry = Delphic_server.Registry
module Families = Delphic_server.Families
module Wal = Delphic_server.Wal
module Server = Delphic_server.Server
module Coordinator = Delphic_cluster.Coordinator
module Snapshot_io = Delphic_core.Snapshot_io
module Vatic = Delphic_core.Vatic.Make (Delphic_sets.Rectangle)

let now = Unix.gettimeofday

(* Call count, busy seconds and work units (sets, records) of one layer. *)
type acc = { mutable calls : int; mutable busy : float; mutable units : int }

let acc () = { calls = 0; busy = 0.0; units = 0 }

let timed a ?(units = 1) f =
  let t0 = now () in
  let r = f () in
  a.busy <- a.busy +. (now () -. t0);
  a.calls <- a.calls + 1;
  a.units <- a.units + units;
  r

let us_per_unit a = if a.units = 0 then 0.0 else a.busy *. 1e6 /. float_of_int a.units

let ms_per_call a = if a.calls = 0 then 0.0 else a.busy *. 1e3 /. float_of_int a.calls

let metric name a value unit = Report.metric ~calls:a.calls ~busy_ms:(a.busy *. 1e3) name value unit

(* [f] over [xs] in order until the list or [budget] seconds run out. *)
let within ~budget xs f =
  let stop = now () +. budget in
  List.iter (fun x -> if now () < stop then f x) xs

let get what = function Ok v -> v | Error e -> failwith (Printf.sprintf "replay %s: %s" what e)

let get_p what = function Ok v -> v | Error e -> failwith (Printf.sprintf "replay %s: %s" what (P.describe_error e))

type frame = { name : string; payloads : string list; boxes : Delphic_sets.Rectangle.t list; ts : float; sets : int }

let frames (spec : Spec.t) (sent : Loadgen.frame list) =
  List.map
    (fun (f : Loadgen.frame) ->
      let s = spec.sessions.(f.session) in
      let p = Array.length s.pool in
      let idx i = (f.first + i) mod p in
      {
        name = s.name;
        payloads = List.init f.count (fun i -> s.payloads.(idx i));
        boxes = List.init f.count (fun i -> s.pool.(idx i));
        ts = f.stamp;
        sets = f.count;
      })
    sent

let request f = P.Add_batch { session = f.name; payloads = f.payloads; ts = Some f.ts }

let open_all (spec : Spec.t) open_session =
  Array.iter
    (fun (s : Spec.session) ->
      open_session ~name:s.name ~family:P.Rect ~epsilon:Spec.epsilon ~delta:Spec.delta
        ~log2_universe:Spec.log2_universe)
    spec.sessions

let registry spec =
  let r = Registry.create ~seed:1 () in
  open_all spec (fun ~name ~family ~epsilon ~delta ~log2_universe ->
      get_p "OPEN" (Registry.open_session r ~name ~family ~epsilon ~delta ~log2_universe));
  r

(* Protocol + Frame: the ADDB codec both ways. *)
let wire fs =
  let enc = acc () and dec = acc () in
  let bytes = ref 0 and sets = ref 0 in
  within ~budget:0.5 fs (fun f ->
      let framed = timed enc (fun () -> Frame.frame (P.encode_request_v2 (request f))) in
      bytes := !bytes + String.length framed;
      sets := !sets + f.sets;
      timed dec (fun () ->
          match Frame.scan (Bytes.unsafe_of_string framed) ~pos:0 ~len:(String.length framed) with
          | Frame.Got { body; _ } -> ignore (get_p "decode" (P.parse_frame_body body))
          | Frame.Need _ | Frame.Bad _ -> failwith "replay: a frame did not scan back"));
  [
    metric "wire.encode_us_per_frame" enc (ms_per_call enc *. 1e3) "us";
    metric "wire.decode_us_per_frame" dec (ms_per_call dec *. 1e3) "us";
    metric "wire.bytes_per_set" enc (if !sets = 0 then 0.0 else float_of_int !bytes /. float_of_int !sets) "B";
  ]

(* Registry writes, ADDL materialisation, then the WAL over the same
   frames with a checkpoint every 512 records (the CLI default). *)
let registry_and_wal spec fs ~dir =
  let eager = registry spec and logged = registry spec in
  let add = acc () and log = acc () and mat = acc () in
  within ~budget:1.5 fs (fun f ->
      ignore
        (timed add ~units:f.sets (fun () ->
             get_p "add_batch" (Registry.add_batch ~ts:f.ts eager ~name:f.name ~payloads:f.payloads))));
  within ~budget:1.0 fs (fun f ->
      ignore
        (timed log ~units:f.sets (fun () ->
             get_p "add_log" (Registry.add_log ~ts:f.ts logged ~name:f.name ~payloads:f.payloads))));
  let names = List.sort_uniq compare (List.map (fun f -> f.name) fs) in
  List.iter (fun name -> ignore (timed mat (fun () -> get_p "estimate" (Registry.estimate logged ~name)))) names;
  let wal = Wal.open_ ~dir ~fsync:(Wal.Interval 0.2) in
  let app = acc () and ckpt = acc () in
  let checkpoint () =
    ignore
      (timed ckpt (fun () -> Wal.checkpoint wal ~spool:(fun ~dir -> Registry.snapshot_all ~fsync:true eager ~dir)))
  in
  Fun.protect
    ~finally:(fun () -> Wal.close wal)
    (fun () ->
      within ~budget:0.5 fs (fun f ->
          let framed = Frame.frame (P.encode_request_v2 (request f)) in
          timed app (fun () -> Wal.append_framed wal framed);
          if app.calls mod 512 = 0 then checkpoint ());
      if ckpt.calls = 0 then checkpoint ());
  [
    metric "registry.add_batch_us_per_set" add (us_per_unit add) "us";
    metric "registry.add_log_us_per_set" log (us_per_unit log) "us";
    metric "registry.materialise_ms_per_1k_sets" mat
      (if log.units = 0 then 0.0 else mat.busy *. 1e6 /. float_of_int log.units)
      "ms";
    metric "wal.append_us_per_record" app (ms_per_call app *. 1e3) "us";
    metric "wal.checkpoint_ms" ckpt (ms_per_call ckpt) "ms";
  ]

(* Coordinator scatter against three in-process workers (R=2, v2, batch
   64 — the deployed shape), flushing every eight frames. *)
let coordinator spec fs ~dir =
  let workers =
    List.init Sut.workers (fun i ->
        let s = Server.create ~port:0 ~spool:(Filename.concat dir (Printf.sprintf "rs%d" i)) ~seed:(i + 1) () in
        (s, Server.start s))
  in
  let coord =
    Coordinator.create ~replicas:2 ~proto:Delphic_cluster.Rpc.V2
      ~workers:(List.map (fun (s, _) -> ("127.0.0.1", Server.port s)) workers)
      ~seed:1 ()
  in
  let add = acc () and flush = acc () in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.shutdown coord;
      List.iter
        (fun (s, th) ->
          Server.request_stop s;
          Thread.join th)
        workers)
    (fun () ->
      open_all spec (fun ~name ~family ~epsilon ~delta ~log2_universe ->
          get_p "OPEN" (Coordinator.open_session coord ~name ~family ~epsilon ~delta ~log2_universe));
      within ~budget:1.5 fs (fun f ->
          ignore
            (timed add ~units:f.sets (fun () ->
                 get_p "add_batch" (Coordinator.add_batch ~ts:f.ts coord ~name:f.name ~payloads:f.payloads)));
          if add.calls mod 8 = 0 then timed flush (fun () -> Coordinator.flush coord));
      timed flush (fun () -> Coordinator.flush coord));
  [
    metric "coordinator.add_batch_us_per_set" add (us_per_unit add) "us";
    metric "coordinator.flush_ms" flush (ms_per_call flush) "ms";
  ]

(* The estimator alone: the adaptive exact table while it holds, and raw
   VATIC at ε ∈ {0.1, 0.2, 0.3} over the same first sets (E3 without wire
   cost). *)
let sweep = [ 0.1; 0.2; 0.3 ]

let estimator fs =
  let sets = List.concat_map (fun f -> List.map2 (fun p b -> (f.ts, p, b)) f.payloads f.boxes) fs in
  let first n = List.filteri (fun i _ -> i < n) sets in
  let exact = acc () in
  let fam =
    get "create"
      (Families.create ~family:P.Rect ~epsilon:Spec.epsilon ~delta:Spec.delta ~log2_universe:Spec.log2_universe
         ~seed:1)
  in
  within ~budget:1.0 (first 8192) (fun (ts, payload, _) ->
      if Families.is_exact fam then timed exact (fun () -> Families.add ~ts fam ~lineno:(exact.calls + 1) payload));
  let runs =
    List.map
      (fun epsilon ->
        let a = acc () in
        let v = Vatic.create ~epsilon ~delta:Spec.delta ~log2_universe:Spec.log2_universe ~seed:1 () in
        within ~budget:2.0 (first 1024) (fun (ts, _, box) -> timed a (fun () -> Vatic.process ~ts v box));
        (epsilon, a))
      sweep
  in
  let at eps = List.assoc eps runs in
  metric "estimator.update_exact_us_per_set" exact (ms_per_call exact *. 1e3) "us"
  :: metric "estimator.update_sketch_us_per_set" (at Spec.epsilon) (ms_per_call (at Spec.epsilon) *. 1e3) "us"
  :: List.map
       (fun (eps, a) -> metric (Printf.sprintf "estimator.update_sketch_us_per_set.eps%g" eps) a (ms_per_call a *. 1e3) "us")
       runs

(* The gather's coordinator half over the probes' tokens: decode every
   worker's token, fold, estimate, window, and evaluate the expression. *)
let gather ~tokens ~cutoff =
  let decode toks =
    List.map (fun tok -> get "of_io" (Families.of_io (get "of_wire" (Snapshot_io.of_wire tok)) ~seed:1)) toks
  in
  let fold = function
    | [] -> failwith "replay: no tokens to fold"
    | x :: rest -> List.fold_left (fun acc y -> get "merge" (Families.merge acc y ~seed:1)) x rest
  in
  let dec = acc () and fld = acc () and est = acc () and win = acc () and ex = acc () in
  let a_tokens = List.assoc "A" tokens in
  let stop = now () +. 3.0 in
  let rep = ref 0 in
  while !rep < 10 && (!rep = 0 || now () < stop) do
    let ds = timed dec (fun () -> decode a_tokens) in
    let folded = timed fld (fun () -> fold ds) in
    ignore (timed est (fun () -> Families.estimate folded));
    ignore (timed win (fun () -> Families.estimate_window folded ~cutoff));
    incr rep
  done;
  let leaves = List.map (fun (name, toks) -> (name, fold (decode toks))) tokens in
  let union = fold (List.map snd leaves) in
  let stop = now () +. 3.0 in
  let rep = ref 0 in
  while !rep < 5 && (!rep = 0 || now () < stop) do
    ignore
      (timed ex (fun () ->
           get "expr"
             (Families.expr_estimate ~union ~leaves ~expr:Spec.expr ~samples:Registry.default_expr_samples)));
    incr rep
  done;
  [
    metric "gather.decode_ms" dec (ms_per_call dec) "ms";
    metric "gather.fold_ms" fld (ms_per_call fld) "ms";
    metric "gather.estimate_ms" est (ms_per_call est) "ms";
    metric "gather.window_ms" win (ms_per_call win) "ms";
    metric "expr.eval_ms" ex (ms_per_call ex) "ms";
  ]

let run (spec : Spec.t) (sent : Loadgen.frame list) ~tokens ~cutoff ~dir =
  let fs = frames spec sent in
  Sut.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> Sut.rm_rf dir)
    (fun () ->
      wire fs
      @ registry_and_wal spec fs ~dir:(Filename.concat dir "wal")
      @ coordinator spec fs ~dir
      @ estimator fs
      @ gather ~tokens ~cutoff)
