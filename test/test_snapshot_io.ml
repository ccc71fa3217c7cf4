(* Versioned snapshot codec: exact v4 round-trips (qcheck, per family),
   v1..v3 text compatibility, atomic file persistence, decode robustness
   (every truncation and byte flip of a token is an [Error]), and estimator
   snapshot/restore parity for the Adaptive wrapper and EXT-VATIC. *)

module Io = Delphic_core.Snapshot_io
module Families = Delphic_server.Families
module Params = Delphic_core.Params
module Rng = Delphic_util.Rng
module Range1d = Delphic_sets.Range1d
module Exact = Delphic_sets.Exact
module Workload = Delphic_stream.Workload
module A = Delphic_core.Adaptive.Make (Range1d)
module Wrap = Delphic_sets.Approx_wrap.Make (Range1d)
module Ext = Delphic_core.Ext_vatic.Make (Wrap)

let sample_header =
  {
    Io.family = "cov:14:2";
    epsilon = 0.2;
    delta = 0.1;
    log2_universe = 40.0;
    exact_capacity = 1835;
    items = 123;
    merges = 4;
    exact_active = false;
    sketch =
      Some
        {
          Io.mode = Params.Practical;
          capacity_scale = 1.0;
          coupon_scale = 2.5;
          s_items = 123;
          max_bucket = 7012;
          skipped = 0;
          membership_calls = 14;
          cardinality_calls = 123;
          sampling_calls = 9;
          min_level = 4;
        };
  }

let sample_exact = [ (8.0, "3 7"); (0.0, "0 0"); (12.5, "12 40") ]
let sample_sketch = [ (3, 1.5, "1,2:1010"); (3, 0.0, "5:0001"); (4, 2.5e5, "9,9:1111") ]
let sample_io = Io.make sample_header ~exact:sample_exact ~sketch:sample_sketch

let check_roundtrip name io =
  match Io.decode (Io.encode io) with
  | Ok io' -> Alcotest.(check bool) name true (Io.equal io io')
  | Error msg -> Alcotest.failf "%s: decode failed: %s" name msg

let test_fixed_roundtrips () =
  check_roundtrip "with sketch" sample_io;
  check_roundtrip "exact only"
    (Io.make
       { sample_header with Io.family = "rect"; exact_active = true; sketch = None }
       ~exact:[] ~sketch:[]);
  (* Element strings are opaque bytes: spaces, newlines, NULs survive. *)
  check_roundtrip "awkward elements"
    (Io.make
       {
         sample_header with
         Io.sketch =
           Some { (Option.get sample_header.Io.sketch) with Io.mode = Params.Paper };
       }
       ~exact:[ (0.25, " leading space"); (0.0, "new\nline"); (3.0, "nul\000\255") ]
       ~sketch:[ (0, 1.0, "a b c"); (2, infinity, ""); (1, neg_infinity, "\r\n") ]);
  (* a decoded token re-encodes to its own bytes *)
  let tok = Io.encode sample_io in
  match Io.decode tok with
  | Ok io -> Alcotest.(check string) "decoded token re-encodes verbatim" tok (Io.encode io)
  | Error msg -> Alcotest.fail msg

let test_header () =
  Alcotest.(check int) "current version" 4 Io.version;
  Alcotest.(check string) "v4 magic first" "\000DS4" (String.sub (Io.encode sample_io) 0 4)

(* v1 snapshots (no merges line) must keep decoding, with merges = 0. *)
let v1_text =
  "delphic-snapshot v1\nfamily rect\nepsilon 0x1p-2\ndelta 0x1p-3\n\
   log2-universe 0x1.4p5\nexact-capacity 10\nitems 2\nexact-active true\n\
   exact-entries 2\nE 3 7\nE 0 0\nno-sketch\nend\n"

let test_decode_v1 () =
  match Io.decode v1_text with
  | Error msg -> Alcotest.failf "v1 decode: %s" msg
  | Ok io ->
    Alcotest.(check int) "v1 merges default" 0 (Io.header io).Io.merges;
    Alcotest.(check int) "v1 items" 2 (Io.header io).Io.items;
    Alcotest.(check bool) "v1 entries at t=0" true
      (Io.exact_entries io = [ (0.0, "3 7"); (0.0, "0 0") ])

(* v2 snapshots (merges line, no timestamps) decode with every ts = 0. *)
let v2_text =
  "delphic-snapshot v2\nfamily rect\nepsilon 0x1p-2\ndelta 0x1p-3\n\
   log2-universe 0x1.4p5\nexact-capacity 10\nitems 3\nmerges 2\n\
   exact-active false\nexact-entries 1\nE 3 7\n\
   sketch practical 0x1p0 0x1.4p1 3 12 0 4 3 1\nsketch-entries 2\n\
   3 17 42\n5 0 0\nend\n"

let test_decode_v2 () =
  match Io.decode v2_text with
  | Error msg -> Alcotest.failf "v2 decode: %s" msg
  | Ok io ->
    Alcotest.(check int) "v2 merges kept" 2 (Io.header io).Io.merges;
    Alcotest.(check bool) "v2 exact entries at t=0" true
      (Io.exact_entries io = [ (0.0, "3 7") ]);
    Alcotest.(check bool) "v2 sketch entries at t=0" true
      (Io.sketch_entries io = [ (3, 0.0, "17 42"); (5, 0.0, "0 0") ]);
    (* re-encoding a v2 decode produces a v4 token that round-trips *)
    check_roundtrip "upgraded round-trip" io

(* v3 text snapshots — what spool files and checkpoints held before the
   binary format — keep loading, timestamps and all. *)
let v3_text =
  "delphic-snapshot v3\nfamily rect\nepsilon 0x1p-2\ndelta 0x1p-3\n\
   log2-universe 0x1.4p5\nexact-capacity 10\nitems 5\nmerges 1\n\
   exact-active false\nexact-entries 1\nE 0x1.8p3 3 7\n\
   sketch practical 0x1p0 0x1.4p1 5 12 0 4 3 1\nsketch-entries 2\n\
   3 0x1.4p1 17 42\n5 0x0p+0 0 0\nend\n"

let test_decode_v3 () =
  match Io.decode v3_text with
  | Error msg -> Alcotest.failf "v3 decode: %s" msg
  | Ok io ->
    Alcotest.(check int) "v3 merges kept" 1 (Io.header io).Io.merges;
    Alcotest.(check bool) "v3 exact entry timestamped" true
      (Io.exact_entries io = [ (12.0, "3 7") ]);
    Alcotest.(check bool) "v3 sketch entries timestamped" true
      (Io.sketch_entries io = [ (3, 2.5, "17 42"); (5, 0.0, "0 0") ]);
    Alcotest.(check int) "min level derived from the entries" 5
      (Option.get (Io.header io).Io.sketch).Io.min_level;
    check_roundtrip "upgraded round-trip" io;
    (* and it still restores into a live session *)
    match Families.of_io io ~seed:1 with
    | Ok f -> Alcotest.(check int) "restored entries" 2 (Families.entries f)
    | Error msg -> Alcotest.failf "v3 restore: %s" msg

let test_restrict () =
  let r = Io.restrict ~cutoff:1.0 sample_io in
  Alcotest.(check bool) "exact entries filtered" true
    (Io.exact_entries r = [ (8.0, "3 7"); (12.5, "12 40") ]);
  Alcotest.(check bool) "sketch entries filtered" true
    (Io.sketch_entries r = [ (3, 1.5, "1,2:1010"); (4, 2.5e5, "9,9:1111") ]);
  let sk = Option.get (Io.header r).Io.sketch in
  Alcotest.(check int) "counters untouched" 123 sk.Io.s_items;
  Alcotest.(check int) "min level follows the entries" 4 sk.Io.min_level;
  Alcotest.(check int) "items untouched" 123 (Io.header r).Io.items;
  Alcotest.(check bool) "neg_infinity cutoff keeps everything" true
    (Io.equal (Io.restrict ~cutoff:neg_infinity sample_io) sample_io);
  (* restricting a decoded token reads its entries in place *)
  match Io.decode (Io.encode sample_io) with
  | Ok io -> Alcotest.(check bool) "same view of a token" true (Io.equal (Io.restrict ~cutoff:1.0 io) r)
  | Error msg -> Alcotest.fail msg

(* --- qcheck: decode . encode = Ok, over random snapshots --- *)

(* Elements as each served family encodes them, plus arbitrary bytes: the
   token treats elements as opaque, length-prefixed strings. *)
let gen_family_elt family =
  QCheck.Gen.(
    let bits n = string_size (return n) ~gen:(oneofl [ '0'; '1' ]) in
    match family with
    | "rect" ->
      map2 (Printf.sprintf "%d %d") (int_range 0 1_000_000) (int_range (-5) 1_000_000)
    | "dnf:40" -> bits 40
    | _ ->
      map2
        (fun (a, b) pat -> Printf.sprintf "%d,%d:%s" a (a + b) pat)
        (pair (int_range 0 12) (int_range 1 2))
        (bits 2))

let gen_bytes = QCheck.Gen.(string_size (int_range 0 20) ~gen:char)

(* (header, exact entries, sketch entries) *)
let gen_parts ~elt =
  QCheck.Gen.(
    let* family = oneofl [ "rect"; "dnf:40"; "cov:14:2" ] in
    let elt = elt family in
    let* epsilon = float_range 0.001 0.999 in
    let* delta = float_range 0.001 0.999 in
    let* log2_universe = float_range 1.0 128.0 in
    let* exact_capacity = int_range 1 100_000 in
    let* items = int_range 0 1_000_000 in
    let* merges = int_range 0 1000 in
    let* exact_active = bool in
    let* exact = list_size (int_range 0 20) (pair (float_range 0.0 2e9) elt) in
    let* sketch_entries =
      list_size (int_range 0 20) (triple (int_range 0 60) (float_range 0.0 2e9) elt)
    in
    let* sketch =
      oneof
        [
          return None;
          (let* mode = oneofl [ Params.Paper; Params.Practical ] in
           let* capacity_scale = float_range 0.25 8.0 in
           let* coupon_scale = float_range 0.25 8.0 in
           let* s_items = int_range 0 1_000_000 in
           let* max_bucket = int_range 0 100_000 in
           let* skipped = int_range 0 100 in
           let* membership_calls = int_range 0 1_000_000 in
           let* cardinality_calls = int_range 0 1_000_000 in
           let* sampling_calls = int_range 0 1_000_000 in
           return
             (Some
                {
                  Io.mode;
                  capacity_scale;
                  coupon_scale;
                  s_items;
                  max_bucket;
                  skipped;
                  membership_calls;
                  cardinality_calls;
                  sampling_calls;
                  min_level = 0;
                }));
        ]
    in
    return
      ( {
          Io.family;
          epsilon;
          delta;
          log2_universe;
          exact_capacity;
          items;
          merges;
          exact_active;
          sketch;
        },
        exact,
        if sketch = None then [] else sketch_entries ))

let prop_roundtrip =
  QCheck.Test.make ~name:"decode . encode = Ok (random)" ~count:300
    (QCheck.make (gen_parts ~elt:(fun _ -> gen_bytes)))
    (fun (h, exact, sketch) ->
      let io = Io.make h ~exact ~sketch in
      match Io.decode (Io.encode io) with
      | Ok io' ->
        Io.equal io io' && Io.exact_entries io' = exact && Io.sketch_entries io' = sketch
      | Error _ -> false)

(* A session restored from a token re-encodes to the same entries, for
   each served family: the element codecs round-trip through the fold, and
   the estimator's direct encoder writes what the record encoder writes.
   Parameters are pinned to ones the estimator accepts; entries are
   distinct elements at levels the sketch can hold. *)
let prop_family_roundtrip =
  let max_level =
    (Params.create ~epsilon:0.2 ~delta:0.1 ~log2_universe:40.0 ()).Params.max_level
  in
  let gen =
    QCheck.Gen.(
      let* h, exact, sketch = gen_parts ~elt:gen_family_elt in
      let exact = List.sort_uniq (fun (_, a) (_, b) -> compare a b) exact in
      let sketch =
        List.sort_uniq (fun (_, _, a) (_, _, b) -> compare a b) sketch
        |> List.map (fun (l, ts, e) -> (min l max_level, ts, e))
      in
      return
        (Io.make
           {
             h with
             Io.epsilon = 0.2;
             delta = 0.1;
             log2_universe = 40.0;
             exact_active = h.Io.exact_active || h.Io.sketch = None;
             sketch =
               Option.map
                 (fun sk ->
                   {
                     sk with
                     Io.capacity_scale = 1.0;
                     coupon_scale = 1.0;
                     max_bucket = sk.Io.max_bucket + List.length sketch;
                   })
                 h.Io.sketch;
           }
           ~exact ~sketch))
  in
  let sorted io =
    Io.make (Io.header io)
      ~exact:(List.sort compare (Io.exact_entries io))
      ~sketch:(List.sort compare (Io.sketch_entries io))
  in
  QCheck.Test.make ~name:"of_wire . encode = Ok (families)" ~count:300
    (QCheck.make gen)
    (fun io ->
      match Io.of_wire (Io.encode io) with
      | Error _ -> false
      | Ok decoded -> (
        Io.equal decoded io
        &&
        match Families.of_io decoded ~seed:7 with
        | Error msg -> QCheck.Test.fail_reportf "of_io: %s" msg
        | Ok f -> (
          let merges = (Io.header io).Io.merges in
          Io.equal (sorted (Families.to_io ~merges f)) (sorted io)
          &&
          match Families.encode ~merges f with
          | Error msg -> QCheck.Test.fail_reportf "encode: %s" msg
          | Ok tok -> (
            match Io.decode tok with
            | Ok direct -> Io.equal (sorted direct) (sorted io)
            | Error msg -> QCheck.Test.fail_reportf "direct token: %s" msg))))

let test_wire_rejects () =
  let expect_error name s =
    match Io.of_wire s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: of_wire accepted garbage" name
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  expect_error "not a snapshot" "hello-world";
  expect_error "bare magic" "\000DS4";
  expect_error "future binary version" "\000DS9xxxxxxxx";
  let token = Io.encode sample_io in
  (* every proper prefix of a token, and every single-byte flip of it *)
  for len = 0 to String.length token - 1 do
    expect_error (Printf.sprintf "prefix %d" len) (String.sub token 0 len)
  done;
  String.iteri
    (fun i c ->
      List.iter
        (fun mask ->
          let b = Bytes.of_string token in
          Bytes.set b i (Char.chr (Char.code c lxor mask));
          expect_error (Printf.sprintf "byte %d ^ 0x%02x" i mask) (Bytes.to_string b))
        [ 0x01; 0x80; 0xFF ])
    token

(* --- file persistence --- *)

let test_save_load () =
  let path = Filename.temp_file "delphic-io" ".snap" in
  Io.save ~path sample_io;
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  (match Io.load ~path with
  | Ok io -> Alcotest.(check bool) "load = save" true (Io.equal io sample_io)
  | Error msg -> Alcotest.failf "load: %s" msg);
  Sys.remove path;
  match Io.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load of a removed file must fail"

let test_decode_rejects () =
  let expect_error name text =
    match Io.decode text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: decode accepted garbage" name
  in
  expect_error "empty" "";
  expect_error "bad magic" "not-a-snapshot v1\n";
  expect_error "future version" "delphic-snapshot v99\nfamily rect\n";
  expect_error "truncated"
    "delphic-snapshot v1\nfamily rect\nepsilon 0x1p-2\n";
  expect_error "count larger than payload"
    "delphic-snapshot v1\nfamily rect\nepsilon 0x1p-2\ndelta 0x1p-3\n\
     log2-universe 0x1.4p5\nexact-capacity 10\nitems 1\nexact-active true\n\
     exact-entries 99\nE 1\nno-sketch\nend\n";
  expect_error "trailing garbage after a bad sketch line"
    "delphic-snapshot v1\nfamily rect\nepsilon 0x1p-2\ndelta 0x1p-3\n\
     log2-universe 0x1.4p5\nexact-capacity 10\nitems 0\nexact-active true\n\
     exact-entries 0\nsketch nonsense\nend\n"

let test_encode_validates () =
  let with_family f = Io.make { sample_header with Io.family = f } ~exact:[] ~sketch:[] in
  Alcotest.check_raises "empty family"
    (Invalid_argument
       "Snapshot_io.encode: family token must be non-empty and space-free")
    (fun () -> ignore (Io.encode (with_family "")));
  Alcotest.check_raises "space in family"
    (Invalid_argument
       "Snapshot_io.encode: family token must be non-empty and space-free")
    (fun () -> ignore (Io.encode (with_family "re ct")))

(* --- estimator snapshot/restore parity --- *)

let sorted_exact (s : A.snapshot) = List.sort compare s.A.exact_entries

let sorted_sketch (s : A.snapshot) =
  Option.map
    (fun (sk : A.sketch_snapshot) -> List.sort compare sk.A.sketch_entries)
    s.A.sketch

let test_adaptive_exact_parity () =
  let t = A.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:1 () in
  List.iter (A.process t)
    [
      Range1d.create ~lo:0 ~hi:9;
      Range1d.create ~lo:5 ~hi:14;
      Range1d.create ~lo:100 ~hi:100;
    ];
  let s = A.snapshot t in
  let t' = A.restore s ~seed:99 in
  Alcotest.(check bool) "still exact" true (A.is_exact t');
  Alcotest.(check (float 0.0)) "same exact estimate" (A.estimate t) (A.estimate t');
  Alcotest.(check int) "same items" (A.items_processed t) (A.items_processed t');
  let s' = A.snapshot t' in
  Alcotest.(check bool)
    "snapshot of restore = snapshot (up to entry order)" true
    (sorted_exact s = sorted_exact s'
    && sorted_sketch s = sorted_sketch s'
    && { s with A.exact_entries = []; sketch = None }
       = { s' with A.exact_entries = []; sketch = None });
  (* the restored copy keeps estimating correctly as the stream continues *)
  A.process t' (Range1d.create ~lo:200 ~hi:209);
  Alcotest.(check (float 0.0)) "resumed exact count" 26.0 (A.estimate t')

let test_adaptive_sketch_parity () =
  let gen = Rng.create ~seed:77 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:200 ~max_len:5000 in
  let truth = float_of_int (Exact.range_union pool) in
  let t = A.create ~epsilon:0.25 ~delta:0.2 ~log2_universe:20.0 ~seed:2 () in
  List.iter (A.process t) pool;
  Alcotest.(check bool) "in sketch mode" false (A.is_exact t);
  let s = A.snapshot t in
  let t' = A.restore s ~seed:1234 in
  Alcotest.(check bool) "restored in sketch mode" false (A.is_exact t');
  Alcotest.(check int) "same items" (A.items_processed t) (A.items_processed t');
  let s' = A.snapshot t' in
  Alcotest.(check bool)
    "sketch state survives the round trip" true
    (sorted_sketch s = sorted_sketch s');
  let est = A.estimate t' in
  Alcotest.(check bool)
    (Printf.sprintf "restored estimate %.0f near %.0f" est truth)
    true
    (Float.abs (est -. truth) <= 0.3 *. truth)

let test_adaptive_restore_validates () =
  let t = A.create ~epsilon:0.3 ~delta:0.2 ~log2_universe:20.0 ~seed:3 () in
  A.process t (Range1d.create ~lo:0 ~hi:9);
  let s = A.snapshot t in
  (match A.restore { s with A.exact_capacity = 0 } ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "exact_capacity 0 must be rejected");
  match A.restore { s with A.exact_active = false; sketch = None } ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sketch mode without a sketch must be rejected"

let test_ext_vatic_parity () =
  let gen = Rng.create ~seed:88 in
  let pool = Workload.Ranges.uniform gen ~universe:1_000_000 ~count:150 ~max_len:4000 in
  let alpha = 0.2 and gamma = 0.05 and eta = 0.1 in
  let wrapped = List.map (Wrap.wrap ~alpha ~gamma ~eta ~salt:5) pool in
  let t =
    Ext.create ~epsilon:0.25 ~delta:0.2 ~log2_universe:20.0 ~alpha ~gamma ~eta
      ~seed:5 ()
  in
  List.iter (Ext.process t) wrapped;
  let s = Ext.snapshot t in
  let t' = Ext.restore s ~seed:500 in
  Alcotest.(check int) "same items" (Ext.items_processed t) (Ext.items_processed t');
  Alcotest.(check int) "same bucket size" (Ext.bucket_size t) (Ext.bucket_size t');
  let s' = Ext.snapshot t' in
  Alcotest.(check bool)
    "bucket survives the round trip" true
    (List.sort compare s.Ext.entries = List.sort compare s'.Ext.entries
    && { s with Ext.entries = [] } = { s' with Ext.entries = [] });
  let truth = float_of_int (Exact.range_union pool) in
  let est = Ext.estimate t' in
  let lo, hi = Ext.window t' in
  Alcotest.(check bool)
    (Printf.sprintf "restored estimate %.0f within window of %.0f" est truth)
    true
    (est >= lo *. truth && est <= hi *. truth)

let suite =
  [
    Alcotest.test_case "fixed round-trips" `Quick test_fixed_roundtrips;
    Alcotest.test_case "header" `Quick test_header;
    Alcotest.test_case "v1 compatibility" `Quick test_decode_v1;
    Alcotest.test_case "v2 compatibility" `Quick test_decode_v2;
    Alcotest.test_case "v3 compatibility" `Quick test_decode_v3;
    Alcotest.test_case "restrict" `Quick test_restrict;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_family_roundtrip;
    Alcotest.test_case "wire rejects garbage" `Quick test_wire_rejects;
    Alcotest.test_case "save/load" `Quick test_save_load;
    Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects;
    Alcotest.test_case "encode validates" `Quick test_encode_validates;
    Alcotest.test_case "adaptive exact parity" `Quick test_adaptive_exact_parity;
    Alcotest.test_case "adaptive sketch parity" `Quick test_adaptive_sketch_parity;
    Alcotest.test_case "adaptive restore validates" `Quick test_adaptive_restore_validates;
    Alcotest.test_case "ext-vatic parity" `Quick test_ext_vatic_parity;
  ]
