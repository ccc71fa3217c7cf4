type sketch = {
  mode : Params.mode;
  capacity_scale : float;
  coupon_scale : float;
  s_items : int;
  max_bucket : int;
  skipped : int;
  membership_calls : int;
  cardinality_calls : int;
  sampling_calls : int;
  min_level : int;
}

type header = {
  family : string;
  epsilon : float;
  delta : float;
  log2_universe : float;
  exact_capacity : int;
  items : int;
  merges : int;
  exact_active : bool;
  sketch : sketch option;
}

let version = 4
let magic = "\x00DS4"

let top_level entries = List.fold_left (fun m (l, _, _) -> Stdlib.max m l) 0 entries

(* ---- v4 binary writer ----

   Integers are LEB128 varints over the 63-bit word (negative values take
   the full nine bytes and still round-trip); floats are their IEEE-754 bits
   big-endian, so every double — NaN payloads included — survives exactly.
   A writer takes the header and the entry counts up front, then the
   entries one by one, so an estimator can stream its tables straight into
   a token without building an intermediate record. *)

let rec add_varint buf v =
  if v land lnot 0x7F = 0 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (v land 0x7F lor 0x80));
    add_varint buf (v lsr 7)
  end

let add_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)

let family_ok f = f <> "" && not (String.exists (fun c -> c = ' ' || c = '\n' || c = '\r') f)

type writer = { buf : Buffer.t; mutable exact_left : int; mutable sketch_left : int }

let writer (t : header) ~exact ~sketch =
  if not (family_ok t.family) then
    invalid_arg "Snapshot_io.encode: family token must be non-empty and space-free";
  let buf = Buffer.create (64 + (24 * (exact + sketch))) in
  Buffer.add_string buf magic;
  add_varint buf (String.length t.family);
  Buffer.add_string buf t.family;
  add_float buf t.epsilon;
  add_float buf t.delta;
  add_float buf t.log2_universe;
  add_varint buf t.exact_capacity;
  add_varint buf t.items;
  add_varint buf t.merges;
  Buffer.add_char buf
    (Char.chr ((if t.exact_active then 1 else 0) lor if t.sketch <> None then 2 else 0));
  add_varint buf exact;
  (match t.sketch with
  | None -> ()
  | Some s ->
    Buffer.add_char buf (match s.mode with Params.Paper -> '\x00' | Params.Practical -> '\x01');
    add_float buf s.capacity_scale;
    add_float buf s.coupon_scale;
    List.iter (add_varint buf)
      [
        s.s_items; s.max_bucket; s.skipped; s.membership_calls; s.cardinality_calls;
        s.sampling_calls; s.min_level; sketch;
      ]);
  { buf; exact_left = exact; sketch_left = (if t.sketch = None then 0 else sketch) }

let add_exact w ts elt =
  if w.exact_left <= 0 then invalid_arg "Snapshot_io: more exact entries than announced";
  w.exact_left <- w.exact_left - 1;
  add_float w.buf ts;
  add_varint w.buf (Buffer.length elt);
  Buffer.add_buffer w.buf elt

let add_sketch w level ts elt =
  if w.exact_left > 0 || w.sketch_left <= 0 then
    invalid_arg "Snapshot_io: sketch entry out of order or beyond the announced count";
  w.sketch_left <- w.sketch_left - 1;
  add_varint w.buf level;
  add_float w.buf ts;
  add_varint w.buf (Buffer.length elt);
  Buffer.add_buffer w.buf elt

let finish w =
  if w.exact_left <> 0 || w.sketch_left <> 0 then
    invalid_arg "Snapshot_io: fewer entries than announced";
  (* the trailer: CRC-32 of everything before it *)
  let crc = Delphic_util.Crc32.string (Buffer.contents w.buf) in
  Buffer.add_int32_be w.buf (Int32.of_int crc);
  Buffer.contents w.buf

(* ---- v4 binary reader ----

   A cursor over the token; every short read raises [Corrupt], turned into
   an [Error] at the API boundary — the only exception this reader uses.
   [open_binary] checks the CRC, decodes the header and walks every entry
   once to validate the structure, allocating nothing per entry; afterwards
   the entries can be walked again in place, handing each element out as a
   (token, offset, length) slice. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type cursor = { s : string; stop : int; mutable pos : int }

let need c k what = if k < 0 || c.stop - c.pos < k then corrupt "truncated snapshot in %s" what

let varint c what =
  need c 1 what;
  let b = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  if b < 0x80 then b
  else begin
    let acc = ref (b land 0x7F) and shift = ref 7 and more = ref true in
    while !more do
      need c 1 what;
      let b = Char.code (String.unsafe_get c.s c.pos) in
      c.pos <- c.pos + 1;
      acc := !acc lor ((b land 0x7F) lsl !shift);
      if b < 0x80 then more := false
      else if !shift >= 56 then corrupt "overlong varint in %s" what
      else shift := !shift + 7
    done;
    !acc
  end

let count c what =
  let v = varint c what in
  if v < 0 then corrupt "negative %s" what;
  v

let float c what =
  need c 8 what;
  let v = Int64.float_of_bits (String.get_int64_be c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let byte c what =
  need c 1 what;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

(* A decoded snapshot: a validated v4 token whose entries stay in the token
   bytes until someone walks them — decoding a token costs its header and
   one validation pass, and a fold reads the elements in place. *)
type t = {
  tok : string;
  head : header;
  exact_at : int;  (** offset of the first exact entry *)
  sketch_at : int;  (** offset of the first sketch entry *)
  n_exact : int;
  n_sketch : int;
}

let cursor b pos = { s = b.tok; stop = String.length b.tok - 4; pos }

(* The walkers hand out each entry's timestamp as the offset of its eight
   bytes ([ts_at], read with [stamp]) rather than as a float: a float passed
   to a closure is boxed, and the validation walk reads no timestamp. *)
let stamp b at = Int64.float_of_bits (String.get_int64_be b.tok at)

(* [f ts_at pos len] for each exact entry in token order; returns the
   offset just past the section. *)
let walk_exact b ~from f =
  let c = cursor b from in
  for _ = 1 to b.n_exact do
    need c 8 "exact entry";
    let ts_at = c.pos in
    c.pos <- c.pos + 8;
    let len = count c "exact entry" in
    need c len "exact entry";
    f ts_at c.pos len;
    c.pos <- c.pos + len
  done;
  c.pos

(* [f level ts_at pos len] for each sketch entry, checking every level
   against the header's minimum level; returns the offset just past the
   section. *)
let walk_sketch b ~from f =
  let c = cursor b from in
  let min_level = match b.head.sketch with Some s -> s.min_level | None -> 0 in
  let top = ref 0 in
  for _ = 1 to b.n_sketch do
    let level = count c "sketch entry level" in
    if level > min_level then
      corrupt "sketch entry level %d above the header's %d" level min_level;
    if level > !top then top := level;
    need c 8 "sketch entry";
    let ts_at = c.pos in
    c.pos <- c.pos + 8;
    let len = count c "sketch entry" in
    need c len "sketch entry";
    f level ts_at c.pos len;
    c.pos <- c.pos + len
  done;
  if !top <> min_level then
    corrupt "header min-level %d but the top entry level is %d" min_level !top;
  c.pos

let open_binary s =
  let n = String.length s - 4 in
  if n < String.length magic then corrupt "truncated snapshot";
  if Int32.to_int (String.get_int32_be s n) land 0xFFFFFFFF
     <> Delphic_util.Crc32.substring s ~pos:0 ~len:n
  then corrupt "snapshot checksum mismatch";
  let c = { s; stop = n; pos = String.length magic } in
  (* every entry holds at least a timestamp and a length byte, so a count
     the remaining bytes cannot hold is corruption, caught before use *)
  let entry_count what =
    let k = count c what in
    if k > (c.stop - c.pos) / 9 then corrupt "%s count %d exceeds the token" what k;
    k
  in
  let flen = count c "family" in
  need c flen "family";
  let family = String.sub s c.pos flen in
  c.pos <- c.pos + flen;
  if not (family_ok family) then corrupt "empty or malformed family token";
  let epsilon = float c "epsilon" in
  let delta = float c "delta" in
  let log2_universe = float c "log2-universe" in
  let exact_capacity = varint c "exact-capacity" in
  let items = varint c "items" in
  let merges = varint c "merges" in
  let flags = byte c "flags" in
  if flags land lnot 3 <> 0 then corrupt "unknown flags 0x%x" flags;
  let n_exact = entry_count "exact-entries" in
  let sketch, n_sketch =
    if flags land 2 = 0 then (None, 0)
    else begin
      let mode =
        match byte c "mode" with
        | 0 -> Params.Paper
        | 1 -> Params.Practical
        | m -> corrupt "unknown mode %d" m
      in
      let capacity_scale = float c "capacity-scale" in
      let coupon_scale = float c "coupon-scale" in
      let s_items = varint c "sketch items" in
      let max_bucket = varint c "max-bucket" in
      let skipped = varint c "skipped" in
      let membership_calls = varint c "membership-calls" in
      let cardinality_calls = varint c "cardinality-calls" in
      let sampling_calls = varint c "sampling-calls" in
      let min_level = count c "min-level" in
      let n_sketch = entry_count "sketch-entries" in
      ( Some
          {
            mode;
            capacity_scale;
            coupon_scale;
            s_items;
            max_bucket;
            skipped;
            membership_calls;
            cardinality_calls;
            sampling_calls;
            min_level;
          },
        n_sketch )
    end
  in
  let head =
    {
      family;
      epsilon;
      delta;
      log2_universe;
      exact_capacity;
      items;
      merges;
      exact_active = flags land 1 <> 0;
      sketch;
    }
  in
  let b = { tok = s; head; exact_at = c.pos; sketch_at = c.pos; n_exact; n_sketch } in
  let sketch_at = walk_exact b ~from:b.exact_at (fun _ _ _ -> ()) in
  let stop = walk_sketch b ~from:sketch_at (fun _ _ _ _ -> ()) in
  if stop <> n then corrupt "%d trailing bytes" (n - stop);
  { b with sketch_at }

let decode s =
  if not (String.starts_with ~prefix:magic s) then
    Error "not a v4 snapshot token (bad magic)"
  else match open_binary s with b -> Ok b | exception Corrupt msg -> Error msg

let of_wire = decode

let make (head : header) ~exact ~sketch =
  let head, sketch =
    match head.sketch with
    | None -> (head, [])
    | Some s -> ({ head with sketch = Some { s with min_level = top_level sketch } }, sketch)
  in
  let w = writer head ~exact:(List.length exact) ~sketch:(List.length sketch) in
  let elt = Buffer.create 64 in
  let put e =
    Buffer.clear elt;
    Buffer.add_string elt e;
    elt
  in
  List.iter (fun (ts, e) -> add_exact w ts (put e)) exact;
  List.iter (fun (level, ts, e) -> add_sketch w level ts (put e)) sketch;
  match open_binary (finish w) with
  | b -> b
  | exception Corrupt msg -> invalid_arg ("Snapshot_io.make: " ^ msg)

let header b = b.head
let exact_count b = b.n_exact
let sketch_count b = b.n_sketch
let encode b = b.tok

(* A validated token cannot fail a second walk. *)
let iter_exact b f =
  ignore (walk_exact b ~from:b.exact_at (fun ts_at at len -> f (stamp b ts_at) b.tok at len))

let iter_sketch b f =
  ignore
    (walk_sketch b ~from:b.sketch_at (fun level ts_at at len ->
         f level (stamp b ts_at) b.tok at len))

let exact_entries t =
  let acc = ref [] in
  iter_exact t (fun ts s at len -> acc := (ts, String.sub s at len) :: !acc);
  List.rev !acc

let sketch_entries t =
  let acc = ref [] in
  iter_sketch t (fun level ts s at len -> acc := (level, ts, String.sub s at len) :: !acc);
  List.rev !acc

let equal a b =
  header a = header b
  && exact_entries a = exact_entries b
  && sketch_entries a = sketch_entries b

let save ?(fsync = false) ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (encode t);
      flush oc;
      if fsync then
        try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  Sys.rename tmp path

let load ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in_noerr ic;
    decode contents
