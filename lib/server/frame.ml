(* One frame layout for the wire and the journal: [u32 len | u32 crc | body],
   both integers big-endian, CRC-32 over the body.  The WAL has used this
   shape since PR 5; protocol v2 adopts it verbatim so a journalled mutation
   is a byte-for-byte splice of the wire frame — no re-render, no re-CRC. *)

(* CRC-32 (IEEE 802.3, the zlib polynomial): a torn tail must be
   detectable with what the binary always has. *)
let crc32 = Delphic_util.Crc32.string
let crc32_bytes = Delphic_util.Crc32.bytes

let be32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let read_be32_bytes b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* A frame larger than this is a desynced or hostile peer, not a request:
   the biggest legitimate body is an ADDB batch, and the coordinator caps
   batches three orders of magnitude below this. *)
let max_body = 64 * 1024 * 1024

let frame body =
  let buf = Buffer.create (String.length body + 8) in
  be32 buf (String.length body);
  be32 buf (crc32 body);
  Buffer.add_string buf body;
  Buffer.contents buf

let frame_into buf body =
  be32 buf (String.length body);
  be32 buf (crc32 body);
  Buffer.add_string buf body

(* The frame of body [head ^ tail], written without building that
   concatenation: a binary reply record is a short tag in front of a
   payload that can be hundreds of kilobytes. *)
let frame_parts_into buf ~head tail =
  be32 buf (String.length head + String.length tail);
  be32 buf (Delphic_util.Crc32.strings [ head; tail ]);
  Buffer.add_string buf head;
  Buffer.add_string buf tail

(* A reusable growable scratch buffer.  Buffer.t would do, except
   Buffer.contents allocates a fresh string per use — on the v2 batch-1
   path that per-tiny-frame churn is measurable.  A sink exposes its
   bytes, so encode → CRC → frame runs with zero intermediate strings. *)
type sink = { mutable sb : Bytes.t; mutable slen : int }

let sink_create n = { sb = Bytes.create (max 16 n); slen = 0 }
let sink_clear s = s.slen <- 0
let sink_contents s = Bytes.sub_string s.sb 0 s.slen

let sink_reserve s extra =
  let need = s.slen + extra in
  if need > Bytes.length s.sb then begin
    let cap = ref (Bytes.length s.sb * 2) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit s.sb 0 nb 0 s.slen;
    s.sb <- nb
  end

let sink_char s c =
  sink_reserve s 1;
  Bytes.unsafe_set s.sb s.slen c;
  s.slen <- s.slen + 1

let sink_string s str =
  let n = String.length str in
  sink_reserve s n;
  Bytes.blit_string str 0 s.sb s.slen n;
  s.slen <- s.slen + n

let sink_be32 s v =
  sink_reserve s 4;
  Bytes.unsafe_set s.sb s.slen (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Bytes.unsafe_set s.sb (s.slen + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set s.sb (s.slen + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set s.sb (s.slen + 3) (Char.unsafe_chr (v land 0xFF));
  s.slen <- s.slen + 4

let frame_sink_into buf s =
  be32 buf s.slen;
  be32 buf (crc32_bytes s.sb ~pos:0 ~len:s.slen);
  Buffer.add_subbytes buf s.sb 0 s.slen

(* Connections that speak v2 open with these four bytes.  The leading NUL
   can never start a v1 text request (verbs are ASCII letters), which is
   the whole auto-detection story: peek one byte, branch once, done. *)
let preamble = "\x00DP2"

type scan_result =
  | Need of int  (** incomplete: at least [n] more bytes before rescanning *)
  | Got of { body : string; next : int }
      (** one whole frame; [next] is the offset just past it *)
  | Bad of string  (** unrecoverable: CRC mismatch or an absurd length *)

let scan buf ~pos ~len =
  let avail = len - pos in
  if avail < 8 then Need (8 - avail)
  else begin
    let blen = read_be32_bytes buf pos in
    if blen > max_body then
      Bad (Printf.sprintf "frame length %d exceeds limit %d" blen max_body)
    else if avail - 8 < blen then Need (blen - (avail - 8))
    else begin
      let crc = read_be32_bytes buf (pos + 4) in
      if crc32_bytes buf ~pos:(pos + 8) ~len:blen <> crc then
        Bad (Printf.sprintf "CRC mismatch on %d-byte frame" blen)
      else Got { body = Bytes.sub_string buf (pos + 8) blen; next = pos + 8 + blen }
    end
  end
