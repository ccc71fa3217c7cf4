(** The shared frame layout: [u32 len | u32 crc32(body) | body], big-endian.

    Used both by the write-ahead journal ({!Wal}) on disk and by wire
    protocol v2 ({!Evloop}, [Rpc]) on sockets — deliberately the same bytes,
    so journalling a v2 mutation is a zero-copy splice of the wire frame. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, reflected 0xEDB88320) of the whole string. *)

val crc32_bytes : Bytes.t -> pos:int -> len:int -> int

val be32 : Buffer.t -> int -> unit
(** Append [v] as 4 big-endian bytes. *)

val read_be32 : string -> int -> int
(** Read 4 big-endian bytes at [off].  No bounds checking beyond the
    string's own. *)

val read_be32_bytes : Bytes.t -> int -> int
(** {!read_be32} over a byte buffer. *)

val max_body : int
(** Upper bound on a frame body; longer lengths are treated as desync. *)

val frame : string -> string
(** [frame body] is the 8-byte header followed by [body]. *)

val frame_into : Buffer.t -> string -> unit
(** Append [frame body] to a buffer without the intermediate string. *)

val frame_parts_into : Buffer.t -> head:string -> string -> unit
(** [frame_parts_into buf ~head tail] appends [frame (head ^ tail)] without
    building the concatenation — a short record tag in front of a large
    payload. *)

type sink
(** A reusable growable byte scratch.  Unlike [Buffer.t], framing from a
    sink ({!frame_sink_into}) reads its bytes in place — no
    [Buffer.contents] string per frame.  Encoders pool one sink per
    connection and {!sink_clear} it between requests. *)

val sink_create : int -> sink
val sink_clear : sink -> unit
val sink_len : sink -> int

val sink_contents : sink -> string
(** A copy of the bytes written since the last {!sink_clear}. *)

val sink_char : sink -> char -> unit
val sink_string : sink -> string -> unit
val sink_be32 : sink -> int -> unit

val frame_sink_into : Buffer.t -> sink -> unit
(** Append the frame (header + sink contents as the body) to [buf]. *)

val preamble : string
(** The 4-byte connection preamble ["\x00DP2"] a v2 client sends first.
    A leading NUL never begins a v1 text request, which is what makes
    first-byte protocol auto-detection unambiguous. *)

type scan_result =
  | Need of int  (** incomplete: at least [n] more bytes before rescanning *)
  | Got of { body : string; next : int }
      (** one whole frame; [next] is the offset just past it *)
  | Bad of string  (** unrecoverable: CRC mismatch or an absurd length *)

val scan : Bytes.t -> pos:int -> len:int -> scan_result
(** Try to decode one frame from [buf.[pos..len)].  Incremental: callers
    accumulate bytes and rescan from the same [pos] until [Got]/[Bad]. *)
