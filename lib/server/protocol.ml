module Expr_ast = Delphic_expr.Expr

type family =
  | Rect
  | Dnf of { nvars : int }
  | Cov of { nbits : int; strength : int }

type request =
  | Open of {
      session : string;
      family : family;
      epsilon : float;
      delta : float;
      log2_universe : float;
    }
  | Add of { session : string; payload : string; ts : float option }
  | Add_batch of { session : string; payloads : string list; ts : float option }
  | Add_log of { session : string; payloads : string list; ts : float option }
      (* The backup-copy twin of [Add_batch]: coordinators ship a payload's
         replica copies this way.  The receiver applies them on arrival and
         acks in the same [Ok_batch] shape, listing no errors — parse errors
         are reported once, from the primary copy. *)
  | Est of { session : string }
  | Win of { session : string; seconds : float; at : float option }
  | Stats of { session : string }
  | Snapshot of { session : string; path : string }
  | Restore of { session : string; path : string }
  | Fetch of { session : string; cutoff : float option }
  | Fetch_since of { session : string; cutoff : float option; since : int }
  | Merge of { session : string; encoded : string }
  | Close of { session : string }
  | Expr of { expr : Expr_ast.t; m : int option; w : float option }
  | Ping
  | Hello
  | Server_stats
  | Coord_epoch of { epoch : int }
  | Sessions
  | Lease

type error =
  | Empty_request
  | Unknown_command of string
  | Wrong_arity of { command : string; expected : string }
  | Bad_number of { what : string; value : string }
  | Bad_family of string
  | Bad_session_name of string
  | Unknown_session of string
  | Session_exists of string
  | Bad_params of string
  | Bad_expr of { pos : int; msg : string }
  | Bad_line of { line : int; msg : string }
  | Io_error of string
  | Server_error of string
  | Fenced of int
  | Read_only of string

type stats = {
  family : string;
  items : int;
  entries : int;
  exact : bool;
  last_estimate : float;
  parse_rejects : int;
  merges : int;
}

type expr_quality = Probes_exact | Probes_sketch

(* Process-wide figures for the bare STATS verb: how the front end is
   actually doing.  [dispatched] holds the one event loop's request count;
   it stays a list, rendered with [domains=<length>], and the [wal_*]
   fields stay at 0, all for compatibility with readers of the old forms. *)
type server_stats = {
  conns : int;
  shed : int;
  dispatched : int list;
  wal_queue : int;
  wal_last_group : int;
  wal_groups : int;
  shard_fresh : int list;
}

type session_desc = {
  sd_name : string;
  sd_family : string;
  sd_epsilon : float;
  sd_delta : float;
  sd_log2_universe : float;
}

type response =
  | Ok_reply of string option
  | Ok_batch of { accepted : int; errors : (int * string) list }
  | Estimate of { value : float; degraded : bool; stale_shards : int list }
  | Expr_reply of {
      value : float option;
      support : float;
      needed : float;
      samples : int;
      quality : expr_quality;
      degraded : bool;
    }
  | Stats_reply of stats
  | Sketch of string
  | Sketch_at of { version : int; token : string option }
  | Pong
  | Server_stats_reply of server_stats
  | Epoch_reply of { epoch : int }
  | Sessions_reply of session_desc list
  | Lease_reply of { epoch : int; primary : bool }
  | Error_reply of error

let session_name_ok name =
  name <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let family_to_token = function
  | Rect -> "rect"
  | Dnf { nvars } -> Printf.sprintf "dnf:%d" nvars
  | Cov { nbits; strength } -> Printf.sprintf "cov:%d:%d" nbits strength

let family_of_token token =
  match String.split_on_char ':' token with
  | [ "rect" ] -> Ok Rect
  | [ "dnf"; n ] -> (
    match int_of_string_opt n with
    | Some nvars when nvars > 0 -> Ok (Dnf { nvars })
    | _ -> Error (Bad_family token))
  | [ "cov"; n; t ] -> (
    match (int_of_string_opt n, int_of_string_opt t) with
    | Some nbits, Some strength when nbits > 0 && strength > 0 && strength <= nbits ->
      Ok (Cov { nbits; strength })
    | _ -> Error (Bad_family token))
  | _ -> Error (Bad_family token)

(* 17 significant digits round-trip any double through float_of_string. *)
let float_out = Printf.sprintf "%.17g"

let ( let* ) = Result.bind

let chop_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* First token and the remainder (trimmed); "" when exhausted. *)
let cut line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    (String.sub line 0 i, String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* Percent armor: turns any byte string into one token for a v1 text
   line.  '%' and the bytes a line parser treats as whitespace — space, tab,
   newline, form feed, carriage return — become %XX (uppercase hex); every
   other byte rides raw, so a set line only escapes its spaces and a binary
   sketch token grows by a few percent.  The decoder accepts any %XX
   pair. *)
let needs_escape = function '%' | ' ' | '\t' | '\n' | '\012' | '\r' -> true | _ -> false

(* Both directions make one pass over the bytes and copy the clean runs
   between escapes whole: a v1 SKETCH line carries a whole sketch token. *)
let armor_payload payload =
  let n = String.length payload in
  let buf = Buffer.create (n + 16) in
  let hex = "0123456789ABCDEF" in
  (* [run] = start of the clean run being scanned *)
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get payload i in
    if needs_escape c then begin
      Buffer.add_substring buf payload !run (i - !run);
      Buffer.add_char buf '%';
      Buffer.add_char buf hex.[Char.code c lsr 4];
      Buffer.add_char buf hex.[Char.code c land 0xF];
      run := i + 1
    end
  done;
  if !run = 0 then payload
  else begin
    Buffer.add_substring buf payload !run (n - !run);
    Buffer.contents buf
  end

let unarmor_payload token =
  let n = String.length token in
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'A' .. 'F' -> Char.code c - 55
    | 'a' .. 'f' -> Char.code c - 87
    | _ -> -1
  in
  let buf = Buffer.create n in
  let run = ref 0 and i = ref 0 and bad = ref None in
  while !bad = None && !i < n do
    match String.unsafe_get token !i with
    | ' ' -> bad := Some "unescaped space in payload token"
    | '%' ->
      if !i + 2 >= n then bad := Some "truncated percent-escape in payload token"
      else begin
        let hi = nibble token.[!i + 1] and lo = nibble token.[!i + 2] in
        if hi < 0 || lo < 0 then
          bad := Some (Printf.sprintf "unknown payload escape %%%s" (String.sub token (!i + 1) 2))
        else begin
          Buffer.add_substring buf token !run (!i - !run);
          Buffer.add_char buf (Char.unsafe_chr ((hi lsl 4) lor lo));
          i := !i + 3;
          run := !i
        end
      end
    | _ -> incr i
  done;
  match !bad with
  | Some msg -> Error msg
  | None when !run = 0 -> Ok token
  | None ->
    Buffer.add_substring buf token !run (n - !run);
    Ok (Buffer.contents buf)

let parse_session name =
  if session_name_ok name then Ok name else Error (Bad_session_name name)

let parse_float ~what value =
  match float_of_string_opt value with
  | Some f -> Ok f
  | None -> Error (Bad_number { what; value })

let parse_request line =
  let line = chop_cr line in
  let verb, rest = cut line in
  if verb = "" then Error Empty_request
  else
    match String.uppercase_ascii verb with
    | "PING" -> if rest = "" then Ok Ping else Error (Wrong_arity { command = "PING"; expected = "PING" })
    | "HELLO" ->
      if rest = "" then Ok Hello
      else Error (Wrong_arity { command = "HELLO"; expected = "HELLO" })
    | "COORD" -> (
      match int_of_string_opt rest with
      | Some epoch when epoch > 0 -> Ok (Coord_epoch { epoch })
      | _ -> Error (Bad_number { what = "epoch"; value = rest }))
    | "SESSIONS" ->
      if rest = "" then Ok Sessions
      else Error (Wrong_arity { command = "SESSIONS"; expected = "SESSIONS" })
    | "LEASE" ->
      if rest = "" then Ok Lease
      else Error (Wrong_arity { command = "LEASE"; expected = "LEASE" })
    | "OPEN" -> (
      match tokens rest with
      | [ session; family; eps; delta; log2u ] ->
        let* session = parse_session session in
        let* family = family_of_token family in
        let* epsilon = parse_float ~what:"epsilon" eps in
        let* delta = parse_float ~what:"delta" delta in
        let* log2_universe = parse_float ~what:"log2-universe" log2u in
        Ok (Open { session; family; epsilon; delta; log2_universe })
      | _ ->
        Error
          (Wrong_arity
             { command = "OPEN"; expected = "OPEN <session> <family> <eps> <delta> <log2u>" }))
    | "ADD" ->
      let session, payload = cut rest in
      if session = "" || payload = "" then
        Error (Wrong_arity { command = "ADD"; expected = "ADD <session> [t=<secs>] <set-line>" })
      else
        let* session = parse_session session in
        (* Optional t=<secs> right after the session: no family line format
           starts with "t=", so the prefix is unambiguous. *)
        let* ts, payload =
          let tok, after = cut payload in
          if String.length tok > 2 && String.sub tok 0 2 = "t=" then
            let v = String.sub tok 2 (String.length tok - 2) in
            match float_of_string_opt v with
            | Some ts -> Ok (Some ts, after)
            | None -> Error (Bad_number { what = "timestamp"; value = v })
          else Ok (None, payload)
        in
        if payload = "" then
          Error (Wrong_arity { command = "ADD"; expected = "ADD <session> [t=<secs>] <set-line>" })
        else Ok (Add { session; payload; ts })
    | ("ADDB" | "ADDL") as batch_verb -> (
      let expected =
        Printf.sprintf "%s <session> [t=<secs>] <k> <payload-token>{k}" batch_verb
      in
      match tokens rest with
      | session :: more ->
        let* session = parse_session session in
        let* ts, more =
          match more with
          | tok :: after when String.length tok > 2 && String.sub tok 0 2 = "t=" -> (
            let v = String.sub tok 2 (String.length tok - 2) in
            match float_of_string_opt v with
            | Some ts -> Ok (Some ts, after)
            | None -> Error (Bad_number { what = "timestamp"; value = v }))
          | _ -> Ok (None, more)
        in
        (match more with
        | k :: toks ->
          let* k =
            match int_of_string_opt k with
            | Some k when k > 0 -> Ok k
            | _ -> Error (Bad_number { what = "batch-size"; value = k })
          in
          if List.length toks <> k then
            Error (Wrong_arity { command = batch_verb; expected })
          else
            let rec unarmor i acc = function
              | [] -> Ok (List.rev acc)
              | tok :: rest -> (
                match unarmor_payload tok with
                | Ok payload -> unarmor (i + 1) (payload :: acc) rest
                | Error msg -> Error (Bad_line { line = i; msg }))
            in
            let* payloads = unarmor 0 [] toks in
            if batch_verb = "ADDL" then Ok (Add_log { session; payloads; ts })
            else Ok (Add_batch { session; payloads; ts })
        | [] -> Error (Wrong_arity { command = batch_verb; expected }))
      | _ -> Error (Wrong_arity { command = batch_verb; expected }))
    | "WIN" -> (
      let expected = "WIN <session> <seconds> [at=<abs-secs>]" in
      match tokens rest with
      | session :: secs :: opt ->
        let* session = parse_session session in
        let* seconds =
          (* "inf" is admitted: WIN <sid> inf must agree with EST <sid>. *)
          match float_of_string_opt secs with
          | Some s when s > 0.0 -> Ok s
          | _ -> Error (Bad_number { what = "window-seconds"; value = secs })
        in
        let* at =
          match opt with
          | [] -> Ok None
          | [ tok ] when String.length tok > 3 && String.sub tok 0 3 = "at=" -> (
            let v = String.sub tok 3 (String.length tok - 3) in
            match float_of_string_opt v with
            | Some a -> Ok (Some a)
            | None -> Error (Bad_number { what = "at"; value = v }))
          | _ -> Error (Wrong_arity { command = "WIN"; expected })
        in
        Ok (Win { session; seconds; at })
      | _ -> Error (Wrong_arity { command = "WIN"; expected }))
    | "EST" | "STATS" | "CLOSE" -> (
      let command = String.uppercase_ascii verb in
      match tokens rest with
      | [ session ] ->
        let* session = parse_session session in
        Ok
          (match command with
          | "EST" -> Est { session }
          | "STATS" -> Stats { session }
          | _ -> Close { session })
      (* Bare STATS is the process-wide form: conns, sheds, requests
         handled. *)
      | [] when command = "STATS" -> Ok Server_stats
      | _ ->
        Error
          (Wrong_arity
             {
               command;
               expected =
                 (if command = "STATS" then "STATS [<session>]"
                  else command ^ " <session>");
             }))
    | "SNAPSHOT" ->
      (* One token: return the wire-encoded sketch inline (the cluster
         gather).  A cut=<abs-secs> second token is a windowed fetch — the
         coordinator computes the absolute cutoff once and ships it so every
         replica expires against the same instant.  Any other second token
         persists to a server-side file, as in v1 (a path literally named
         "cut=..." needs a ./ prefix). *)
      let session, path = cut rest in
      let expected = "SNAPSHOT [ver=<n>] <session> [cut=<abs-secs>] [<path>]" in
      (* A leading ver=<n> is the versioned fetch.  It sits where the
         session name goes, and '=' is never part of a session name, so a
         parser that predates it refuses the line instead of taking a
         token for a file path. *)
      let* since, session, path =
        if String.length session > 4 && String.sub session 0 4 = "ver=" then
          let v = String.sub session 4 (String.length session - 4) in
          match int_of_string_opt v with
          | Some n when n >= 0 ->
            let session, path = cut path in
            Ok (Some n, session, path)
          | _ -> Error (Bad_number { what = "version"; value = v })
        else Ok (None, session, path)
      in
      if session = "" then Error (Wrong_arity { command = "SNAPSHOT"; expected })
      else
        let* session = parse_session session in
        let fetch cutoff =
          match since with
          | None -> Ok (Fetch { session; cutoff })
          | Some since -> Ok (Fetch_since { session; cutoff; since })
        in
        if path = "" then fetch None
        else if String.length path > 4 && String.sub path 0 4 = "cut=" then
          let v = String.sub path 4 (String.length path - 4) in
          match float_of_string_opt v with
          | Some c -> fetch (Some c)
          | None -> Error (Bad_number { what = "cutoff"; value = v })
        else if since <> None then Error (Wrong_arity { command = "SNAPSHOT"; expected })
        else Ok (Snapshot { session; path })
    | "RESTORE" ->
      let session, path = cut rest in
      if session = "" || path = "" then
        Error (Wrong_arity { command = "RESTORE"; expected = "RESTORE <session> <path>" })
      else
        let* session = parse_session session in
        Ok (Restore { session; path })
    | "MERGE" -> (
      match tokens rest with
      | [ session; token ] ->
        let* session = parse_session session in
        let* encoded =
          Result.map_error (fun msg -> Bad_params ("MERGE: " ^ msg)) (unarmor_payload token)
        in
        Ok (Merge { session; encoded })
      | _ ->
        Error (Wrong_arity { command = "MERGE"; expected = "MERGE <session> <wire-snapshot>" }))
    | "EXPR" ->
      (* Leading <key>=<value> option tokens before the expression body;
         '=' never occurs in a valid expression (session names are
         [A-Za-z0-9_.-], operators are "& | \ ^ ( )"), so the prefix is
         unambiguous.  A malformed or unknown option is reported with the
         offending token and its 1-based column in the argument text — the
         same style the expression parser uses for its own errors. *)
      let expected = "EXPR [m=<samples>] [w=<seconds>] <expression>" in
      let n = String.length rest in
      let rec skip_spaces i = if i < n && rest.[i] = ' ' then skip_spaces (i + 1) else i in
      let is_option tok =
        match String.index_opt tok '=' with
        | Some k ->
          k > 0 && String.for_all (function 'a' .. 'z' -> true | _ -> false) (String.sub tok 0 k)
        | None -> false
      in
      let rec options i m w =
        let i = skip_spaces i in
        if i >= n then Ok (m, w, "")
        else
          let j = match String.index_from_opt rest i ' ' with Some j -> j | None -> n in
          let tok = String.sub rest i (j - i) in
          if not (is_option tok) then Ok (m, w, String.sub rest i (n - i))
          else begin
            let pos = i + 1 in
            let k = String.index tok '=' in
            let key = String.sub tok 0 k in
            let v = String.sub tok (k + 1) (String.length tok - k - 1) in
            match key with
            | "m" -> (
              match int_of_string_opt v with
              | Some s when s > 0 -> options j (Some s) w
              | _ ->
                Error
                  (Bad_expr
                     { pos; msg = Printf.sprintf "option m=: not a positive sample count: %S" v }))
            | "w" -> (
              match float_of_string_opt v with
              | Some s when s > 0.0 -> options j m (Some s)
              | _ ->
                Error
                  (Bad_expr
                     { pos; msg = Printf.sprintf "option w=: not a positive window in seconds: %S" v }))
            | _ ->
              Error
                (Bad_expr
                   {
                     pos;
                     msg =
                       Printf.sprintf "unknown option %S (want m=<samples> or w=<seconds>)" tok;
                   })
          end
      in
      let* m, w, body = options 0 None None in
      if body = "" then Error (Wrong_arity { command = "EXPR"; expected })
      else (
        match Delphic_stream.Parsers.expr_of_string body with
        | expr -> Ok (Expr { expr; m; w })
        | exception Delphic_stream.Parsers.Parse_error { line; msg } ->
          Error (Bad_expr { pos = line; msg }))
    | _ -> Error (Unknown_command verb)

let render_request = function
  | Open { session; family; epsilon; delta; log2_universe } ->
    Printf.sprintf "OPEN %s %s %s %s %s" session (family_to_token family) (float_out epsilon)
      (float_out delta) (float_out log2_universe)
  | Add { session; payload; ts } ->
    (match ts with
    | None -> Printf.sprintf "ADD %s %s" session payload
    | Some t -> Printf.sprintf "ADD %s t=%s %s" session (float_out t) payload)
  | (Add_batch { session; payloads; ts } | Add_log { session; payloads; ts }) as req ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf (match req with Add_log _ -> "ADDL " | _ -> "ADDB ");
    Buffer.add_string buf session;
    (match ts with
    | None -> ()
    | Some t ->
      Buffer.add_string buf " t=";
      Buffer.add_string buf (float_out t));
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int (List.length payloads));
    List.iter
      (fun p ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (armor_payload p))
      payloads;
    Buffer.contents buf
  | Est { session } -> "EST " ^ session
  | Win { session; seconds; at } ->
    Printf.sprintf "WIN %s %s%s" session (float_out seconds)
      (match at with None -> "" | Some a -> " at=" ^ float_out a)
  | Stats { session } -> "STATS " ^ session
  | Snapshot { session; path } -> Printf.sprintf "SNAPSHOT %s %s" session path
  | Restore { session; path } -> Printf.sprintf "RESTORE %s %s" session path
  | Fetch { session; cutoff } ->
    (match cutoff with
    | None -> "SNAPSHOT " ^ session
    | Some c -> Printf.sprintf "SNAPSHOT %s cut=%s" session (float_out c))
  | Fetch_since { session; cutoff; since } ->
    Printf.sprintf "SNAPSHOT ver=%d %s%s" since session
      (match cutoff with None -> "" | Some c -> " cut=" ^ float_out c)
  | Merge { session; encoded } -> Printf.sprintf "MERGE %s %s" session (armor_payload encoded)
  | Close { session } -> "CLOSE " ^ session
  | Expr { expr; m; w } ->
    "EXPR "
    ^ (match m with Some n -> Printf.sprintf "m=%d " n | None -> "")
    ^ (match w with Some s -> Printf.sprintf "w=%s " (float_out s) | None -> "")
    ^ Expr_ast.to_string expr
  | Ping -> "PING"
  | Hello -> "HELLO"
  | Server_stats -> "STATS"
  | Coord_epoch { epoch } -> "COORD " ^ string_of_int epoch
  | Sessions -> "SESSIONS"
  | Lease -> "LEASE"

(* ---- wire protocol v2 binary bodies ----

   A v2 frame body is either a v1 text line (any body whose first byte is
   not '\x01' — verbs are ASCII letters) or a binary record tagged '\x01'.
   Only the batched add verbs get a binary shape: they are the hot path,
   and their cost under v1 is exactly the %-armoring/unarmoring plus
   whitespace tokenization of a many-token line.  Binary ADDB — and its
   backup-copy twin ADDL, identical but for the tag byte — is

     '\x01' 'B'|'L' | u16 slen | session | u8 has_ts | [f64 ts] | u32 k
                    | k × (u32 len | payload)

   all integers big-endian, the timestamp IEEE-754 bits via
   [Int64.bits_of_float].  Payload bytes are raw — newlines, '%', 0xFF all
   pass untouched, which is what makes the encode/decode near-free. *)

let binary_tag = '\x01'

(* The encoder writes into a reusable {!Frame.sink} so the per-request
   string churn disappears from the client hot path ([Rpc.stage] frames
   straight out of the sink with [Frame.frame_sink_into]);
   [encode_request_v2] is the same bytes as a string. *)
let encode_request_v2_sink sink req =
  Frame.sink_clear sink;
  match req with
  | (Add_batch { session; payloads; ts } | Add_log { session; payloads; ts }) as req ->
    Frame.sink_char sink binary_tag;
    Frame.sink_char sink (match req with Add_log _ -> 'L' | _ -> 'B');
    let slen = String.length session in
    Frame.sink_char sink (Char.chr ((slen lsr 8) land 0xFF));
    Frame.sink_char sink (Char.chr (slen land 0xFF));
    Frame.sink_string sink session;
    (match ts with
    | None -> Frame.sink_char sink '\x00'
    | Some t ->
      Frame.sink_char sink '\x01';
      let bits = Int64.bits_of_float t in
      for i = 7 downto 0 do
        Frame.sink_char sink
          (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (i * 8)) 0xFFL)))
      done);
    Frame.sink_be32 sink (List.length payloads);
    List.iter
      (fun p ->
        Frame.sink_be32 sink (String.length p);
        Frame.sink_string sink p)
      payloads
  | req -> Frame.sink_string sink (render_request req)

let encode_request_v2 req =
  let sink = Frame.sink_create 256 in
  encode_request_v2_sink sink req;
  Frame.sink_contents sink

exception Binary_trunc

let parse_binary body =
  let n = String.length body in
  let pos = ref 2 in
  let need k = if n - !pos < k then raise Binary_trunc in
  let u8 () =
    need 1;
    let v = Char.code body.[!pos] in
    incr pos;
    v
  in
  let u16 () =
    need 2;
    let v = (Char.code body.[!pos] lsl 8) lor Char.code body.[!pos + 1] in
    pos := !pos + 2;
    v
  in
  let u32 () =
    need 4;
    let v = Frame.read_be32 body !pos in
    pos := !pos + 4;
    v
  in
  let str len =
    need len;
    let s = String.sub body !pos len in
    pos := !pos + len;
    s
  in
  match body.[1] with
  | ('B' | 'L') as tag ->
    let session = str (u16 ()) in
    let ts =
      match u8 () with
      | 0 -> None
      | _ ->
        need 8;
        let bits = ref 0L in
        for _ = 1 to 8 do
          bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (u8 ()))
        done;
        Some (Int64.float_of_bits !bits)
    in
    let k = u32 () in
    if k < 0 || k > 1_000_000 then raise Binary_trunc;
    let payloads = ref [] in
    for _ = 1 to k do
      payloads := str (u32 ()) :: !payloads
    done;
    if !pos <> n then raise Binary_trunc;
    if not (session_name_ok session) then Error (Bad_session_name session)
    else if tag = 'L' then Ok (Add_log { session; payloads = List.rev !payloads; ts })
    else Ok (Add_batch { session; payloads = List.rev !payloads; ts })
  | c -> Error (Bad_params (Printf.sprintf "unknown binary record tag %C" c))

let parse_frame_body body =
  if String.length body >= 2 && body.[0] = binary_tag then
    try parse_binary body
    with Binary_trunc | Invalid_argument _ ->
      Error (Bad_params "truncated binary record")
  else parse_request body

let error_code = function
  | Empty_request -> "EMPTY"
  | Unknown_command _ -> "UNSUPPORTED"
  | Wrong_arity _ -> "ARITY"
  | Bad_number _ -> "BAD-NUMBER"
  | Bad_family _ -> "BAD-FAMILY"
  | Bad_session_name _ -> "BAD-SESSION-NAME"
  | Unknown_session _ -> "UNKNOWN-SESSION"
  | Session_exists _ -> "SESSION-EXISTS"
  | Bad_params _ -> "BAD-PARAMS"
  | Bad_expr _ -> "BAD-EXPR"
  | Bad_line _ -> "PARSE"
  | Io_error _ -> "IO"
  | Server_error _ -> "SERVER"
  | Fenced _ -> "FENCED"
  | Read_only _ -> "READONLY"

(* Payload after "ERR <CODE>"; the first token is structured where decoding
   needs it, the remainder freeform. *)
let error_payload = function
  | Empty_request -> ""
  | Unknown_command s -> s
  | Wrong_arity { command; expected } -> Printf.sprintf "%s %s" command expected
  | Bad_number { what; value } -> Printf.sprintf "%s %s" what value
  | Bad_family s -> s
  | Bad_session_name s -> s
  | Unknown_session s -> s
  | Session_exists s -> s
  | Bad_params s -> s
  | Bad_expr { pos; msg } -> Printf.sprintf "%d %s" pos msg
  | Bad_line { line; msg } -> Printf.sprintf "%d %s" line msg
  | Io_error s -> s
  | Server_error s -> s
  | Fenced epoch -> string_of_int epoch
  | Read_only s -> s

let describe_error = function
  | Empty_request -> "empty request"
  | Unknown_command s -> Printf.sprintf "unknown command %S" s
  | Wrong_arity { expected; _ } -> "usage: " ^ expected
  | Bad_number { what; value } -> Printf.sprintf "%s: not a number: %S" what value
  | Bad_family s -> Printf.sprintf "unknown family %S (want rect, dnf:<nvars> or cov:<nbits>:<strength>)" s
  | Bad_session_name s -> Printf.sprintf "bad session name %S (use [A-Za-z0-9_.-]+)" s
  | Unknown_session s -> Printf.sprintf "no session named %S" s
  | Session_exists s -> Printf.sprintf "session %S already open" s
  | Bad_params msg -> msg
  | Bad_expr { pos; msg } -> Printf.sprintf "expression column %d: %s" pos msg
  | Bad_line { line; msg } -> Printf.sprintf "ADD line %d rejected: %s" line msg
  | Io_error msg -> msg
  | Server_error msg -> msg
  | Fenced epoch ->
    Printf.sprintf "write fenced: a newer coordinator holds epoch %d" epoch
  | Read_only msg -> Printf.sprintf "node is read-only: %s" msg

let parse_error_of_wire code payload =
  let first, rest = cut payload in
  match code with
  | "EMPTY" -> Some Empty_request
  (* UNKNOWN-COMMAND is the pre-cluster spelling of UNSUPPORTED. *)
  | "UNSUPPORTED" | "UNKNOWN-COMMAND" -> Some (Unknown_command payload)
  | "ARITY" when first <> "" -> Some (Wrong_arity { command = first; expected = rest })
  | "BAD-NUMBER" when first <> "" -> Some (Bad_number { what = first; value = rest })
  | "BAD-FAMILY" -> Some (Bad_family payload)
  | "BAD-SESSION-NAME" -> Some (Bad_session_name payload)
  | "UNKNOWN-SESSION" -> Some (Unknown_session payload)
  | "SESSION-EXISTS" -> Some (Session_exists payload)
  | "BAD-PARAMS" -> Some (Bad_params payload)
  | "BAD-EXPR" -> (
    match int_of_string_opt first with
    | Some pos -> Some (Bad_expr { pos; msg = rest })
    | None -> None)
  | "PARSE" -> (
    match int_of_string_opt first with
    | Some line -> Some (Bad_line { line; msg = rest })
    | None -> None)
  | "IO" -> Some (Io_error payload)
  | "SERVER" -> Some (Server_error payload)
  | "FENCED" -> (
    match int_of_string_opt payload with
    | Some epoch -> Some (Fenced epoch)
    | None -> None)
  | "READONLY" -> Some (Read_only payload)
  | _ -> None

let render_response = function
  | Ok_reply None -> "OK"
  | Ok_reply (Some info) -> "OK " ^ info
  | Ok_batch { accepted; errors } ->
    let buf = Buffer.create 32 in
    Buffer.add_string buf "OKB ";
    Buffer.add_string buf (string_of_int accepted);
    List.iter
      (fun (i, msg) ->
        Buffer.add_string buf " ERRAT ";
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf ' ';
        Buffer.add_string buf (armor_payload (if msg = "" then " " else msg)))
      errors;
    Buffer.contents buf
  | Estimate { value; degraded; stale_shards } ->
    "EST " ^ float_out value
    ^ (if degraded then " DEGRADED" else "")
    ^
    if degraded && stale_shards <> [] then
      " shards=" ^ String.concat "," (List.map string_of_int stale_shards)
    else ""
  | Expr_reply { value; support; needed; samples; quality; degraded } ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf "EXPR ";
    (match value with
    | Some v -> Buffer.add_string buf (float_out v)
    | None -> Buffer.add_string buf "LOWSUPPORT");
    Buffer.add_string buf (" support=" ^ float_out support);
    if value = None then Buffer.add_string buf (" need=" ^ float_out needed);
    Buffer.add_string buf (Printf.sprintf " m=%d" samples);
    Buffer.add_string buf
      (" probes=" ^ match quality with Probes_exact -> "exact" | Probes_sketch -> "sketch");
    if degraded then Buffer.add_string buf " DEGRADED";
    Buffer.contents buf
  | Stats_reply s ->
    Printf.sprintf
      "STATS family=%s items=%d entries=%d mode=%s estimate=%s rejects=%d merges=%d"
      s.family s.items s.entries
      (if s.exact then "exact" else "sketch")
      (float_out s.last_estimate) s.parse_rejects s.merges
  | Sketch encoded -> "SKETCH " ^ armor_payload encoded
  | Sketch_at { version; token = Some encoded } ->
    Printf.sprintf "SKETCH ver=%d %s" version (armor_payload encoded)
  | Sketch_at { version; token = None } -> Printf.sprintf "UNCHANGED ver=%d" version
  | Pong -> "PONG"
  | Server_stats_reply s ->
    Printf.sprintf "SRVSTATS conns=%d shed=%d domains=%d dispatched=%s wal_queue=%d wal_last_group=%d wal_groups=%d%s"
      s.conns s.shed
      (List.length s.dispatched)
      (String.concat "," (List.map string_of_int s.dispatched))
      s.wal_queue s.wal_last_group s.wal_groups
      (if s.shard_fresh = [] then ""
       else " shard_fresh=" ^ String.concat "," (List.map string_of_int s.shard_fresh))
  | Epoch_reply { epoch } -> "EPOCH " ^ string_of_int epoch
  | Sessions_reply descs ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf "SESSIONS ";
    Buffer.add_string buf (string_of_int (List.length descs));
    List.iter
      (fun d ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf d.sd_name;
        Buffer.add_char buf ' ';
        Buffer.add_string buf d.sd_family;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (float_out d.sd_epsilon);
        Buffer.add_char buf ' ';
        Buffer.add_string buf (float_out d.sd_delta);
        Buffer.add_char buf ' ';
        Buffer.add_string buf (float_out d.sd_log2_universe))
      descs;
    Buffer.contents buf
  | Lease_reply { epoch; primary } ->
    Printf.sprintf "LEASE epoch=%d role=%s" epoch (if primary then "primary" else "standby")
  | Error_reply e -> (
    (* No trailing space when the payload is empty ("ERR EMPTY", not
       "ERR EMPTY "). *)
    match error_payload e with
    | "" -> "ERR " ^ error_code e
    | payload -> Printf.sprintf "ERR %s %s" (error_code e) payload)

let parse_response line =
  let line = chop_cr line in
  let verb, rest = cut line in
  match verb with
  | "OK" -> Ok (Ok_reply (if rest = "" then None else Some rest))
  | "OKB" -> (
    match tokens rest with
    | accepted :: errs -> (
      match int_of_string_opt accepted with
      | Some accepted when accepted >= 0 ->
        let rec parse_errs acc = function
          | [] -> Ok (Ok_batch { accepted; errors = List.rev acc })
          | "ERRAT" :: i :: msg :: rest -> (
            match (int_of_string_opt i, unarmor_payload msg) with
            | Some i, Ok msg when i >= 0 -> parse_errs ((i, msg) :: acc) rest
            | _ -> Error (Printf.sprintf "OKB: malformed ERRAT %S %S" i msg))
          | _ -> Error (Printf.sprintf "OKB: malformed error list in %S" rest)
        in
        parse_errs [] errs
      | _ -> Error (Printf.sprintf "OKB: bad accepted count %S" accepted))
    | [] -> Error "OKB: missing accepted count")
  | "PONG" when rest = "" -> Ok Pong
  | "EPOCH" -> (
    match int_of_string_opt rest with
    | Some epoch -> Ok (Epoch_reply { epoch })
    | None -> Error (Printf.sprintf "EPOCH: bad epoch %S" rest))
  | "LEASE" -> (
    match tokens rest with
    | [ ep; role ] when String.length ep > 6 && String.sub ep 0 6 = "epoch=" -> (
      match (int_of_string_opt (String.sub ep 6 (String.length ep - 6)), role) with
      | Some epoch, "role=primary" -> Ok (Lease_reply { epoch; primary = true })
      | Some epoch, "role=standby" -> Ok (Lease_reply { epoch; primary = false })
      | _ -> Error (Printf.sprintf "LEASE: malformed reply %S" rest))
    | _ -> Error (Printf.sprintf "LEASE: malformed reply %S" rest))
  | "SESSIONS" -> (
    match tokens rest with
    | count :: toks -> (
      match int_of_string_opt count with
      | Some k when k >= 0 && List.length toks = 5 * k ->
        let rec take acc = function
          | [] -> Ok (Sessions_reply (List.rev acc))
          | name :: fam :: eps :: delta :: log2u :: more -> (
            match
              (float_of_string_opt eps, float_of_string_opt delta, float_of_string_opt log2u)
            with
            | Some sd_epsilon, Some sd_delta, Some sd_log2_universe ->
              take
                ({ sd_name = name; sd_family = fam; sd_epsilon; sd_delta; sd_log2_universe }
                :: acc)
                more
            | _ -> Error (Printf.sprintf "SESSIONS: malformed entry near %S" name))
          | _ -> Error "SESSIONS: truncated entry list"
        in
        take [] toks
      | _ -> Error (Printf.sprintf "SESSIONS: bad count in %S" rest))
    | [] -> Error "SESSIONS: missing count")
  | "EST" -> (
    let value, degraded, stale_shards =
      match tokens rest with
      | [ v; "DEGRADED" ] -> (float_of_string_opt v, true, Some [])
      | [ v; "DEGRADED"; sh ] when String.length sh > 7 && String.sub sh 0 7 = "shards=" ->
        let ids =
          String.split_on_char ',' (String.sub sh 7 (String.length sh - 7))
          |> List.map int_of_string_opt
          |> List.fold_left
               (fun acc v ->
                 match (acc, v) with Some acc, Some v -> Some (v :: acc) | _ -> None)
               (Some [])
          |> Option.map List.rev
        in
        (float_of_string_opt v, true, ids)
      | [ v ] -> (float_of_string_opt v, false, Some [])
      | _ -> (None, false, Some [])
    in
    match (value, stale_shards) with
    | Some value, Some stale_shards -> Ok (Estimate { value; degraded; stale_shards })
    | _ -> Error (Printf.sprintf "EST: bad reply %S" rest))
  | "EXPR" -> (
    match tokens rest with
    | head :: fields -> (
      let value =
        if head = "LOWSUPPORT" then Ok None
        else
          match float_of_string_opt head with
          | Some v -> Ok (Some v)
          | None -> Error (Printf.sprintf "EXPR: bad value %S" head)
      in
      match value with
      | Error _ as e -> e
      | Ok value -> (
        let degraded = List.mem "DEGRADED" fields in
        let kv tok =
          match String.index_opt tok '=' with
          | Some i ->
            Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
          | None -> None
        in
        let assoc = List.filter_map kv fields in
        let field k = List.assoc_opt k assoc in
        (* need= only rides on LOWSUPPORT lines; absent means 0. *)
        let needed =
          match field "need" with None -> Some 0.0 | Some v -> float_of_string_opt v
        in
        match (field "support", needed, field "m", field "probes") with
        | Some support, Some needed, Some m, Some probes -> (
          match (float_of_string_opt support, int_of_string_opt m, probes) with
          | Some support, Some samples, ("exact" | "sketch") ->
            Ok
              (Expr_reply
                 {
                   value;
                   support;
                   needed;
                   samples;
                   quality = (if probes = "exact" then Probes_exact else Probes_sketch);
                   degraded;
                 })
          | _ -> Error (Printf.sprintf "EXPR: malformed fields in %S" rest))
        | _ -> Error (Printf.sprintf "EXPR: missing fields in %S" rest)))
    | [] -> Error "EXPR: empty reply")
  | "SKETCH" | "UNCHANGED" -> (
    (* unarmoring rejects a space, so a stray token is caught there *)
    let token armored = Result.map_error (( ^ ) "SKETCH: ") (unarmor_payload armored) in
    let version v = Scanf.sscanf_opt v "ver=%d%!" Fun.id in
    match (verb, tokens rest) with
    | "SKETCH", [ armored ] -> Result.map (fun t -> Sketch t) (token armored)
    | "SKETCH", [ v; armored ] when version v <> None ->
      Result.map (fun t -> Sketch_at { version = Option.get (version v); token = Some t }) (token armored)
    | "UNCHANGED", [ v ] when version v <> None ->
      Ok (Sketch_at { version = Option.get (version v); token = None })
    | _ -> Error (Printf.sprintf "%s: malformed reply %S" verb rest))
  | "STATS" -> (
    let kv tok =
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None
    in
    let assoc = List.filter_map kv (tokens rest) in
    let field k = List.assoc_opt k assoc in
    (* merges is optional so pre-cluster STATS lines still parse (as 0). *)
    let merges =
      match field "merges" with None -> Some 0 | Some v -> int_of_string_opt v
    in
    match
      (field "family", field "items", field "entries", field "mode", field "estimate",
       field "rejects", merges)
    with
    | Some family, Some items, Some entries, Some mode, Some estimate, Some rejects,
      Some merges -> (
      match
        (int_of_string_opt items, int_of_string_opt entries, float_of_string_opt estimate,
         int_of_string_opt rejects, mode)
      with
      | Some items, Some entries, Some last_estimate, Some parse_rejects,
        ("exact" | "sketch") ->
        Ok
          (Stats_reply
             {
               family;
               items;
               entries;
               exact = mode = "exact";
               last_estimate;
               parse_rejects;
               merges;
             })
      | _ -> Error (Printf.sprintf "STATS: malformed fields in %S" rest))
    | _ -> Error (Printf.sprintf "STATS: missing fields in %S" rest))
  | "SRVSTATS" -> (
    let kv tok =
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None
    in
    let assoc = List.filter_map kv (tokens rest) in
    let field k = List.assoc_opt k assoc in
    let ints_of csv =
      if csv = "" then Some []
      else
        String.split_on_char ',' csv
        |> List.map int_of_string_opt
        |> List.fold_left
             (fun acc v ->
               match (acc, v) with Some acc, Some v -> Some (v :: acc) | _ -> None)
             (Some [])
        |> Option.map List.rev
    in
    (* shard_fresh is optional: only replicated coordinators report it *)
    let shard_fresh =
      match field "shard_fresh" with None -> Some [] | Some csv -> ints_of csv
    in
    match
      (field "conns", field "shed", field "dispatched", field "wal_queue",
       field "wal_last_group", field "wal_groups")
    with
    | Some conns, Some shed, Some dispatched, Some wq, Some wlg, Some wg -> (
      match
        (int_of_string_opt conns, int_of_string_opt shed, ints_of dispatched,
         int_of_string_opt wq, int_of_string_opt wlg, int_of_string_opt wg, shard_fresh)
      with
      | Some conns, Some shed, Some dispatched, Some wal_queue, Some wal_last_group,
        Some wal_groups, Some shard_fresh ->
        Ok
          (Server_stats_reply
             { conns; shed; dispatched; wal_queue; wal_last_group; wal_groups; shard_fresh })
      | _ -> Error (Printf.sprintf "SRVSTATS: malformed fields in %S" rest))
    | _ -> Error (Printf.sprintf "SRVSTATS: missing fields in %S" rest))
  | "ERR" -> (
    let code, payload = cut rest in
    match parse_error_of_wire code payload with
    | Some e -> Ok (Error_reply e)
    | None -> Error (Printf.sprintf "ERR: unknown code %S" code))
  | _ -> Error (Printf.sprintf "unparseable response %S" line)

(* ---- wire protocol v2 reply records ----

   A v2 reply body is a v1 text line unless it starts with [binary_tag].
   Only a token-carrying SKETCH has a binary shape — its token is the whole
   cost of a gather's transport, and as a record it needs neither armor nor
   a line parse:

     '\x01' 'S' | token bytes (the rest of the frame body)
     '\x01' 'V' | be64 version | token bytes (a versioned fetch's token) *)

let sketch_head = "\x01S"

let reply_record = function
  | Sketch token -> Some (sketch_head, token)
  | Sketch_at { version; token = Some token } ->
    let head = Bytes.create 10 in
    Bytes.set head 0 binary_tag;
    Bytes.set head 1 'V';
    Bytes.set_int64_be head 2 (Int64.of_int version);
    Some (Bytes.unsafe_to_string head, token)
  | _ -> None

let parse_reply_frame buf ~pos ~len =
  if len >= 1 && Bytes.get buf pos = binary_tag then
    if len >= 2 && Bytes.get buf (pos + 1) = 'S' then
      Ok (Sketch (Bytes.sub_string buf (pos + 2) (len - 2)))
    else if len >= 10 && Bytes.get buf (pos + 1) = 'V' then
      let version = Int64.to_int (Bytes.get_int64_be buf (pos + 2)) in
      Ok (Sketch_at { version; token = Some (Bytes.sub_string buf (pos + 10) (len - 10)) })
    else Error "unknown binary reply record"
  else parse_response (Bytes.sub_string buf pos len)

let expr_reply_of_outcome ~degraded (outcome : Expr_ast.outcome) =
  let quality_of = function
    | Expr_ast.Exact_probes -> Probes_exact
    | Expr_ast.Sketch_probes -> Probes_sketch
  in
  match outcome with
  | Expr_ast.Estimate { value; support; samples; quality } ->
    Expr_reply
      {
        value = Some value;
        support;
        needed = 0.0;
        samples;
        quality = quality_of quality;
        degraded;
      }
  | Expr_ast.Low_support { support; needed; samples; quality } ->
    Expr_reply
      { value = None; support; needed; samples; quality = quality_of quality; degraded }
