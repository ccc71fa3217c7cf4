(* Output: a human-readable block, then the one-line JSON result that must
   be the last line of standard output. *)

type metric = { name : string; value : float; unit : string; calls : int option; busy_ms : float option }

let metric ?calls ?busy_ms name value unit = { name; value; unit; calls; busy_ms }

let line fmt = Printf.printf (fmt ^^ "\n%!")

let print_table title ms =
  line "-- %s" title;
  List.iter
    (fun m ->
      let extra =
        match (m.calls, m.busy_ms) with
        | Some c, Some b -> Printf.sprintf "  calls=%d busy_ms=%.3f" c b
        | Some c, None -> Printf.sprintf "  calls=%d" c
        | _ -> ""
      in
      let value = if Float.is_nan m.value then "n/a" else Printf.sprintf "%.6g" m.value in
      line "%-46s %16s %-6s%s" m.name value m.unit extra)
    ms

(* JSON has no NaN or infinity; the caller reports only finite values. *)
let json_float v =
  if not (Float.is_finite v) then invalid_arg "Report.json_float: not a finite number";
  Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_json ~correct ~attempted ~failed ms =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name) (json_float m.value)
          (json_string m.unit))
      ms
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)
