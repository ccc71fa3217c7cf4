(* The few /proc facts the benchmark reports: peak resident memory of a
   process and the filesystem a directory lives on. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The value of a "Name:   <n> kB" line of /proc/<pid>/status, in kB. *)
let status_kb ~field text =
  let words line =
    String.map (function '\t' -> ' ' | c -> c) line
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match words line with
         | [ name; n; "kB" ] when name = field ^ ":" -> int_of_string_opt n
         | _ -> None)

let vmhwm_kb text = status_kb ~field:"VmHWM" text

(* Peak RSS of [pid] in MiB; [None] once the process is gone. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | text -> Option.map (fun kb -> float_of_int kb /. 1024.0) (vmhwm_kb text)
  | exception Sys_error _ -> None

(* /proc/mounts escapes blanks in paths as octal (\040). *)
let unescape_mount s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else if s.[i] = '\\' && i + 3 < n then begin
      match int_of_string_opt ("0o" ^ String.sub s (i + 1) 3) with
      | Some c when c < 256 ->
        Buffer.add_char b (Char.chr c);
        go (i + 4)
      | _ ->
        Buffer.add_char b s.[i];
        go (i + 1)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let under ~mount path =
  mount = "/"
  || path = mount
  || String.starts_with ~prefix:(mount ^ "/") path

(* Filesystem type of the longest mount point containing [path] (absolute),
   from the text of /proc/mounts. *)
let fs_type ~mounts path =
  String.split_on_char '\n' mounts
  |> List.fold_left
       (fun best line ->
         match String.split_on_char ' ' line with
         | _ :: mnt :: ty :: _ ->
           let mnt = unescape_mount mnt in
           if under ~mount:mnt path then
             match best with
             | Some (m, _) when String.length m >= String.length mnt -> best
             | _ -> Some (mnt, ty)
           else best
         | _ -> best)
       None
  |> Option.map snd

let fs_type_of_dir dir =
  let abs = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  match read_file "/proc/mounts" with
  | mounts -> Option.value ~default:"unknown" (fs_type ~mounts abs)
  | exception Sys_error _ -> "unknown"
