(* Slicing-by-8: eight 256-entry tables let the loop fold eight input
   bytes per step with independent lookups, instead of one serially
   dependent lookup per byte — a multiple of the byte-at-a-time speed,
   which matters on multi-hundred-kilobyte sketch tokens. *)
let tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c)
     in
     let tables = Array.make 8 t0 in
     for k = 1 to 7 do
       let prev = tables.(k - 1) in
       tables.(k) <- Array.init 256 (fun n -> (prev.(n) lsr 8) lxor t0.(prev.(n) land 0xFF))
     done;
     tables)

(* The running register over [s.[pos .. pos+len-1]]. *)
let feed c s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32";
  let t = Lazy.force tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let byte i = Char.code (String.unsafe_get s i) in
  let word i =
    byte i lor (byte (i + 1) lsl 8) lor (byte (i + 2) lsl 16) lor (byte (i + 3) lsl 24)
  in
  let c = ref c in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let x = !c lxor word j and y = word (j + 4) in
    c :=
      Array.unsafe_get t7 (x land 0xFF)
      lxor Array.unsafe_get t6 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((x lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 (y land 0xFF)
      lxor Array.unsafe_get t2 ((y lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((y lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((y lsr 24) land 0xFF);
    i := j + 8
  done;
  for j = !i to pos + len - 1 do
    c := Array.unsafe_get t0 ((!c lxor byte j) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let finish c = (c lxor 0xFFFFFFFF) land 0xFFFFFFFF
let substring s ~pos ~len = finish (feed 0xFFFFFFFF s ~pos ~len)
let string s = substring s ~pos:0 ~len:(String.length s)

(* read-only: the bytes are not retained or mutated *)
let bytes b ~pos ~len = substring (Bytes.unsafe_to_string b) ~pos ~len

let strings parts =
  finish
    (List.fold_left (fun c s -> feed c s ~pos:0 ~len:(String.length s)) 0xFFFFFFFF parts)
