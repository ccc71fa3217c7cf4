module Io = Delphic_core.Snapshot_io
module Params = Delphic_core.Params
module Parsers = Delphic_stream.Parsers
module Bitvec = Delphic_util.Bitvec
module Rectangle = Delphic_sets.Rectangle
module Dnf = Delphic_sets.Dnf
module Coverage = Delphic_sets.Coverage

let ( let* ) = Result.bind

(* Decoding a big snapshot maps this over thousands of entries: a local
   exception keeps the loop allocation-free instead of threading a Result
   through every cons. *)
exception Map_error of string

let map_result f l =
  match
    List.rev
      (List.rev_map (fun x -> match f x with Ok y -> y | Error e -> raise (Map_error e)) l)
  with
  | ys -> Ok ys
  | exception Map_error e -> Error e

(* An undecodable element inside a token being folded: raised from the
   entry iterators below and turned back into an [Error] by [guard]. *)
exception Bad_element of string

let guard f =
  match f () with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg
  | exception Failure msg -> Error msg
  | exception Bad_element msg -> Error msg

(* One Adaptive estimator per family plus its element codec — written once
   here instead of three times.  The codec is the family's only element
   format on disk and on the wire: [write_elt] appends an element's bytes
   to a buffer, [decode_elt s pos len] reads one back from a slice, so a
   token is written and folded without a string per element. *)
module Bridge (X : sig
  module F : Delphic_family.Family.FAMILY

  val write_elt : Buffer.t -> F.elt -> unit
  val decode_elt : string -> int -> int -> (F.elt, string) result
end) =
struct
  module A = Delphic_core.Adaptive.Make (X.F)
  module E = Delphic_expr.Expr.Eval (X.F)

  let io_header ~family_token ~merges (src : A.source) ~min_level =
    let h = src.A.header in
    {
      Io.family = family_token;
      epsilon = h.A.epsilon;
      delta = h.A.delta;
      log2_universe = h.A.log2_universe;
      exact_capacity = h.A.exact_capacity;
      items = h.A.items;
      merges;
      exact_active = h.A.exact_active;
      sketch =
        Option.map
          (fun (sk : A.sketch_header) ->
            {
              Io.mode = h.A.mode;
              capacity_scale = sk.capacity_scale;
              coupon_scale = sk.coupon_scale;
              s_items = sk.sketch_items;
              max_bucket = sk.max_bucket;
              skipped = sk.skipped;
              membership_calls = sk.membership_calls;
              cardinality_calls = sk.cardinality_calls;
              sampling_calls = sk.sampling_calls;
              min_level;
            })
          h.A.sketch;
    }

  (* The token straight from the estimator's tables.  A window [cutoff]
     keeps only entries last seen at or after it; the counts and the
     minimum level of what is kept are taken in a first pass, since the
     header precedes the entries. *)
  let encode ~family_token ~merges ?cutoff est =
    let src = A.source est in
    let keep ts = match cutoff with None -> true | Some c -> ts >= c in
    let n_exact, n_sketch, min_level =
      match cutoff with
      | None -> (src.A.exact_size, src.A.sketch_size, src.A.sketch_min_level)
      | Some _ ->
        let e = ref 0 and k = ref 0 and top = ref 0 in
        src.A.iter_exact (fun _ ts -> if keep ts then incr e);
        src.A.iter_sketch (fun _ level ts ->
            if keep ts then begin
              incr k;
              if level > !top then top := level
            end);
        (!e, !k, !top)
    in
    let w =
      Io.writer (io_header ~family_token ~merges src ~min_level) ~exact:n_exact ~sketch:n_sketch
    in
    let elt = Buffer.create 64 in
    src.A.iter_exact (fun x ts ->
        if keep ts then begin
          Buffer.clear elt;
          X.write_elt elt x;
          Io.add_exact w ts elt
        end);
    src.A.iter_sketch (fun x level ts ->
        if keep ts then begin
          Buffer.clear elt;
          X.write_elt elt x;
          Io.add_sketch w level ts elt
        end);
    Io.finish w

  (* Sample-and-probe over the leaf estimators: draws from the [union ()]
     fold while every leaf is exact, from the leaves themselves once any
     sketches (see {!eval} below).  Refusals are [Error]s. *)
  let expr ~union ~leaves ~expr ~samples =
    let probe name x = A.probe_weight (List.assoc name leaves) x in
    let delta = A.delta (snd (List.hd leaves)) in
    if List.for_all (fun (_, e) -> A.is_exact e) leaves then
      let* u = union () in
      guard (fun () ->
          E.estimate ~expr ~union:(A.estimate u) ~draw:(A.sample_union_n u) ~probe
            ~exact_probes:true ~samples ~delta)
    else
      guard (fun () ->
          E.estimate_stratified ~expr
            ~leaf_sizes:(List.map (fun (n, e) -> (n, A.estimate e)) leaves)
            ~draw_leaf:(fun name n -> A.sample_union_n (List.assoc name leaves) n)
            ~probe ~samples ~delta)

  let decode s pos len =
    match X.decode_elt s pos len with Ok x -> x | Error msg -> raise (Bad_element msg)

  (* A decoded token as a fold source: elements are decoded from the token
     in place as the fold walks them, straight into its table — no
     estimator is restored per token. *)
  let source_of_io (io : Io.t) =
    let h = Io.header io in
    {
      A.header =
        {
          A.mode = (match h.Io.sketch with Some sk -> sk.Io.mode | None -> Params.Practical);
          epsilon = h.Io.epsilon;
          delta = h.Io.delta;
          log2_universe = h.Io.log2_universe;
          exact_capacity = h.Io.exact_capacity;
          items = h.Io.items;
          exact_active = h.Io.exact_active;
          sketch =
            Option.map
              (fun (sk : Io.sketch) ->
                {
                  A.capacity_scale = sk.Io.capacity_scale;
                  coupon_scale = sk.Io.coupon_scale;
                  sketch_items = sk.Io.s_items;
                  max_bucket = sk.Io.max_bucket;
                  skipped = sk.Io.skipped;
                  membership_calls = sk.Io.membership_calls;
                  cardinality_calls = sk.Io.cardinality_calls;
                  sampling_calls = sk.Io.sampling_calls;
                })
              h.Io.sketch;
        };
      exact_size = Io.exact_count io;
      iter_exact = (fun f -> Io.iter_exact io (fun ts s pos len -> f (decode s pos len) ts));
      sketch_min_level = (match h.Io.sketch with Some sk -> sk.Io.min_level | None -> 0);
      sketch_size = Io.sketch_count io;
      iter_sketch =
        (fun f -> Io.iter_sketch io (fun level ts s pos len -> f (decode s pos len) level ts));
    }
end

(* Rect points travel as their decimal coordinates, space-separated, and
   both directions work in place — a gather decodes one point per sketch
   entry, tens of thousands per token. *)
module Rect_codec = struct
  let write buf (p : int array) =
    Array.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ' ';
        if v < 0 then Buffer.add_string buf (string_of_int v)
        else
          let rec digits v =
            if v >= 10 then digits (v / 10);
            Buffer.add_char buf (Char.unsafe_chr (48 + (v mod 10)))
          in
          digits v)
      p

  (* Coordinates in [s.[pos .. pos+len-1]]: maximal runs of non-space
     bytes. *)
  let count s pos len =
    let k = ref 0 in
    let gap = ref true in
    for i = pos to pos + len - 1 do
      let space = String.unsafe_get s i = ' ' in
      if !gap && not space then incr k;
      gap := space
    done;
    !k

  (* The plane point the encoder writes, "<digits> <digits>" with at most
     18 digits each (no overflow), in one pass; [no_point] when the slice
     has any other shape. *)
  let no_point = [||]

  let plane s pos stop =
    let digit i = Char.code (String.unsafe_get s i) - 48 in
    let i = ref pos and a = ref 0 in
    while !i < stop && !i - pos < 18 && digit !i >= 0 && digit !i <= 9 do
      a := (!a * 10) + digit !i;
      incr i
    done;
    if !i = pos || !i >= stop || String.unsafe_get s !i <> ' ' then no_point
    else begin
      let start = !i + 1 in
      let j = ref start and b = ref 0 in
      while !j < stop && !j - start < 18 && digit !j >= 0 && digit !j <= 9 do
        b := (!b * 10) + digit !j;
        incr j
      done;
      if !j = start || !j <> stop then no_point else [| !a; !b |]
    end

  (* Any point: one pass per coordinate, optional '-', then decimal digits
     up to the next space. *)
  let general s pos len =
    let stop = pos + len in
    let k = count s pos len in
    let p = Array.make k 0 in
    let i = ref pos and slot = ref 0 and ok = ref (k > 0) in
    while !ok && !slot < k do
      while String.unsafe_get s !i = ' ' do
        incr i
      done;
      let neg = String.unsafe_get s !i = '-' in
      if neg then incr i;
      let start = !i and acc = ref 0 in
      while !ok && !i < stop && String.unsafe_get s !i <> ' ' do
        let d = Char.code (String.unsafe_get s !i) - 48 in
        if d < 0 || d > 9 || !acc > (max_int - d) / 10 then ok := false
        else begin
          acc := (!acc * 10) + d;
          incr i
        end
      done;
      if !i = start then ok := false;
      p.(!slot) <- (if neg then - !acc else !acc);
      incr slot
    done;
    if !ok then Ok p
    else if k = 0 then Error "empty point"
    else Error (Printf.sprintf "bad point %S" (String.sub s pos len))

  let decode s pos len =
    if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Rect_codec.decode";
    let p = plane s pos (pos + len) in
    if p != no_point then Ok p else general s pos len
end

module Rect_b = Bridge (struct
  module F = Rectangle

  let write_elt = Rect_codec.write
  let decode_elt = Rect_codec.decode
end)

module Dnf_b = Bridge (struct
  module F = Dnf

  let write_elt buf v = Buffer.add_string buf (Bitvec.to_string v)

  let decode_elt s pos len =
    match Bitvec.of_string (String.sub s pos len) with
    | v -> Ok v
    | exception Invalid_argument msg -> Error msg
end)

module Cov_b = Bridge (struct
  module F = Coverage

  let write_elt buf (e : Coverage.elt) =
    Array.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int p))
      e.Coverage.positions;
    Buffer.add_char buf ':';
    Buffer.add_string buf (Bitvec.to_string e.Coverage.pattern)

  let decode_elt s pos len =
    let s = String.sub s pos len in
    match String.index_opt s ':' with
    | None -> Error (Printf.sprintf "bad coverage element %S (no ':')" s)
    | Some i -> (
      let pos = String.sub s 0 i in
      let pat = String.sub s (i + 1) (String.length s - i - 1) in
      let* positions =
        map_result
          (fun x ->
            match int_of_string_opt x with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "bad coverage position %S" x))
          (String.split_on_char ',' pos |> List.filter (fun x -> x <> ""))
      in
      match Bitvec.of_string pat with
      | pattern -> Ok { Coverage.positions = Array.of_list positions; pattern }
      | exception Invalid_argument msg -> Error msg)
end)

type t =
  | Rect_s of { est : Rect_b.A.t; mutable dims : int option }
  | Dnf_s of { est : Dnf_b.A.t; nvars : int }
  | Cov_s of { est : Cov_b.A.t; nbits : int; strength : int }

let family = function
  | Rect_s _ -> Protocol.Rect
  | Dnf_s { nvars; _ } -> Protocol.Dnf { nvars }
  | Cov_s { nbits; strength; _ } -> Protocol.Cov { nbits; strength }

let family_token t = Protocol.family_to_token (family t)

let params = function
  | Rect_s { est; _ } -> (Rect_b.A.epsilon est, Rect_b.A.delta est, Rect_b.A.log2_universe est)
  | Dnf_s { est; _ } -> (Dnf_b.A.epsilon est, Dnf_b.A.delta est, Dnf_b.A.log2_universe est)
  | Cov_s { est; _ } -> (Cov_b.A.epsilon est, Cov_b.A.delta est, Cov_b.A.log2_universe est)

let create ~family ~epsilon ~delta ~log2_universe ~seed =
  let guard f = match f () with t -> Ok t | exception Invalid_argument msg -> Error msg in
  match (family : Protocol.family) with
  | Protocol.Rect ->
    let* est = guard (fun () -> Rect_b.A.create ~epsilon ~delta ~log2_universe ~seed ()) in
    Ok (Rect_s { est; dims = None })
  | Protocol.Dnf { nvars } ->
    let* est = guard (fun () -> Dnf_b.A.create ~epsilon ~delta ~log2_universe ~seed ()) in
    Ok (Dnf_s { est; nvars })
  | Protocol.Cov { nbits; strength } ->
    let* est = guard (fun () -> Cov_b.A.create ~epsilon ~delta ~log2_universe ~seed ()) in
    Ok (Cov_s { est; nbits; strength })

let add ?ts t ~lineno payload =
  match t with
  | Rect_s r ->
    let box = Parsers.rectangle_of_line ?dims:r.dims ~lineno payload in
    if r.dims = None then r.dims <- Some (Rectangle.dim box);
    Rect_b.A.process ?ts r.est box
  | Dnf_s d ->
    let term = Parsers.dnf_term_of_line ~nvars:d.nvars ~lineno payload in
    Dnf_b.A.process ?ts d.est term
  | Cov_s c ->
    let v = Parsers.vector_of_line ~lineno payload in
    if Bitvec.width v <> c.nbits then
      raise
        (Parsers.Parse_error
           {
             line = lineno;
             msg =
               Printf.sprintf "vector has %d bits but the session is cov:%d:%d"
                 (Bitvec.width v) c.nbits c.strength;
           });
    Cov_b.A.process ?ts c.est (Coverage.create ~vector:v ~strength:c.strength)

let estimate = function
  | Rect_s { est; _ } -> Rect_b.A.estimate est
  | Dnf_s { est; _ } -> Dnf_b.A.estimate est
  | Cov_s { est; _ } -> Cov_b.A.estimate est

let estimate_window t ~cutoff =
  match t with
  | Rect_s { est; _ } -> Rect_b.A.estimate_window est ~cutoff
  | Dnf_s { est; _ } -> Dnf_b.A.estimate_window est ~cutoff
  | Cov_s { est; _ } -> Cov_b.A.estimate_window est ~cutoff

let items = function
  | Rect_s { est; _ } -> Rect_b.A.items_processed est
  | Dnf_s { est; _ } -> Dnf_b.A.items_processed est
  | Cov_s { est; _ } -> Cov_b.A.items_processed est

let is_exact = function
  | Rect_s { est; _ } -> Rect_b.A.is_exact est
  | Dnf_s { est; _ } -> Dnf_b.A.is_exact est
  | Cov_s { est; _ } -> Cov_b.A.is_exact est

let entries t =
  let pick exact_size sketch_size = match exact_size with Some n -> n | None -> sketch_size in
  match t with
  | Rect_s { est; _ } -> pick (Rect_b.A.exact_size est) (Rect_b.A.sketch_size est)
  | Dnf_s { est; _ } -> pick (Dnf_b.A.exact_size est) (Dnf_b.A.sketch_size est)
  | Cov_s { est; _ } -> pick (Cov_b.A.exact_size est) (Cov_b.A.sketch_size est)

let describe = function
  | Rect_s { est; _ } -> Rect_b.A.describe est
  | Dnf_s { est; _ } -> Dnf_b.A.describe est
  | Cov_s { est; _ } -> Cov_b.A.describe est

let encode_exn ?(merges = 0) ?cutoff t =
  let token = family_token t in
  match t with
  | Rect_s { est; _ } -> Rect_b.encode ~family_token:token ~merges ?cutoff est
  | Dnf_s { est; _ } -> Dnf_b.encode ~family_token:token ~merges ?cutoff est
  | Cov_s { est; _ } -> Cov_b.encode ~family_token:token ~merges ?cutoff est

let encode ?merges ?cutoff t = guard (fun () -> encode_exn ?merges ?cutoff t)

(* A token this module just wrote always decodes. *)
let decode_own token =
  match Io.decode token with Ok io -> io | Error msg -> invalid_arg ("Families: " ^ msg)

let to_io ?merges t = decode_own (encode_exn ?merges t)

type source = Decoded of Io.t | Live of t

(* The family (and, for rect, the point dimension) a source claims —
   checked across all sources before any entry is folded. *)
let source_shape = function
  | Live t -> Ok (family t, match t with Rect_s r -> r.dims | _ -> None)
  | Decoded v ->
    let* family =
      Result.map_error Protocol.describe_error
        (Protocol.family_of_token (Io.header v).Io.family)
    in
    (* a rect snapshot's dimension is that of any persisted point; one with
       no entries processed none, so the next ADD pins it *)
    let exception Dims of int in
    let first _ s pos len = raise (Dims (Rect_codec.count s pos len)) in
    match
      if family = Protocol.Rect then begin
        Io.iter_exact v first;
        Io.iter_sketch v (fun _ -> first)
      end
    with
    | () -> Ok (family, None)
    | exception Dims d -> Ok (family, Some d)

let token_of = function
  | Live t -> family_token t
  | Decoded v -> (Io.header v).Io.family

(* The refusals every fold starts with: one family and, for rect, one point
   dimension (returned) across the sources.  The estimator header check
   follows in {!check}. *)
let check_shape sources =
  let* shapes = map_result source_shape sources in
  match shapes with
  | [] -> Error "nothing to fold"
  | (fam, _) :: _ -> (
    let mismatch =
      List.find_map
        (fun ((f, _), src) ->
          if f = fam then None
          else
            Some
              (match (fam, f) with
              | Protocol.Dnf { nvars = a }, Protocol.Dnf { nvars = b } ->
                Printf.sprintf "cannot merge dnf:%d with dnf:%d" a b
              | Protocol.Cov c, Protocol.Cov d ->
                Printf.sprintf "cannot merge cov:%d:%d with cov:%d:%d" c.nbits c.strength
                  d.nbits d.strength
              | _ ->
                Printf.sprintf "cannot merge a %s session with a %s session"
                  (Protocol.family_to_token fam) (token_of src)))
        (List.combine shapes sources)
    in
    match mismatch with
    | Some msg -> Error msg
    | None -> (
      match List.filter_map snd shapes with
      | d1 :: rest when List.exists (fun d -> d <> d1) rest ->
        let d2 = List.find (fun d -> d <> d1) rest in
        Error (Printf.sprintf "cannot merge rect sessions of %d and %d dimensions" d1 d2)
      | dims -> Ok (fam, match dims with d :: _ -> Some d | [] -> None)))

(* Each family's estimator view of a source (shapes already checked). *)
let rect_src = function
  | Live (Rect_s r) -> Rect_b.A.source r.est
  | Live _ -> assert false
  | Decoded v -> Rect_b.source_of_io v

let dnf_src = function
  | Live (Dnf_s d) -> Dnf_b.A.source d.est
  | Live _ -> assert false
  | Decoded v -> Dnf_b.source_of_io v

let cov_src = function
  | Live (Cov_s c) -> Cov_b.A.source c.est
  | Live _ -> assert false
  | Decoded v -> Cov_b.source_of_io v

(* Every refusal of [fold] without the fold: the shape check, then the
   estimator header check (Delphic_core.Adaptive.Make.check_fold). *)
let check sources =
  let* fam, _ = check_shape sources in
  guard (fun () ->
      match fam with
      | Protocol.Rect -> ignore (Rect_b.A.check_fold (List.map rect_src sources))
      | Protocol.Dnf _ -> ignore (Dnf_b.A.check_fold (List.map dnf_src sources))
      | Protocol.Cov _ -> ignore (Cov_b.A.check_fold (List.map cov_src sources)))

(* The cluster's one fold: k same-family sources — decoded tokens or live
   sessions — into one new session, in a single pass over their entries
   (Delphic_core.Adaptive.Make.fold, which runs the header check).  Family
   and shape mismatches are [Error]s the protocol relays verbatim, as are
   undecodable elements and parameter mismatches. *)
let fold sources ~seed =
  let* fam, dims = check_shape sources in
  match fam with
  | Protocol.Rect ->
    let* est = guard (fun () -> Rect_b.A.fold (List.map rect_src sources) ~seed) in
    Ok (Rect_s { est; dims })
  | Protocol.Dnf { nvars } ->
    let* est = guard (fun () -> Dnf_b.A.fold (List.map dnf_src sources) ~seed) in
    Ok (Dnf_s { est; nvars })
  | Protocol.Cov { nbits; strength } ->
    let* est = guard (fun () -> Cov_b.A.fold (List.map cov_src sources) ~seed) in
    Ok (Cov_s { est; nbits; strength })

let of_io io ~seed = fold [ Decoded io ] ~seed
let merge a b ~seed = fold [ Live a; Live b ] ~seed

(* A point-in-time clone (the one-source fold of the live session): an EXPR
   query probes and samples it while concurrent ADDs keep landing on the
   live estimator. *)
let copy t ~seed = fold [ Live t ] ~seed

(* Query-time window restriction: a clone holding only the entries whose
   last occurrence is inside the window.  Windowed EXPR leaves go through
   this so the unchanged expression machinery answers over the window. *)
let restrict t ~cutoff ~seed = of_io (decode_own (encode_exn ~cutoff t)) ~seed

(* An EXPR query's one evaluation path.  [check] gives every refusal the
   union fold would (family, rect dimension, ε/δ/log2u/mode/capacity).
   With every leaf exact, [union ()] — the leaves' fold — supplies the
   draws and the probes are indicators.  Once any leaf is sketching, a
   fold's draws would be survivors of the very buckets the probes read, so
   the draws come from each leaf in turn (the stratified scheme of
   Delphic_expr.Expr) and no union is folded at all. *)
let eval ~union ~leaves ~expr ~samples =
  let* () =
    if leaves = [] then Error "expression names no sessions"
    else check (List.map (fun (_, l) -> Live l) leaves)
  in
  (* one family's estimators: [check] has seen that family on every leaf *)
  let unpack pick =
    ( List.map (fun (n, l) -> (n, Option.get (pick l))) leaves,
      fun () ->
        let* u = union () in
        Option.to_result ~none:"the union is not of the leaves' family" (pick u) )
  in
  match snd (List.hd leaves) with
  | Rect_s _ ->
    let leaves, union = unpack (function Rect_s r -> Some r.est | _ -> None) in
    Rect_b.expr ~expr ~samples ~leaves ~union
  | Dnf_s _ ->
    let leaves, union = unpack (function Dnf_s d -> Some d.est | _ -> None) in
    Dnf_b.expr ~expr ~samples ~leaves ~union
  | Cov_s _ ->
    let leaves, union = unpack (function Cov_s c -> Some c.est | _ -> None) in
    Cov_b.expr ~expr ~samples ~leaves ~union

let eval_expr ~leaves ~expr ~samples ~seed =
  eval ~leaves ~expr ~samples ~union:(fun () ->
      match leaves with
      | [ (_, only) ] -> Ok only
      | _ -> fold (List.map (fun (_, l) -> Live l) leaves) ~seed)

let expr_estimate ~union ~leaves ~expr ~samples =
  eval ~leaves ~expr ~samples ~union:(fun () -> Ok union)
