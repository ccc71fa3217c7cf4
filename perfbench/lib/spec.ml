(* The two workloads: which sessions exist, what each is fed, and at what
   rates the two generator connections run.

   The query connection rotates four requests — EST A (live: A is being
   fed), EST B (idle: B only takes its preload), WIN A 60 at=<clock> and
   EXPR (A & B) \ C.  B and C are built from slices of A's pool so
   (A & B) \ C has real support. *)

module P = Delphic_server.Protocol
module Rect = Delphic_sets.Rectangle
module Rng = Delphic_util.Rng

let epsilon = 0.2

let delta = 0.2

let log2_universe = 40.0

type kind = Est_live | Est_idle | Win | Expr

let kinds = [| Est_live; Est_idle; Win; Expr |]

let kind_name = function Est_live -> "est" | Est_idle -> "est_idle" | Win -> "win" | Expr -> "expr"

type session = { name : string; pool : Rect.t array; payloads : string array; truth : Truth.stream }

type t = {
  name : string;
  exact : bool;  (** every union stays below the exact-mode capacity *)
  sessions : session array;  (** A, B, C first, then any extra sessions *)
  fed : int array;  (** sessions the ingest connection cycles through *)
  capacity : bool;  (** a closed-loop capacity phase over [fed] follows the window *)
  preload : (int * int) list;  (** (session, sets) sent during set-up *)
  frame_sets : int;  (** sets per ingest frame *)
  ingest_rate : float;  (** paced ingest: one frame every 1/rate s, one in flight *)
  query_rate : float;  (** queries per second over [kinds] *)
  tick : float;  (** logical seconds per ingest frame *)
  win_seconds : float;
}

let a = 0

let b = 1

let c = 2

let expr_text = "(A & B) \\ C"

let expr = Delphic_stream.Parsers.expr_of_string expr_text

let payload box =
  let lo = Rect.lo box and hi = Rect.hi box in
  Printf.sprintf "%d %d %d %d" lo.(0) hi.(0) lo.(1) hi.(1)

let session name pool = { name; pool; payloads = Array.map payload pool; truth = Truth.stream pool }

(* A has [p] boxes; B and C have [q] (at most [p]): B = A's first 3q/4
   boxes + fresh ones, C = A's next q/4 + fresh ones, so (A ∩ B) \ C keeps
   roughly A's first half. *)
let abc gen ~p ~q =
  let pa = gen p in
  let pb = Array.append (Array.sub pa 0 (3 * q / 4)) (gen (q / 4)) in
  let pc = Array.append (Array.sub pa (q / 2) (q / 4)) (gen (3 * q / 4)) in
  [| session "A" pa; session "B" pb; session "C" pc |]

let boxes rng ~universe ~max_side n =
  Array.of_list (Delphic_stream.Workload.Rectangles.uniform rng ~universe ~dim:2 ~count:n ~max_side)

(* Small boxes (at most 3×3 points) in a 10⁵×10⁵ grid: a 2048-box pool is a
   union of about 8k points, below the ≈15.3k exact-mode capacity.  Ingest
   is paced at 16k sets/s, about half of what a closed loop reaches on two
   cores: saturated, the cluster's query latencies spread by up to 0.42
   across seeds; with headroom they hold within the bounds. *)
let ingest ~seed =
  let rng = Rng.create ~seed in
  let gen = boxes rng ~universe:100_000 ~max_side:3 in
  let p = 2048 in
  let extra = Array.init 7 (fun i -> session (Printf.sprintf "S%d" (i + 1)) (gen p)) in
  {
    name = "ingest";
    exact = true;
    sessions = Array.append (abc gen ~p ~q:p) extra;
    fed = Array.append [| a |] (Array.init 7 (fun i -> i + 3));
    capacity = true;
    preload = [ (b, p); (c, p) ];
    frame_sets = 64;
    ingest_rate = 250.0;
    query_rate = 8.0;
    tick = 1.0;
    win_seconds = 60.0;
  }

(* E1's regime: boxes up to 60 000 wide in a 10⁶×10⁶ grid, far past the
   exact capacity from the first frame.  There is no capacity phase: a
   closed loop of these boxes stalls acks for seconds at a time, long
   enough to time frames out. *)
let query ~seed =
  let rng = Rng.create ~seed in
  {
    name = "query";
    exact = false;
    sessions = abc (boxes rng ~universe:1_000_000 ~max_side:60_000) ~p:1024 ~q:512;
    fed = [| a |];
    capacity = false;
    preload = [ (a, 1024); (b, 512); (c, 512) ];
    frame_sets = 2;
    ingest_rate = 40.0;
    query_rate = 4.0;
    tick = 0.25;
    win_seconds = 60.0;
  }

let names = [ "ingest"; "query" ]

let make name ~seed =
  match name with
  | "ingest" -> ingest ~seed
  | "query" -> query ~seed
  | other -> invalid_arg (Printf.sprintf "unknown workload %S (want %s)" other (String.concat ", " names))

let request t kind ~at =
  match kind with
  | Est_live -> P.Est { session = t.sessions.(a).name }
  | Est_idle -> P.Est { session = t.sessions.(b).name }
  | Win -> P.Win { session = t.sessions.(a).name; seconds = t.win_seconds; at = Some at }
  | Expr -> P.Expr { expr; m = None; w = None }
