(* Regularized incomplete gamma, after Numerical Recipes' gser/gcf split:
   the power series converges fast for x < a+1, the Lentz continued
   fraction elsewhere. *)

let max_iterations = 500
let tiny = 1e-300
let eps = 1e-15

let lower_series ~a ~x =
  (* P(a,x) = e^{-x} x^a / Γ(a) · Σ_{n>=0} x^n / (a(a+1)...(a+n)) *)
  let log_prefix = (a *. log x) -. x -. Comb.ln_gamma a in
  let sum = ref (1.0 /. a) in
  let term = ref (1.0 /. a) in
  let ap = ref a in
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < max_iterations do
    incr n;
    ap := !ap +. 1.0;
    term := !term *. x /. !ap;
    sum := !sum +. !term;
    if Float.abs !term < Float.abs !sum *. eps then continue_ := false
  done;
  !sum *. exp log_prefix

let upper_continued_fraction ~a ~x =
  (* Q(a,x) = e^{-x} x^a / Γ(a) · 1/(x+1-a- 1·(1-a)/(x+3-a- ...)) *)
  let log_prefix = (a *. log x) -. x -. Comb.ln_gamma a in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. tiny) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < max_iterations do
    incr n;
    let fn = float_of_int !n in
    let an = -.fn *. (fn -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if Float.abs !d < tiny then d := tiny;
    c := !b +. (an /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if Float.abs (delta -. 1.0) < eps then continue_ := false
  done;
  exp log_prefix *. !h

let gamma_p ~a ~x =
  if a <= 0.0 then invalid_arg "Special.gamma_p: need a > 0";
  if x < 0.0 then invalid_arg "Special.gamma_p: need x >= 0";
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then lower_series ~a ~x
  else 1.0 -. upper_continued_fraction ~a ~x

let gamma_q ~a ~x =
  if a <= 0.0 then invalid_arg "Special.gamma_q: need a > 0";
  if x < 0.0 then invalid_arg "Special.gamma_q: need x >= 0";
  if x = 0.0 then 1.0
  else if x < a +. 1.0 then 1.0 -. lower_series ~a ~x
  else upper_continued_fraction ~a ~x

let chi_square_cdf ~dof x =
  if dof <= 0 then invalid_arg "Special.chi_square_cdf: need dof > 0";
  if x <= 0.0 then 0.0 else gamma_p ~a:(float_of_int dof /. 2.0) ~x:(x /. 2.0)

let chi_square_survival ~dof x =
  if dof <= 0 then invalid_arg "Special.chi_square_survival: need dof > 0";
  if x <= 0.0 then 1.0 else gamma_q ~a:(float_of_int dof /. 2.0) ~x:(x /. 2.0)

let erf x =
  let p = gamma_p ~a:0.5 ~x:(x *. x) in
  if x >= 0.0 then p else -.p

let normal_cdf x = 0.5 *. (1.0 +. erf (x /. sqrt 2.0))

let binomial_tail ~n ~p k =
  if n < 0 then invalid_arg "Special.binomial_tail: need n >= 0";
  if p < 0.0 || p > 1.0 then invalid_arg "Special.binomial_tail: need 0 <= p <= 1";
  if k <= 0 then 1.0
  else if k > n || p = 0.0 then 0.0
  else if p = 1.0 then 1.0
  else begin
    (* the first term C(n,k)·p^k·(1-p)^(n-k) in log space, then each next
       one by the ratio of successive terms *)
    let log_first = ref ((float_of_int k *. log p) +. (float_of_int (n - k) *. log1p (-.p))) in
    for i = 1 to k do
      log_first := !log_first +. log (float_of_int (n - k + i)) -. log (float_of_int i)
    done;
    let term = ref (exp !log_first) and total = ref 0.0 in
    for j = k to n do
      total := !total +. !term;
      term := !term *. float_of_int (n - j) /. float_of_int (j + 1) *. p /. (1.0 -. p)
    done;
    Float.min 1.0 !total
  end
