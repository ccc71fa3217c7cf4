(* Special functions against reference values (scipy-computed). *)

module Special = Delphic_util.Special

let close ?(tol = 1e-9) a b = Float.abs (a -. b) < tol

let check name expected actual =
  if not (close expected actual) then
    Alcotest.failf "%s: expected %.12f, got %.12f" name expected actual

let test_gamma_p_known () =
  (* P(1, x) = 1 - e^-x. *)
  List.iter
    (fun x -> check (Printf.sprintf "P(1,%.1f)" x) (1.0 -. exp (-.x)) (Special.gamma_p ~a:1.0 ~x))
    [ 0.1; 1.0; 2.5; 10.0 ];
  (* P(a, 0) = 0; Q(a, 0) = 1. *)
  check "P(3,0)" 0.0 (Special.gamma_p ~a:3.0 ~x:0.0);
  check "Q(3,0)" 1.0 (Special.gamma_q ~a:3.0 ~x:0.0);
  (* P(2, 2) = 1 - 3e^-2 (Erlang). *)
  check "P(2,2)" (1.0 -. (3.0 *. exp (-2.0))) (Special.gamma_p ~a:2.0 ~x:2.0);
  (* Large x: P -> 1. *)
  check "P(2,100)" 1.0 (Special.gamma_p ~a:2.0 ~x:100.0)

let test_p_plus_q () =
  List.iter
    (fun (a, x) ->
      let p = Special.gamma_p ~a ~x and q = Special.gamma_q ~a ~x in
      if not (close (p +. q) 1.0) then Alcotest.failf "P+Q at (%g, %g) = %.15f" a x (p +. q))
    [ (0.5, 0.3); (1.5, 1.5); (5.0, 2.0); (5.0, 20.0); (100.0, 80.0); (100.0, 130.0) ]

let test_chi_square_critical_values () =
  (* Standard table entries: P(X >= x) = 0.05. *)
  let cases = [ (1, 3.841458821); (3, 7.814727903); (10, 18.30703805) ] in
  List.iter
    (fun (dof, crit) ->
      let p = Special.chi_square_survival ~dof crit in
      if not (close ~tol:1e-6 p 0.05) then
        Alcotest.failf "chi2 dof=%d at %.4f: survival %.8f" dof crit p)
    cases;
  check "cdf + survival" 1.0
    (Special.chi_square_cdf ~dof:5 7.0 +. Special.chi_square_survival ~dof:5 7.0)

let test_chi_square_median () =
  (* Median of chi2(2) is 2 ln 2. *)
  check "chi2(2) median" 0.5 (Special.chi_square_cdf ~dof:2 (2.0 *. log 2.0))

let test_erf_known () =
  check "erf 0" 0.0 (Special.erf 0.0);
  if not (close ~tol:1e-7 (Special.erf 1.0) 0.8427007929) then Alcotest.fail "erf 1";
  if not (close ~tol:1e-7 (Special.erf (-1.0)) (-0.8427007929)) then Alcotest.fail "erf -1";
  if not (close ~tol:1e-7 (Special.erf 2.0) 0.9953222650) then Alcotest.fail "erf 2"

let test_normal_cdf () =
  check "Phi(0)" 0.5 (Special.normal_cdf 0.0);
  if not (close ~tol:1e-7 (Special.normal_cdf 1.959963985) 0.975) then
    Alcotest.fail "Phi(1.96)";
  if not (close ~tol:1e-7 (Special.normal_cdf (-1.959963985)) 0.025) then
    Alcotest.fail "Phi(-1.96)"

let test_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Special.gamma_p ~a:0.0 ~x:1.0);
  expect_invalid (fun () -> Special.gamma_p ~a:1.0 ~x:(-1.0));
  expect_invalid (fun () -> Special.chi_square_cdf ~dof:0 1.0)

(* P[X >= k] for X ~ Bin(n, p) against closed forms and a direct sum. *)
let test_binomial_tail () =
  let tail = Special.binomial_tail in
  check "k = 0" 1.0 (tail ~n:10 ~p:0.3 0);
  check "k > n" 0.0 (tail ~n:10 ~p:0.3 11);
  check "all heads" (0.5 ** 10.0) (tail ~n:10 ~p:0.5 10);
  check "at least one" (1.0 -. (0.8 ** 40.0)) (tail ~n:40 ~p:0.2 1);
  check "p = 0" 0.0 (tail ~n:5 ~p:0.0 1);
  check "p = 1" 1.0 (tail ~n:5 ~p:1.0 5);
  (* P[X >= 3], n = 5, p = 0.2: C(5,3)·.008·.64 + C(5,4)·.0016·.8 + .00032 *)
  check "n = 5, k = 3" 0.05792 (tail ~n:5 ~p:0.2 3)

let suite =
  [
    Alcotest.test_case "incomplete gamma known values" `Quick test_gamma_p_known;
    Alcotest.test_case "P + Q = 1 in both regimes" `Quick test_p_plus_q;
    Alcotest.test_case "chi-square critical values" `Quick test_chi_square_critical_values;
    Alcotest.test_case "chi-square median" `Quick test_chi_square_median;
    Alcotest.test_case "erf" `Quick test_erf_known;
    Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "binomial tail" `Quick test_binomial_tail;
  ]
