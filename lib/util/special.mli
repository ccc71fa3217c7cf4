(** Special functions for statistical validation.

    The experiment harness reports chi-square goodness-of-fit p-values
    (uniformity of union sampling, binomial sampler validation); these are
    tail probabilities of Gamma distributions, computed here from scratch
    via the regularized incomplete gamma function. *)

val gamma_p : a:float -> x:float -> float
(** Regularized lower incomplete gamma [P(a, x) = γ(a,x)/Γ(a)] for
    [a > 0, x >= 0].  Series expansion for [x < a+1], continued fraction
    otherwise; absolute error below 1e-12. *)

val gamma_q : a:float -> x:float -> float
(** Upper tail [Q(a, x) = 1 - P(a, x)]. *)

val chi_square_cdf : dof:int -> float -> float
(** CDF of the chi-square distribution with [dof] degrees of freedom. *)

val chi_square_survival : dof:int -> float -> float
(** p-value: [P(X >= x)] for chi-square with [dof] degrees of freedom. *)

val erf : float -> float
(** Error function, via [P(1/2, x²)]. *)

val normal_cdf : float -> float
(** Standard normal CDF. *)

val binomial_tail : n:int -> p:float -> int -> float
(** [binomial_tail ~n ~p k] is [P(X >= k)] for [X ~ Binomial(n, p)]: how
    likely [k] or more failures are among [n] independent trials of an
    estimator that fails with probability [p].  Statistical tests reject
    only when this falls below their threshold. *)
