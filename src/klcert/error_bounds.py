"""Concrete error-bound constants for structured problem classes.

Covers Hoffman constants of polyhedral pairs (enumerated upper bound,
sampled lower bound), the l1-regularized least-squares bound built from the
sign-pattern reformulation, quadratic bounds for convex feasibility via an
interior ball, power profiles for uniformly convex functions, and the
generic exponent rule for piecewise polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product

import numpy as np

from klcert.convex import (
    AffineSet,
    Array,
    Ball,
    Halfspace,
    as_point,
    batch_norms,
    dykstra_projection,
    feasibility_objective,
    lasso_composite,
)
from klcert.desingularization import Desingularizer, PowerDesingularizer

# Enumeration caps for the exact Hoffman bound; above them the constant must
# be user-supplied or sampled.
HOFFMAN_MAX_STACKED_ROWS = 24
HOFFMAN_MAX_DIM = 10
# row subsets per batch of the enumeration's bounds, and per batched SVD
_BASES_PER_BATCH = 20000
_BASES_PER_SVD = 8

_RANK_TOL = 1e-10


# ---------------------------------------------------------------------------
# Hoffman constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystemPair:
    """Polyhedron X = {A x <= a} paired with the affine set Y = {E x = e}.

    The Hoffman constant nu of the pair satisfies
    dist(x, X intersect Y) <= nu * ||E x - e|| for every x in X.
    A feasible witness certifies that the intersection is nonempty.
    """

    A: Array
    a: Array
    E: Array
    e: Array
    witness: Array

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.E, dtype=float))
        n = E.shape[1]
        A_raw = np.asarray(self.A, dtype=float)
        A = np.atleast_2d(A_raw) if A_raw.size else np.zeros((0, n))
        a_raw = np.asarray(self.a, dtype=float)
        a = np.atleast_1d(a_raw) if a_raw.size else np.zeros(0)
        e = np.atleast_1d(np.asarray(self.e, dtype=float))
        w = as_point(self.witness, E.shape[1])
        if A.shape[0] != a.shape[0]:
            raise ValueError("A/a row mismatch")
        if E.shape[0] != e.shape[0]:
            raise ValueError("E/e row mismatch")
        if A.shape[0] and np.max(A @ w - a) > 1e-9:
            raise ValueError("witness violates the inequality system")
        if np.linalg.norm(E @ w - e) > 1e-9:
            raise ValueError("witness violates the equality system")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "witness", w)

    @property
    def dimension(self) -> int:
        return self.E.shape[1]

    def stacked(self) -> Array:
        return np.vstack([self.A, self.E]) if self.A.size else self.E.copy()

    def inequality_sets(self):
        return [Halfspace(self.A[i], self.a[i]) for i in range(self.A.shape[0])]

    def intersection_sets(self):
        return self.inequality_sets() + [AffineSet(self.E, self.e)]


def _max_pinv_norm_over_bases(stacked: Array) -> float:
    """Max of 1 / sigma_min over row subsets of size rank(stacked).

    Any independent row subset extends to one of these maximal subsets, and
    appending independent rows only shrinks the least nonzero singular value,
    so the maximum over maximal subsets dominates all independent subsets.

    The result has the bits of a batched SVD of every subset: it is
    1 / s for the least computed sigma_min s above the rank tolerance, and
    gesdd gives each matrix the same bits whatever else is in its batch.
    Only the subsets that could hold that least s are decomposed: each
    gets a floor that its computed sigma_min, if above the tolerance, is
    at least (`_sigma_min_floors`), the SVDs run in ascending order of the
    floors, and they stop at the first floor not below the least s
    accepted so far, since no later subset can then go below it.  A subset
    at or below the tolerance is never accepted, so skipping one changes
    nothing, and "no full-rank row subset" is raised exactly when the full
    enumeration raises it.
    """
    m = stacked.shape[0]
    svals = np.linalg.svd(stacked, compute_uv=False)
    tol = _RANK_TOL * max(svals.max(), 1.0)
    rank = int(np.count_nonzero(svals > tol))
    if rank == 0:
        raise ValueError("stacked system is all zeros")
    subsets = np.fromiter(
        chain.from_iterable(combinations(range(m), rank)),
        dtype=np.min_scalar_type(m), count=math.comb(m, rank) * rank,
    ).reshape(-1, rank)
    floors = np.concatenate([
        _sigma_min_floors(stacked[subsets[i:i + _BASES_PER_BATCH]], tol)
        for i in range(0, len(subsets), _BASES_PER_BATCH)])
    order = np.argsort(floors, kind="stable")
    floors = floors[order]
    least = math.inf
    done, end = 0, int(np.searchsorted(floors, least))
    while done < end:
        batch = order[done:min(end, done + _BASES_PER_SVD)]
        smin = np.linalg.svd(stacked[subsets[batch]], compute_uv=False)[:, -1]
        ok = smin > tol
        if np.any(ok):
            least = min(least, float(np.min(smin[ok])))
        done += len(batch)
        end = int(np.searchsorted(floors, least))
    if least == math.inf:
        raise ValueError("no full-rank row subset found")
    return 1.0 / least


def _sigma_min_floors(bases: Array, tol: float) -> Array:
    """For each r x c basis M (r <= c) of the batch, a number that the
    sigma_min gesdd computes for M is at least if it is above tol: a lower
    bound on it, -inf where none is proven, or +inf where it is proven to
    be at most tol.

    Proof.  Let u = 2^-53, F = ||M||_F^2, and X = M when r = c, else
    X = M M^T, so that sigma_min(X) = sigma_min(M)^p with p = 1 or 2.

    1. For any r x r matrix Y with singular values y_1 >= ... >= y_r,
       AM-GM on y_1^2 ... y_(r-1)^2, whose sum is at most ||Y||_F^2,
       gives y_r^2 >= det(Y)^2 ((r - 1) / ||Y||_F^2)^(r - 1) (for r = 1
       the factor is 1 and the bound is an equality).
    2. When p = 2, the computed X^ has |X^ - X| <= gamma_c |M| |M|^T, so
       ||X^ - X||_2 <= gamma_c F <= sqrt(r) gamma_c ||X||_F, since
       ||M M^T||_F^2 = sum of sigma^4 >= F^2 / r.  (gamma_k = k u / (1 - k u).)
    3. np.linalg.det factors P X^ = L^ U^ - E by partial pivoting (getrf):
       |E| <= gamma_r |L^| |U^|, and |||L^| |U^|||_inf <= (1 + 2 (r^2 - r)
       2^(r-1)) ||X^||_inf (Higham, Accuracy and Stability of Numerical
       Algorithms, section 9.3, with growth factor at most 2^(r-1)), so
       ||E||_F <= kappa ||X^||_F with kappa = 1.01 r^4 2^r u.  The matrix
       Y = X^ + P^T E has |det Y| = D = prod |u^_ii|.  numpy returns d^
       with |d^| = D theta: from the product, |log theta| <= 1.01 r u;
       from exp of a sum of logs (numpy's way, libm within one ulp, and
       |log| <= 745 for any double), |log theta| <= (r + 3)(745 r + 1) u
       <= 3000 r^2 u.
    4. The code forms F_X^ = fl(||X^||_F^2), relative error at most
       1.01 r^2 u, and b = fl(d^^2 ((r - 1) / F_X^)^(r - 1)), 2r
       roundings counting those the power repeats.  With 1 and 3,
       sigma_min(Y) >= sqrt(b) (1 - w) for w = 6000 r^2 u +
       2.02 r^5 2^r u + 4 r^3 u, and so sqrt(b) <= 1.01 ||X^||_F.  Weyl's
       inequality moves a singular value by at most the 2-norm of a
       perturbation, so with 2 and 3,
           sigma_min(X) >= sqrt(b) - mu sqrt(F_X^),
       where mu = 2^-44 (r^5 2^r + 10^4 r^2 + r c), that is 512 u times
       the bracket, covers 1.01 w + kappa + 1.02 sqrt(r) gamma_c more than
       a hundred times over, the rounding of this line included.
    5. gesdd is backward stable: its sigma_min is within p(r, c) u ||M||_2
       of sigma_min(M) (LAPACK Users' Guide, section 4.9).  The term
       2^-40 sqrt(F^) = 8192 u ||M||_F covers p = 8000, far above the
       order r c of that analysis at the sizes the enumeration caps allow,
       and the rounding of the p-th root and of this line.  So the
       computed sigma_min is at least sigma_min(X)^(1/p) - 2^-40 sqrt(F^).

    The steps use w, kappa < 10^-5, which holds while mu < 2^-10 (r up to
    14; the caps allow r <= 10), and no under- or overflow.  So every
    floor is -inf from mu >= 2^-10 on, and so is the floor of a basis
    whose d^^2, F_X^, (r - 1) / F_X^ or b is not a finite normal number,
    or whose bound in 4 is not positive: such a basis stays a candidate.

    6. When r = c and d^ = 0, getrf met an exact zero pivot, so Y in 3 is
       singular, or exp underflowed, so D <= e^-744 and sigma_min(Y) <=
       D^(1/r) <= e^-74.  Either way sigma_min(M) <= kappa ||M||_F + e^-74
       by Weyl, and with 5 the computed sigma_min is at most
       (kappa + 2^-40) ||M||_F + e^-74.  So when (2 kappa + 2^-39) sqrt(F^)
       < tol, which covers that and the rounding of the test, the basis
       is never accepted, and its floor is +inf.
    """
    count, r, c = bases.shape
    mu = 2.0 ** -44 * (r ** 5 * 2.0 ** r + 1e4 * r * r + r * c)
    if mu >= 2.0 ** -10:
        return np.full(count, -math.inf)
    squares = np.einsum("bij,bij->b", bases, bases)
    if r == c:
        X, squares_X = bases, squares
    else:
        X = bases @ bases.transpose(0, 2, 1)
        squares_X = np.einsum("bij,bij->b", X, X)
    with np.errstate(all="ignore"):
        d = np.linalg.det(X)
        b = d * d
        valid = _normal(b) & _normal(squares_X)
        if r > 1:
            q = (r - 1) / squares_X
            valid &= _normal(q)
            for _ in range(r - 1):
                b *= q
            valid &= _normal(b)
        floor_X = np.sqrt(b) - mu * np.sqrt(squares_X)
        valid &= floor_X > 0.0
        floor = floor_X if r == c else np.sqrt(floor_X)
        floor -= 2.0 ** -40 * np.sqrt(squares)
    floors = np.where(valid, floor, -math.inf)
    if r == c:
        kappa = 1.01 * r ** 4 * 2.0 ** (r - 53)
        rejected = (2.0 * kappa + 2.0 ** -39) * np.sqrt(squares) < tol
        floors[(d == 0.0) & rejected] = math.inf
    return floors


def _normal(v: Array) -> Array:
    """Where v is a finite float64 at or above the least normal number."""
    return (v >= np.finfo(float).tiny) & (v < math.inf)


def hoffman_constant(system: LinearSystemPair, mode: str = "exact", *,
                     samples: int = 200, seed: int = 0) -> float:
    """Hoffman constant of the pair, an upper bound in exact mode and a
    lower bound in sampled mode.

    exact mode returns the basis-enumeration bound: the maximum
    over full-rank row subsets of the stacked system of the norm of the
    associated least-squares solution operator.  Overestimation is safe for
    certification; it only weakens downstream constants.

    sampled mode returns the best observed ratio
    dist(x, X intersect Y) / ||E x - e|| over random points of X (the
    witness plus N(0, 4 I) noise, projected onto X), with the distance
    solved to high accuracy by Dykstra projections.
    """
    if mode == "exact":
        stacked = system.stacked()
        if (stacked.shape[0] > HOFFMAN_MAX_STACKED_ROWS
                or system.dimension > HOFFMAN_MAX_DIM):
            raise ValueError(
                f"system too large for exact enumeration "
                f"({stacked.shape[0]} rows, dim {system.dimension}); "
                f"use sampled mode or supply the constant"
            )
        return _max_pinv_norm_over_bases(stacked)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(seed)
    n = system.dimension
    raw = system.witness + 2.0 * rng.standard_normal((samples, n))
    if system.A.size:
        pts = dykstra_projection(system.inequality_sets(), raw, tol=1e-13)
    else:
        pts = raw
    resid = batch_norms(pts @ system.E.T - system.e)
    keep = resid > 1e-9
    if not np.any(keep):
        raise ValueError("no sampled point violates the equality system")
    pts = pts[keep]
    proj = dykstra_projection(system.intersection_sets(), pts, tol=1e-13)
    dist = batch_norms(pts - proj)
    ratio = dist / resid[keep]
    return float(np.max(ratio))


# ---------------------------------------------------------------------------
# l1-regularized least squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LassoInstance:
    """min 0.5 ||A x - y||^2 + mu ||x||_1 together with a starting point."""

    A: Array
    y: Array
    mu: float
    x0: Array

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        x0 = as_point(self.x0, A.shape[1])
        if A.shape[0] != y.shape[0]:
            raise ValueError("A/y row mismatch")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x0", x0)

    @property
    def dimension(self) -> int:
        return self.A.shape[1]

    @cached_property
    def composite(self):
        """The problem as least squares plus scaled l1, built once: it takes
        the spectral norm of A."""
        return lasso_composite(self.A, self.y, self.mu)

    def radius_bound(self) -> float:
        """l1 radius R containing every descent iterate started at x0."""
        return max(self.composite.value(self.x0) / self.mu,
                   1.0 + float(self.y @ self.y) / (2.0 * self.mu))


def lasso_sign_system(inst: LassoInstance) -> LinearSystemPair:
    """Sign-pattern reformulation whose Hoffman constant drives the bound.

    Lifted variable (x, t) with t standing for ||x||_1: inequalities
    [s, -1] (x, t) <= 0 for every sign vector s (sorted lexicographically
    over {-1, +1}^n) plus t <= R = inst.radius_bound(); equalities fix the
    least-squares image [A, 0] and the weighted sum [0, mu].
    """
    n = inst.dimension
    R = inst.radius_bound()
    sign_rows = np.array(sorted(product((-1.0, 1.0), repeat=n)), dtype=float)
    M = np.hstack([sign_rows, -np.ones((sign_rows.shape[0], 1))])
    top = np.zeros((1, n + 1))
    top[0, n] = 1.0
    A_ineq = np.vstack([M, top])
    a_ineq = np.concatenate([np.zeros(M.shape[0]), [R]])
    E = np.zeros((inst.A.shape[0] + 1, n + 1))
    E[:-1, :n] = inst.A
    E[-1, n] = inst.mu
    # Equality targets at the witness: the lifted optimal point is unknown
    # here, so anchor the witness at the lifted origin (feasible for X) and
    # target its own image, keeping the pair well-posed; only (A_ineq, E)
    # matter for the constant itself.
    witness = np.zeros(n + 1)
    e = E @ witness
    return LinearSystemPair(A=A_ineq, a=a_ineq, E=E, e=e, witness=witness)


def lasso_nu(inst: LassoInstance, mode: str = "exact") -> float:
    """Hoffman constant of the sign-pattern reformulation pair."""
    rows = 2 ** inst.dimension + inst.A.shape[0] + 2
    if mode == "exact" and rows > HOFFMAN_MAX_STACKED_ROWS:
        raise ValueError(
            f"reformulation has {rows} stacked rows, over the cap "
            f"{HOFFMAN_MAX_STACKED_ROWS}; supply nu or use sampled mode"
        )
    return hoffman_constant(lasso_sign_system(inst), mode)


@dataclass(frozen=True)
class LassoConstants:
    """Quadratic-growth certificate f - min f >= 2 gamma_R dist^2 on the
    l1 ball of radius R."""

    gamma_R: float
    R: float


def lasso_gamma(inst: LassoInstance, nu: float) -> LassoConstants:
    """Growth constants from the Hoffman constant of the reformulation.

    With G = R ||A|| + ||y||:
      gamma_R = 1 / (4 nu^2 (1 + mu R + G (4 R ||A|| + ||y||)))
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    R = inst.radius_bound()
    # the cached composite has taken ||A||: its L is ||A||^2
    norm_A = math.sqrt(inst.composite.lipschitz)
    norm_y = float(np.linalg.norm(inst.y))
    G = R * norm_A + norm_y
    gamma = 1.0 / (4.0 * nu ** 2 * (1.0 + inst.mu * R + G * (4.0 * R * norm_A + norm_y)))
    return LassoConstants(gamma_R=gamma, R=R)


# ---------------------------------------------------------------------------
# convex feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityInstance:
    """Balls and halfspaces, each in the dimension of xbar, with a declared
    interior ball B(xbar, R) inside the intersection, plus barycentric
    weights."""

    sets: tuple
    xbar: Array
    R: float
    weights: Array

    def __post_init__(self):
        sets = tuple(self.sets)
        xbar = as_point(self.xbar)
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if len(sets) < 2:
            raise ValueError("need at least two sets")
        for i, s in enumerate(sets):
            if s.dimension != xbar.shape[0]:
                raise ValueError(
                    f"sets[{i}] is a {type(s).__name__.lower()} in dimension "
                    f"{s.dimension}, but xbar is in dimension {xbar.shape[0]}")
        if self.R <= 0:
            raise ValueError("inner radius must be positive")
        if w.shape[0] != len(sets) or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to one")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "xbar", xbar)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.xbar.shape[0]

    def objective(self):
        return feasibility_objective(self.sets, self.weights, self.dimension)

    def check_inner_ball(self) -> bool:
        """Whether B(xbar, R) lies in every set, decided exactly in rationals
        from the stored floats: a ball B(c, r) holds it iff r >= R and
        ||xbar - c||^2 <= (r - R)^2, a halfspace <a, x> <= beta iff
        s = beta - <a, xbar> >= 0 and s^2 >= R^2 ||a||^2."""
        # imported here: no pipeline runs the check, and fractions imports
        # decimal, which the CLI would otherwise load for nothing
        from fractions import Fraction

        xbar, R = [Fraction(v) for v in self.xbar.tolist()], Fraction(self.R)
        for s in self.sets:
            if isinstance(s, Ball):
                r = Fraction(s.radius)
                squared = sum((x - Fraction(c)) ** 2
                              for x, c in zip(xbar, s.center.tolist()))
                if r < R or squared > (r - R) ** 2:
                    return False
            else:
                a = [Fraction(v) for v in s.normal.tolist()]
                slack = Fraction(s.offset) - sum(
                    ai * x for ai, x in zip(a, xbar))
                if slack < 0 or slack ** 2 < R ** 2 * sum(ai * ai for ai in a):
                    return False
        return True


def feasibility_bound(inst: FeasibilityInstance, x0, variant: str = "barycentric"
                      ) -> Desingularizer:
    """Quadratic-growth desingularizer psi(s) = M s^2 / 2 on the metric ball
    B(xbar, ||x0 - xbar||), which contains every averaged-projection or
    alternating-projection iterate by Fejer monotonicity.

    barycentric (f = 0.5 sum w_i dist^2(., C_i), m sets):
        M = 0.25 * (1 + 2 t / R)^(2 - 2 m) * min_i w_i
    alternating (g = indicator(C1) + 0.5 dist^2(., C2), two sets):
        M = 0.125 * (1 + 2 t / R)^(-2)
    with t = ||x0 - xbar||.
    """
    x0 = as_point(x0, inst.dimension)
    t = float(np.linalg.norm(x0 - inst.xbar))
    ratio = 1.0 + 2.0 * t / inst.R
    m = len(inst.sets)
    if variant == "barycentric":
        M = 0.25 * ratio ** (2 - 2 * m) * float(np.min(inst.weights))
    elif variant == "alternating":
        if m != 2:
            raise ValueError("alternating variant is exposed for two sets only")
        M = 0.125 * ratio ** (-2)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # M underflows, and 2 / M overflows, for a start far enough from xbar
    if not (M > 0 and 2.0 / M < math.inf):
        raise ValueError(f"start {x0.tolist()} is too far from xbar: it "
                         f"leaves the growth modulus M = {M!r}, whose "
                         "2 / M is beyond the range of a float")
    region = Ball(inst.xbar, t)
    # psi(s) = M s^2 / 2  <=>  phi(s) = sqrt(2 s / M)
    return PowerDesingularizer(scale=math.sqrt(2.0 / M), exponent=2.0,
                               r0=math.inf, region=region, ell=M)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def uniformly_convex_profile(sigma: float, p: float, alpha0: float) -> Desingularizer:
    """Desingularizer of a p-uniformly convex function with modulus sigma:

        phi(s) = p * sigma^(-1/p) * s^(1/p),  psi(s) = sigma * s^p / p^p,

    with psi' Lipschitz on [0, alpha0] with constant
    (p - 1) * sigma * alpha0^(p-2) / p^(p-1).  Requires p >= 2.
    """
    if sigma <= 0:
        raise ValueError("modulus must be positive")
    if p < 2:
        raise ValueError("profile requires p >= 2 (psi' must vanish at zero "
                         "and stay Lipschitz)")
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    scale = p * sigma ** (-1.0 / p)
    ell = (p - 1.0) * sigma * alpha0 ** (p - 2.0) / p ** (p - 1.0)
    return PowerDesingularizer(scale=scale, exponent=p, r0=math.inf, ell=ell)
