"""Recovery of block signals by minimizing the sum of block l2 norms.

Two constrained programs over coefficient vectors c (blocks c_j):

    equality:  min sum_j ||c_j||_2   s.t.  B c = y
    ball:      min sum_j ||c_j||_2   s.t.  ||B c - y||_2 <= eta

Each solve reads the operator's dense matrix B and forms one
eigendecomposition of B^T B, which gives the least-squares probe
(feasibility and a starting point), the null space basis Z of B, and every
least-squares solve after. An injective B has a single feasible point,
certified without iterating. Otherwise both programs run as second-order
cone programs,

    min sum_j t_j   s.t.  ||c_j||_2 <= t_j  (and ||B c - y||_2 <= eta),

the equality program over c = c_ls + Z w, by a primal-dual interior-point
method with Nesterov-Todd scaling and a Mehrotra corrector that keeps every
iterate strictly feasible. The cone multipliers give the dual vector nu:
the negated ball multiplier, or the least-squares solution of
B^T nu = -(block cone multipliers). Scaled into max_j ||(B^T nu)_j|| <= 1,
nu bounds the distance to the optimum by the gap
||c||_{2,1} - (<y, nu> - eta ||nu||), and the solve stops when that gap is
at most ``TOL_GAP``, or after ``max_iters`` Newton steps (default
``MAX_ITERS``). The tolerances are module constants, which :func:`certify`
applies to the same residuals (:func:`_residuals`). After each equality
step the support is read off primal-dual complementarity: block j is in it
when its cone head t_j exceeds its dual cone's slack z0_j - ||z1_j||. The
least-squares fit on that support is returned when it passes the same test
against nu projected onto the support's optimality equations
B_S^T nu = g_S (g the subgradient of the fit); a wrong support costs one
fit, never a wrong answer. The fit and the pseudoinverse of B_S^T are
computed once per support and reused while later steps detect the same
support. A solve whose Newton steps rounding stops early (a singular
Newton matrix, or an iterate off the cone interior) ends as "stalled".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DimMismatchError,
    NotOrthogonalError,
    TooLargeError,
    ZeroCoefficientError,
)
from .frames import SubspaceCollection, coherence
from .measurement import CoefficientOperator, stacked_columns, support_chunks
from .signals import BlockSignal, from_coeff_vector

# the oracle's batched residuals screen supports at this multiple of the
# accept tolerance; lstsq on each screened support then decides
_SCREEN_FACTOR = 10.0


# The stopping rule of both programs, which certify applies again at ten
# times each tolerance. TOL_PRIMAL is relative to 1 + ||y||, TOL_DUAL to the
# unit dual ball, and TOL_GAP is absolute at the scale of the objective.
# MAX_ITERS bounds the Newton steps, which take at most 14 (ball program)
# and 10 (equality program) on the shipped sweeps.
MAX_ITERS = 100
TOL_PRIMAL = 1e-9
TOL_DUAL = 1e-9
TOL_GAP = 1e-7


@dataclass(frozen=True)
class RecoverySolution:
    estimate: BlockSignal
    status: str  # "converged" | "max_iters" | "stalled" (rounding stopped progress) | "infeasible"
    iterations: int  # interior-point Newton steps
    primal_residual: float  # max(0, ||B c - y|| - eta) / (1 + ||y||)
    dual_residual: float  # max(0, max_j ||(B^T nu)_j|| - 1)
    duality_gap: float
    objective: float
    dual_vector: np.ndarray = field(repr=False, default=None)
    eta: float = 0.0


def diagnostics(solution: RecoverySolution) -> dict:
    """Serializable summary of a solve."""
    return {
        "status": solution.status,
        "iterations": solution.iterations,
        "primal_residual": solution.primal_residual,
        "dual_residual": solution.dual_residual,
        "duality_gap": solution.duality_gap,
        "objective": solution.objective,
    }


# ---------------------------------------------------------------------------
# Flat-vector block helpers (blocks given by start offsets)
# ---------------------------------------------------------------------------

def _block_norms_flat(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduceat(v * v, starts))


def _norm21_flat(v: np.ndarray, starts: np.ndarray) -> float:
    return float(np.sum(_block_norms_flat(v, starts)))


def _dual_gap(vec, nu, y, eta, starts) -> float:
    """||c||_{2,1} - (<y, nu> - eta ||nu||), which bounds the distance to the
    optimum when max_j ||(B^T nu)_j|| <= 1."""
    return _norm21_flat(vec, starts) - (float(y @ nu) - eta * float(np.linalg.norm(nu)))


def _residuals(op: CoefficientOperator, y, eta, vec, nu) -> tuple[float, float, float]:
    """The primal violation max(0, ||B c - y|| - eta), max_j ||(B^T nu)_j|| and
    the duality gap of c against nu as given."""
    violation = max(0.0, float(np.linalg.norm(op.matrix @ vec - y)) - eta)
    dual_norm = float(np.max(_block_norms_flat(op.matrix.T @ nu, op.block_starts)))
    return violation, dual_norm, _dual_gap(vec, nu, y, eta, op.block_starts)


# ---------------------------------------------------------------------------
# Second-order cones and the interior-point method
# ---------------------------------------------------------------------------

class _Cones:
    """Product of second-order cones {(u0, u1) : ||u1|| <= u0} on one stacked vector.

    Each cone occupies a contiguous segment whose first entry is u0.
    """

    def __init__(self, dims):
        self.heads = np.concatenate([[0], np.cumsum(dims)[:-1]]).astype(int)
        self.owner = np.repeat(np.arange(len(dims)), dims)
        self.e = np.zeros(int(np.sum(dims)))  # identity element
        self.e[self.heads] = 1.0
        self.j = 2.0 * self.e - 1.0  # diagonal of the reflection J = diag(1, -I)
        # heads and J for two vectors of the product stacked end to end
        self.heads2 = np.concatenate([self.heads, self.heads + len(self.e)])
        self.j2 = np.tile(self.j, 2)

    def dot(self, u, v):
        return np.add.reduceat(u * v, self.heads, axis=0)

    def jdot(self, u, v):
        return self.dot(self.j * u, v)

    def jdot2(self, u, v):
        """jdot per cone of u and v, each two vectors of the product end to end."""
        return np.add.reduceat(self.j2 * u * v, self.heads2)

    def prod(self, u, v):
        """Jordan product (u^T v, u0 v1 + v0 u1) per cone."""
        out = u[self.heads][self.owner] * v + v[self.heads][self.owner] * u
        out[self.heads] = self.dot(u, v)
        return out

    def div(self, lam, lam_sq, r):
        """The x with lam o x = r, for lam in the interior and lam_sq = jdot(lam, lam)."""
        x0 = self.jdot(lam, r) / lam_sq
        out = (r - x0[self.owner] * lam) / lam[self.heads][self.owner]
        out[self.heads] = x0
        return out

    def scaling(self, s, z, sz_sq):
        """v and beta of the Nesterov-Todd scaling W = beta (2 v v^T - J), W s = W^-1 z.

        sz_sq is jdot2 of s and z stacked.
        """
        sn, zn = np.sqrt(sz_sq).reshape(2, -1)
        sb, zb = s / sn[self.owner], z / zn[self.owner]
        gamma = np.sqrt(0.5 * (1.0 + self.dot(sb, zb)))
        wb = (zb + self.j * sb) / (2.0 * gamma[self.owner]) + self.e
        return wb / np.sqrt(2.0 * wb[self.heads])[self.owner], np.sqrt(zn / sn)

    def scale(self, nt, v):
        """W v for a vector, or W applied to each column of a matrix."""
        w, beta = nt
        v2 = v.reshape(len(v), -1)
        wv = self.dot(w[:, None], v2)[self.owner]
        out = beta[self.owner, None] * (2.0 * w[:, None] * wv - self.j[:, None] * v2)
        return out.reshape(v.shape)

    def max_step(self, uu, u, d):
        """Largest a with u_i + a d_i in the cone product for both stacked pairs.

        u and d each stack two vectors of the product (u in the interior),
        and uu is jdot2(u, u).
        """
        a, b = self.jdot2(d, d) / uu, self.jdot2(u, d) / uu
        root = np.sqrt(np.maximum(b * b - a, 0.0))
        # per cone 1/x for the smallest positive root x of a x^2 + 2 b x + 1,
        # or 0 when there is none; both branches avoid cancellation, and the
        # guarded denominator is positive wherever its branch is taken
        up = b > 0.0
        inv = np.where(b * b < a, 0.0, np.where(up, -a / np.where(up, root + b, 1.0), root - b)).max()
        return 1.0 / inv if inv > 0.0 else math.inf


def _interior_point(G, h, cost, x, cones):
    """Newton steps of a primal-dual method for min cost^T x s.t. G x + s = h, s in cones.

    x must be strictly feasible; every step keeps G x + s = h. Yields
    (x, z) after each step and returns when rounding stops progress: a
    singular Newton matrix or an iterate off the cone interior.
    """
    s = h - G @ x
    z = cones.e.copy()
    sz = np.concatenate([s, z])
    sz_sq = cones.jdot2(sz, sz)
    degree = len(cones.heads)  # of the barrier: one per second-order cone
    while True:
        nt = cones.scaling(s, z, sz_sq)
        lam = cones.scale(nt, s)
        wg = cones.scale(nt, G)
        rd = G.T @ z + cost
        mu = float(s @ z) / degree
        hessian = wg.T @ wg

        def direction(q):
            # Newton system G^T W^2 G dx = -rd - (W G)^T q; steps scaled by W
            dx = np.linalg.solve(hessian, -rd - wg.T @ q)
            dz = wg @ dx + q
            return dx, q - dz, dz

        # ds and dz both step from lam: one stacked ratio test for the pair
        lam2 = np.concatenate([lam, lam])
        lam2_sq = cones.jdot2(lam2, lam2)
        try:
            dx, ds, dz = direction(-lam)
            alpha = min(1.0, cones.max_step(lam2_sq, lam2, np.concatenate([ds, dz])))
            # Mehrotra: second-order correction and centering at (1 - alpha)^3 mu
            q = cones.div(lam, lam2_sq[:degree], (1.0 - alpha) ** 3 * mu * cones.e
                          - cones.prod(lam, lam) - cones.prod(ds, dz))
            dx, ds, dz = direction(q)
        except np.linalg.LinAlgError:
            return
        # stop 1 % short of the cone boundary
        alpha = min(1.0, 0.99 * cones.max_step(lam2_sq, lam2, np.concatenate([ds, dz])))
        x = x + alpha * dx
        s = s - alpha * (G @ dx)
        z = z + alpha * cones.scale(nt, dz)
        sz = np.concatenate([s, z])
        sz_sq = cones.jdot2(sz, sz)
        if not (np.all(sz[cones.heads2] > 0.0) and np.all(sz_sq > 0.0)):
            return  # rounding has carried an iterate to the boundary
        yield x, z


def _solve(op: CoefficientOperator, y: np.ndarray, eta: float, max_iters: int) -> RecoverySolution:
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    starts = op.block_starts
    lengths = np.asarray(op.block_dims, dtype=int)
    n, p, nb = op.in_dim, op.out_dim, len(lengths)
    y = np.asarray(y, dtype=float)
    if y.shape != (p,):
        raise ValueError(f"expected y of length {p}, got shape {y.shape}")
    ynorm = float(np.linalg.norm(y))

    def solution(vec, status, iters, nu):
        violation, dual_norm, gap = _residuals(op, y, eta, vec, nu)
        if status == "infeasible":
            dual_norm = gap = math.inf
        return RecoverySolution(
            estimate=from_coeff_vector(op.collection, vec),
            status=status,
            iterations=iters,
            primal_residual=violation / (1.0 + ynorm),
            dual_residual=max(0.0, dual_norm - 1.0),
            duality_gap=gap,
            objective=_norm21_flat(vec, starts),
            dual_vector=nu,
            eta=eta,
        )

    def in_ball(nu):
        """nu scaled into the dual feasible set max_j ||(B^T nu)_j|| <= 1."""
        return nu / max(1.0, float(np.max(_block_norms_flat(B.T @ nu, starts))))

    B = op.matrix
    # zero is feasible and has minimal objective
    if ynorm <= eta or ynorm == 0.0:
        return solution(np.zeros(n), "converged", 0, np.zeros(p))

    evals, evecs = np.linalg.eigh(B.T @ B)
    keep = evals > n * np.finfo(float).eps * max(evals[-1], 0.0)
    v_r, l_r = evecs[:, keep], evals[keep]

    def gram_pinv(v):
        return v_r @ ((v_r.T @ v) / l_r)

    # the minimum-norm least-squares solutions of B c = r and B^T nu = g, each
    # with one step of iterative refinement: the factor of B^T B alone loses
    # accuracy with the square of the condition number of B
    def pinv(r):
        c = gram_pinv(B.T @ r)
        return c + gram_pinv(B.T @ (r - B @ c))

    def dual_ls(g):
        nu = B @ gram_pinv(g)
        return nu + B @ gram_pinv(g - B.T @ nu)

    def subgradient(vec):
        norms = np.maximum(_block_norms_flat(vec, starts), np.finfo(float).tiny)
        return vec / np.repeat(norms, lengths)

    fit = None  # the last detected support and its fit data (None when the fit misses y)

    def refine(t, z, nu):
        """Least squares on the support that complementarity identifies, if
        it passes the certificate.

        Block j is in the support when its cone head t_j exceeds the slack
        z0_j - ||z1_j|| of its dual cone. The dual candidate projects nu
        (already in the dual ball) onto the support's optimality equations
        B_S^T nu = g_S, g the subgradient of the fit:
        nu + B_S^{T+} (g_S - B_S^T nu). The fit, g_S and B_S^{T+} depend
        only on the support, so a support repeated from the step before
        reuses them and only the new nu is projected.
        """
        nonlocal fit
        support = t > z[heads] - _block_norms_flat(z[tails], starts)
        if fit is None or not np.array_equal(fit[0], support):
            cols = np.repeat(support, lengths)
            b_s = B[:, cols]
            out = np.zeros(n)
            out[cols] = np.linalg.lstsq(b_s, y, rcond=None)[0]
            fit = (support, None)
            if np.linalg.norm(B @ out - y) <= TOL_PRIMAL * (1.0 + ynorm):
                # B_S^{T+} by lstsq: np.linalg.pinv's SVD routine would add
                # about 0.3 MB of resident LAPACK code to a sweep
                t_pinv = np.linalg.lstsq(b_s.T, np.eye(b_s.shape[1]), rcond=None)[0]
                fit = (support, (out, b_s, t_pinv, subgradient(out)[cols]))
        if fit[1] is None:
            return None
        out, b_s, t_pinv, g = fit[1]
        cand = in_ball(nu + t_pinv @ (g - b_s.T @ nu))
        return (out, cand) if _dual_gap(out, cand, y, eta, starts) <= TOL_GAP else None

    # least-squares probe: feasibility check and starting point
    c0 = pinv(y)
    range_dist = float(np.linalg.norm(B @ c0 - y))
    if range_dist > eta + 10 * TOL_PRIMAL * (1.0 + ynorm):
        return solution(c0, "infeasible", 0, np.zeros(p))
    if eta == 0.0:
        basis = evecs[:, ~keep]
        if basis.shape[1] == 0:
            # injective B: the probe point is the only feasible point
            return solution(c0, "converged", 0, in_ball(dual_ls(subgradient(c0))))
    else:
        basis = np.eye(n)

    # cone rows: (t_j, c0_j + Z_j w) per block, then (eta, y - B c) for the ball
    r = basis.shape[1]
    heads = starts + np.arange(nb)
    tails = np.delete(np.arange(n + nb), heads)
    dims = list(lengths + 1)
    G = np.zeros((n + nb, r + nb))
    G[heads, r + np.arange(nb)] = -1.0
    G[tails, :r] = -basis
    h = np.zeros(n + nb)
    h[tails] = c0
    if eta > 0.0:
        G = np.vstack([G, np.zeros((1, r + nb)), np.hstack([B @ basis, np.zeros((p, nb))])])
        # the probe must lie strictly inside the ball: a radius within the
        # infeasibility tolerance of range_dist is widened to admit it
        h = np.concatenate([h, [max(eta, range_dist * (1.0 + 1e-12) + 1e-300)], y - B @ c0])
        dims.append(p + 1)
    norms = _block_norms_flat(c0, starts)
    x = np.concatenate([np.zeros(r), norms + max(float(norms.mean()), np.finfo(float).tiny)])
    cost = np.concatenate([np.zeros(r), np.ones(nb)])

    it, c, nu = 0, c0, np.zeros(p)
    steps = _interior_point(G, h, cost, x, _Cones(dims))
    for it, (x, z) in zip(range(1, max_iters + 1), steps):
        c = c0 + basis @ x[:r]
        nu = in_ball(-z[n + nb + 1:] if eta > 0.0 else dual_ls(-z[tails]))
        if eta == 0.0:
            refined = refine(x[r:], z, nu)
            if refined is not None:
                return solution(refined[0], "converged", it, refined[1])
        if _dual_gap(c, nu, y, eta, starts) <= TOL_GAP:
            if eta == 0.0:
                c = c - pinv(B @ c - y)
            return solution(c, "converged", it, nu)
    # the steps end before max_iters only when rounding stops progress
    return solution(c, "max_iters" if it == max_iters else "stalled", it, nu)


def solve_equality(B: CoefficientOperator, y: np.ndarray, *, max_iters: int = MAX_ITERS) -> RecoverySolution:
    """Minimize the block norm sum subject to B c = y."""
    return _solve(B, y, 0.0, max_iters)


def solve_noisy(B: CoefficientOperator, y: np.ndarray, eta: float, *, max_iters: int = MAX_ITERS) -> RecoverySolution:
    """Minimize the block norm sum subject to ||B c - y||_2 <= eta."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return _solve(B, y, float(eta), max_iters)


def closed_form_orthogonal(y: np.ndarray, a: np.ndarray, collection: SubspaceCollection) -> BlockSignal:
    """Single-measurement decoder for mutually orthogonal subspaces.

    With orthogonal subspaces and one measurement y = sum_j a_j x_j, each
    block is recovered exactly by projecting: x_j = P_j y / a_j, i.e.
    coefficients c_j = U_j^T y / a_j.
    """
    a = np.asarray(a, dtype=float).ravel()
    y = np.asarray(y, dtype=float)
    if a.shape != (collection.size,):
        raise ValueError(f"expected {collection.size} coefficients, got {a.shape}")
    if y.shape != (collection.ambient_dim,):
        raise ValueError(
            f"expected y of length {collection.ambient_dim}, got {y.shape}"
        )
    if collection.size >= 2 and coherence(collection).lambda_ > 1e-10:
        raise NotOrthogonalError("collection is not mutually orthogonal")
    zero = np.nonzero(a == 0.0)[0]
    if zero.size:
        raise ZeroCoefficientError(int(zero[0]))
    coeffs = tuple((u.T @ y) / aj for u, aj in zip(collection.bases, a))
    return BlockSignal(coeffs, collection)


def _stacked_residuals(b_t, gram, bty, y, cols) -> np.ndarray:
    """Least-squares residuals ||B_S c_S - y|| of a stack of supports.

    ``cols`` holds one support's columns per row; ``b_t``, ``gram`` and
    ``bty`` are B^T, B^T B and B^T y. Solves G[S, S] c = (B^T y)[S] through
    one batched eigendecomposition, dropping eigenvalues below n * eps of
    the largest, with one step of iterative refinement as in :func:`_solve`.
    """
    evals, evecs = np.linalg.eigh(gram[cols[:, :, None], cols[:, None, :]])
    keep = evals > cols.shape[1] * np.finfo(float).eps * np.maximum(evals[:, -1:], 0.0)
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=keep)[:, :, None]
    bs_t = b_t[cols]  # the stacked B_S^T

    def gram_pinv(g):
        return evecs @ (inv * (np.swapaxes(evecs, 1, 2) @ g))

    def residual(c):
        return y[:, None] - np.swapaxes(bs_t, 1, 2) @ c

    c = gram_pinv(bty[cols][:, :, None])
    c = c + gram_pinv(bs_t @ residual(c))
    return np.linalg.norm(residual(c)[:, :, 0], axis=1)


def oracle_recover_exhaustive(
    B: CoefficientOperator, y: np.ndarray, s: int
) -> tuple[BlockSignal | None, bool]:
    """Exact sparsest-feasible search by support enumeration.

    Scans supports of size 0, 1, ..., s in lexicographic order and solves a
    least-squares problem on each; a support is accepted when its residual is
    at most 1e-8 * (1 + ||y||). The first cardinality level with an accepted
    support is the winner; ties within the level break toward the smaller
    block norm sum. ``unique`` is True when exactly one support at that level
    fits and its column matrix has full rank.

    Supports go through in chunks on one Gram matrix B^T B: a batched
    residual (:func:`_stacked_residuals`) screens them at _SCREEN_FACTOR
    times the accept tolerance, and each screened support is solved again
    by ``lstsq`` on its columns; that solution decides acceptance and gives
    the estimate.
    """
    y = np.asarray(y, dtype=float)
    n = B.collection.size
    k = B.collection.block_dim
    if math.comb(n, min(s, n)) * max(1, (s * k) ** 3) > 10**9:
        raise TooLargeError("support enumeration would exceed the work guard")
    ynorm = float(np.linalg.norm(y))
    accept_tol = 1e-8 * (1.0 + ynorm)
    if ynorm <= accept_tol:
        return from_coeff_vector(B.collection, np.zeros(B.in_dim)), True
    b_t = np.ascontiguousarray(B.matrix.T)
    gram, bty = b_t @ B.matrix, b_t @ y
    dims = B.block_dims
    for level in range(1, min(s, n) + 1):
        width = int(sum(sorted(dims)[-level:]))
        entries = width * (width + B.out_dim)
        accepted = []
        for chunk in support_chunks(combinations(range(n), level), level, entries):
            screened = []
            for rows, cols in stacked_columns(B.block_starts, dims, chunk):
                fit = _stacked_residuals(b_t, gram, bty, y, cols) <= _SCREEN_FACTOR * accept_tol
                screened += zip(rows[fit], cols[fit])
            for _, cols in sorted(screened, key=lambda pair: pair[0]):
                m_s = B.matrix[:, cols]
                c_s, *_ = np.linalg.lstsq(m_s, y, rcond=None)
                if float(np.linalg.norm(m_s @ c_s - y)) <= accept_tol:
                    accepted.append((cols, c_s, m_s))
        if accepted:
            best = None
            best_norm = math.inf
            for cols, c_s, m_s in accepted:
                vec = np.zeros(B.in_dim)
                vec[cols] = c_s
                n21 = _norm21_flat(vec, B.block_starts)
                if n21 < best_norm - 1e-15:
                    best_norm = n21
                    best = (vec, m_s)
            vec, m_s = best
            unique = len(accepted) == 1 and np.linalg.matrix_rank(m_s) == m_s.shape[1]
            return from_coeff_vector(B.collection, vec), unique
    return None, False


@dataclass(frozen=True)
class CertificateReport:
    """Independently recomputed optimality evidence for a solution."""

    primal_violation: float
    dual_feasibility: float
    duality_gap: float
    primal_ok: bool
    dual_ok: bool
    gap_ok: bool

    @property
    def ok(self) -> bool:
        return self.primal_ok and self.dual_ok and self.gap_ok


def certify(solution: RecoverySolution, B: CoefficientOperator, y: np.ndarray) -> CertificateReport:
    """Recompute feasibility, dual feasibility, and the gap from scratch.

    Uses the residuals the solver reports (:func:`_residuals`) and flags a
    check when it is violated by more than ten times the solver's tolerance
    (``TOL_PRIMAL``, ``TOL_DUAL``, ``TOL_GAP``).
    """
    y = np.asarray(y, dtype=float)
    vec, nu = np.concatenate(solution.estimate.coeffs), solution.dual_vector
    if vec.shape != (B.in_dim,) or nu.shape != (B.out_dim,):
        raise DimMismatchError(f"a solution with {vec.size} coefficients and {nu.size} duals does not fit B")
    violation, dual_feas, gap = _residuals(B, y, solution.eta, vec, nu)
    ynorm = float(np.linalg.norm(y))
    return CertificateReport(
        primal_violation=violation,
        dual_feasibility=dual_feas,
        duality_gap=gap,
        primal_ok=violation <= 10.0 * TOL_PRIMAL * (1.0 + ynorm),
        dual_ok=dual_feas <= 1.0 + 10.0 * TOL_DUAL,
        gap_ok=gap <= 10.0 * TOL_GAP,
    )
