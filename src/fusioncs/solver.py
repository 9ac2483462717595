"""Recovery of block signals by minimizing the sum of block l2 norms.

Two constrained programs over coefficient vectors c (blocks c_j):

    equality:  min sum_j ||c_j||_2   s.t.  B c = y
    ball:      min sum_j ||c_j||_2   s.t.  ||B c - y||_2 <= eta

Each solve reads the operator's dense matrix B, and each distinct operator
is factored once, by one eigendecomposition of B^T B, which gives the
least-squares probe (feasibility and a starting point), the null space
basis Z of B, and every least-squares solve after. An injective B has a single feasible point,
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
at most ``TOL_GAP``, returning the Newton iterate that the test certified,
or after ``max_iters`` Newton steps (default ``MAX_ITERS``). The
tolerances are module constants, which :func:`certify` applies to the same
residuals (:func:`_residuals`). After each equality
step the support is read off primal-dual complementarity: block j is in it
when its cone head t_j exceeds its dual cone's slack z0_j - ||z1_j||. One
rule gives that support S its candidate: c_S is the least-squares fit on
S, or, when S has more coefficients than B has rows (B_S c = y is then
underdetermined, and the minimum-norm fit is not the l2,1 optimum),
``KKT_ITERS`` Newton iterations on the support's optimality system
g_j(c) = B_j^T nu (j in S), B_S c = y from the step's c_S
(:func:`_support_kkt`); the dual is the step's nu projected onto
B_S^T nu = g_S (g the subgradient of c) by one least-squares solve. The
pair is returned when it passes the same test; a wrong support costs one
candidate, never a wrong answer. A solve whose Newton steps rounding stops
early (a singular Newton matrix, or an iterate off the cone interior) ends
as "stalled".

Solves run in stacks, and :func:`solve_many` is their one entry point. It
takes many (B, y, eta) triples, factors B^T B by one product and one
``eigh`` per matrix shape over the distinct operators (:func:`_factor`),
and stacks the programs of one shape (program, block dims, rows and rank
of B). Each stack runs from probe to exit in one function
(:func:`_solve_stack`): the least-squares probe settles each program it
can, and the rest go through one interior-point loop, whose steps find
their duals, complementarity supports and support systems
(:func:`_support_kkt`, per block structure of the support) for the whole
stack; a program leaves the stack at the step that ends it. Every stacked
operation acts slice by slice on stacks whose slices have the layout of
the 2-D arrays they stack (elementwise arithmetic, ``reduceat``, stacked
``matmul``, ``solve`` and ``eigh``), and the 1-D dots and norms, whose
stacked forms round differently, stay per program, as do the ``lstsq``
fits, the stop tests and the solutions. Each solution therefore equals the
solve of its triple alone bit for bit, whatever else the stack holds;
:func:`solve_equality` and :func:`solve_noisy` are stacks of one.

The exhaustive oracle (:func:`oracle_recover_exhaustive`) screens its
supports S by one stacked QR of [B_S | y] per batch, whose residual never
exceeds the least-squares residual on S but for rounding, and decides each
screened support by ``lstsq``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidSparsityError,
    NotOrthogonalError,
    TooLargeError,
    ZeroCoefficientError,
)
from .frames import SubspaceCollection, coherence
from .measurement import CoefficientOperator, stacked_columns, support_chunks, widest_support
from .signals import BlockSignal, coeff_vector, from_coeff_vector

# the oracle's stacked QR residuals screen supports at this multiple of the
# accept tolerance; lstsq on each screened support then decides
_SCREEN_FACTOR = 10.0


# The stopping rule of both programs, which certify applies again at ten
# times each tolerance. TOL_PRIMAL is relative to 1 + ||y||, TOL_DUAL to the
# unit dual ball, and TOL_GAP is absolute at the scale of the objective.
# MAX_ITERS bounds the Newton steps, which take at most 14 (ball program)
# and 6 (equality program) on the shipped sweeps, and 12 on 1,500 random
# equality instances with y scaled by 10^[-3, 3]. KKT_ITERS bounds the
# Newton iterations of one attempt on a support's optimality system.
MAX_ITERS = 100
KKT_ITERS = 4
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
    dual_vector: np.ndarray = field(repr=False)
    eta: float


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
    return np.sqrt(np.add.reduceat(v * v, starts, axis=-1))


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
    """Product of second-order cones {(u0, u1) : ||u1|| <= u0}, acting on a
    stack of vectors of the product, one per row (axis 1 runs along the
    product).

    Each cone occupies a contiguous segment whose first entry is u0.
    """

    def __init__(self, dims):
        self.dims = np.asarray(dims, dtype=int)
        self.heads = np.concatenate([[0], np.cumsum(dims)[:-1]]).astype(int)
        self.e = np.zeros(int(np.sum(dims)))  # identity element
        self.e[self.heads] = 1.0
        self.j = 2.0 * self.e - 1.0  # diagonal of the reflection J = diag(1, -I)
        # heads and J for two vectors of the product stacked end to end
        self.heads2 = np.concatenate([self.heads, self.heads + len(self.e)])
        self.j2 = np.tile(self.j, 2)

    def spread(self, a):
        """Each cone's column of a repeated over the cone's entries.

        The result is C-contiguous whatever the stack's size, as every
        array that reaches BLAS must be: a slice's bits there can depend on
        its strides.
        """
        return np.repeat(a, self.dims, axis=1)

    def dot(self, u, v):
        return np.add.reduceat(u * v, self.heads, axis=1)

    def jdot(self, u, v):
        return self.dot(self.j * u, v)

    def jdot2(self, u, v):
        """jdot per cone of u and v, each two vectors of the product end to end."""
        return np.add.reduceat(self.j2 * u * v, self.heads2, axis=1)

    def prod(self, u, v):
        """Jordan product (u^T v, u0 v1 + v0 u1) per cone."""
        out = self.spread(u[:, self.heads]) * v + self.spread(v[:, self.heads]) * u
        out[:, self.heads] = self.dot(u, v)
        return out

    def div(self, lam, lam_sq, r):
        """The x with lam o x = r, for lam in the interior and lam_sq = jdot(lam, lam)."""
        x0 = self.jdot(lam, r) / lam_sq
        out = (r - self.spread(x0) * lam) / self.spread(lam[:, self.heads])
        out[:, self.heads] = x0
        return out

    def scaling(self, s, z, sz_sq):
        """v and beta of the Nesterov-Todd scaling W = beta (2 v v^T - J), W s = W^-1 z.

        sz_sq is jdot2 of s and z stacked.
        """
        sn, zn = np.split(np.sqrt(sz_sq), 2, axis=1)
        sb, zb = s / self.spread(sn), z / self.spread(zn)
        gamma = np.sqrt(0.5 * (1.0 + self.dot(sb, zb)))
        wb = (zb + self.j * sb) / (2.0 * self.spread(gamma)) + self.e
        return wb / self.spread(np.sqrt(2.0 * wb[:, self.heads])), np.sqrt(zn / sn)

    def scale(self, nt, v):
        """W v for a stack of vectors, or W applied to each column of a stack of matrices."""
        w, beta = nt
        v3 = v.reshape(*v.shape[:2], -1)
        # beta (2 w (w^T v) - J v), in place: products commute bit for bit
        out = self.spread(self.dot(w[:, :, None], v3))
        out *= 2.0 * w[:, :, None]
        out -= self.j[:, None] * v3
        out *= self.spread(beta)[:, :, None]
        return out.reshape(v.shape)

    def max_step(self, uu, u, d):
        """Per row, the largest a with u_i + a d_i in the cone product for both
        stacked pairs.

        u and d each stack two vectors of the product (u in the interior),
        and uu is jdot2(u, u).
        """
        a, b = self.jdot2(d, d) / uu, self.jdot2(u, d) / uu
        root = np.sqrt(np.maximum(b * b - a, 0.0))
        # per cone 1/x for the smallest positive root x of a x^2 + 2 b x + 1,
        # or 0 when there is none; both branches avoid cancellation, and the
        # guarded denominator is positive wherever its branch is taken
        up = b > 0.0
        inv = np.where(b * b < a, 0.0, np.where(up, -a / np.where(up, root + b, 1.0), root - b)).max(axis=1)
        step = np.full(len(inv), math.inf)
        bounded = inv > 0.0
        step[bounded] = 1.0 / inv[bounded]
        return step


def _check_y(op: CoefficientOperator, y, eta=0.0) -> np.ndarray:
    """y as a float vector of op's output length, with y and eta finite."""
    y = np.asarray(y, dtype=float)
    if y.shape != (op.out_dim,):
        raise ValueError(f"expected y of length {op.out_dim}, got shape {y.shape}")
    if not (np.all(np.isfinite(y)) and math.isfinite(eta)):
        raise ValueError("y and eta must be finite")
    return y


def _support_kkt(b_s, y, lengths, c_s):
    """Newton's method on the optimality system of min sum_j ||c_j||
    s.t. B_S c = y, from c_s, for a stack of supports S of one block
    structure (block dims ``lengths``), one support per row of ``b_s``,
    ``y`` and ``c_s``:

        g_j(c) - B_j^T nu = 0 (j in S),   B_S c = y,   g_j = c_j / ||c_j||.

    Its Jacobian is K = [[H, -B_S^T], [B_S, 0]], H = blockdiag((I - g_j
    g_j^T) / ||c_j||). As H c = 0, a Newton step from (c, nu) lands on the
    solution of K (c', nu') = (-g, y), whatever nu, so nu stays inside the
    solves. Each iteration is one stacked solve, solved slice by slice when
    a K is singular (:func:`_newton_solve`). Returns per support c after
    ``KKT_ITERS`` iterations, or None on a zero block, a singular K or a
    non-finite result.
    """
    count, p, w = b_s.shape
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    owner = np.repeat(np.arange(len(lengths)), lengths)
    same = owner[:, None] == owner[None, :]
    diag = np.arange(w)
    kkt = np.zeros((count, w + p, w + p))
    kkt[:, :w, w:] = -np.swapaxes(b_s, 1, 2)
    kkt[:, w:, :w] = b_s
    rhs = np.zeros((count, w + p))
    rhs[:, w:] = y
    # a support whose attempt has ended stays in the stack, and its entry
    # of ``alive`` is cleared; the slices of a stacked solve are independent
    alive = np.ones(count, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(KKT_ITERS):
            norms = _block_norms_flat(c_s, starts)
            alive &= norms.min(axis=1) > 0.0
            inv = 1.0 / norms[:, owner]
            g = c_s * inv
            # H = diag(inv) - same * (g inv) g^T, as its 2-D form rounds it
            hess = kkt[:, :w, :w]
            hess[...] = 0.0
            hess[:, diag, diag] = inv
            hess -= same * ((g * inv)[:, :, None] * g[:, None, :])
            rhs[:, :w] = -g
            sol = _newton_solve(kkt, rhs, alive)
            c_s = sol[:, :w]
    # a diverging attempt is rejected by the finiteness test
    return [row[:w] if ok and np.all(np.isfinite(row)) else None for ok, row in zip(alive.tolist(), sol)]


def _mv(a, v):
    """a_i v_i for a stack of matrices and a stack of vectors."""
    return (a @ v[:, :, None])[:, :, 0]


def _newton_solve(hessian, rhs, ok):
    """The solutions of a stack of Newton systems. One singular system makes
    the stacked solve raise; the stack is then solved slice by slice, and a
    singular slice clears its entry of ``ok`` and gets a zero direction."""
    try:
        return np.linalg.solve(hessian, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(rhs)
    for i, (a, b) in enumerate(zip(hessian, rhs)):
        try:
            out[i] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            ok[i] = False
    return out


class _Stack:
    """The matrices B of programs of one shape and rank, and their factors
    (V_r^T, L_r) of B^T B = V_r L_r V_r^T, one row per program.

    ``np.stack`` keeps the layout of what it stacks, so each slice has the
    layout of a program's own B and V_r^T (both C-contiguous), and every
    vector stack that reaches BLAS is C-contiguous: each product equals the
    2-D product of its slice bit for bit.
    """

    def __init__(self, b, vt=None, l_r=None):
        self.b, self.vt, self.l_r = b, vt, l_r

    def take(self, rows):
        return _Stack(self.b[rows], *(None if f is None else f[rows] for f in (self.vt, self.l_r)))

    def in_ball(self, nu, starts):
        """Each nu scaled into the dual feasible set max_j ||(B^T nu)_j|| <= 1."""
        norms = _block_norms_flat(_mv(np.swapaxes(self.b, 1, 2), nu), starts)
        return nu / np.fmax(1.0, norms.max(axis=1))[:, None]

    def gram_pinv(self, v):
        return _mv(np.swapaxes(self.vt, 1, 2), _mv(self.vt, v) / self.l_r)

    # the minimum-norm least-squares solutions of B c = r and B^T nu = g, each
    # with one step of iterative refinement: the factor of B^T B alone loses
    # accuracy with the square of the condition number of B
    def pinv(self, r):
        bt = np.swapaxes(self.b, 1, 2)
        c = self.gram_pinv(_mv(bt, r))
        return c + self.gram_pinv(_mv(bt, r - _mv(self.b, c)))

    def dual_ls(self, g):
        nu = _mv(self.b, self.gram_pinv(g))
        return nu + _mv(self.b, self.gram_pinv(g - _mv(np.swapaxes(self.b, 1, 2), nu)))


class _Program:
    """One solve: its data, its factor of B^T B (shared by every program on
    the same operator, :func:`_factor`), and the per-program ends of its
    stack's solve (:func:`_solve_stack`): the certificate tests of each
    Newton step, the support refinement and the solution.
    """

    def __init__(self, op: CoefficientOperator, y, eta: float):
        self.op, self.B, self.eta = op, op.matrix, eta
        self.y = _check_y(op, y, eta)
        self.ynorm = float(np.linalg.norm(self.y))
        self.starts = op.block_starts
        self.lengths = np.asarray(op.block_dims, dtype=int)

    def solution(self, vec, status, iters, nu):
        violation, dual_norm, gap = _residuals(self.op, self.y, self.eta, vec, nu)
        if status == "infeasible":
            dual_norm = gap = math.inf
        return RecoverySolution(
            estimate=from_coeff_vector(self.op.collection, vec),
            status=status,
            iterations=iters,
            primal_residual=violation / (1.0 + self.ynorm),
            dual_residual=max(0.0, dual_norm - 1.0),
            duality_gap=gap,
            objective=_norm21_flat(vec, self.starts),
            # a copy: nu may be a row of a stack that must not outlive the solve
            dual_vector=nu.copy(),
            eta=self.eta,
        )

    def in_ball(self, nu):
        """nu scaled into the dual feasible set max_j ||(B^T nu)_j|| <= 1."""
        return _Stack(self.B[None]).in_ball(nu[None], self.starts)[0]

    def subgradient(self, vec):
        norms = np.maximum(_block_norms_flat(vec, self.starts), np.finfo(float).tiny)
        return vec / np.repeat(norms, self.lengths)

    def step(self, c, nu, candidate, it):
        """The solution when Newton step ``it`` (estimate c, dual nu scaled
        into the dual ball) passes the certificate, or None. An equality
        step's support ``candidate`` (:func:`_candidates`) is tried first."""
        self.last = (c, nu)
        if candidate is not None:
            refined = self.refine(*candidate, nu)
            if refined is not None:
                return self.solution(refined[0], "converged", it, refined[1])
        if _dual_gap(c, nu, self.y, self.eta, self.starts) <= TOL_GAP:
            return self.solution(c, "converged", it, nu)
        return None

    def stop(self, status, it):
        """The last Newton step's solution, with the status it stopped at."""
        c, nu = self.last
        return self.solution(c, status, it, nu)

    def refine(self, cols, c_s, nu):
        """The optimum on the support whose columns are ``cols``, if it passes
        the certificate.

        The candidate c_S is the support system's iterate c_s when given,
        else the least-squares fit on S. Either way the candidate dual is
        the step's nu projected onto the optimality equations B_S^T nu =
        g_S, g the subgradient of the candidate, by one least-squares
        solve, then scaled into the dual ball.
        """
        B, y = self.B, self.y
        b_s = B[:, cols]
        if c_s is None:
            c_s = np.linalg.lstsq(b_s, y, rcond=None)[0]
        out = np.zeros(len(cols))
        out[cols] = c_s
        if np.linalg.norm(B @ out - y) > TOL_PRIMAL * (1.0 + self.ynorm):
            return None
        g = self.subgradient(out)[cols]
        cand = self.in_ball(nu + np.linalg.lstsq(b_s.T, g - b_s.T @ nu, rcond=None)[0])
        return (out, cand) if _dual_gap(out, cand, y, self.eta, self.starts) <= TOL_GAP else None


def _factor(progs: list[_Program]) -> None:
    """Give each program the factor of its B^T B = V L V^T: the range part
    (V_r, L_r) and a basis of the null space.

    There is one eigendecomposition per distinct operator, stacked with
    one product B^T B over the operators of one matrix shape. An eigenvalue
    counts as zero at n eps times the largest. V_r and the null basis are
    column selections of V, whose layout the stacks that later hold them
    keep (:class:`_Stack`).
    """
    shapes = {}
    for prog in progs:
        shapes.setdefault(prog.B.shape, {}).setdefault(id(prog.op), []).append(prog)
    for (_, n), by_op in shapes.items():
        b = np.stack([group[0].B for group in by_op.values()])
        evals, evecs = np.linalg.eigh(np.swapaxes(b, 1, 2) @ b)
        keeps = evals > n * np.finfo(float).eps * np.maximum(evals[:, -1:], 0.0)
        for group, w, v, keep in zip(by_op.values(), evals, evecs, keeps):
            l_r, v_r, null = w[keep], v[:, keep], v[:, ~keep]
            for prog in group:
                prog.l_r, prog.v_r, prog.null = l_r, v_r, null


def _candidates(b, ys, lengths, support, c) -> list:
    """The candidate of each equality step of a stack on its support, for
    :meth:`_Program.refine`; ``support`` flags each step's blocks.

    When a support S has more coefficients than B has rows, B_S c = y is
    underdetermined and its minimum-norm fit is not the l2,1 optimum, so
    the candidate is (cols, c_s), c_s Newton's iterate on the support's
    optimality system from the step's c_S (:func:`_support_kkt`, one stack
    per block structure of S), or None when that gives up. Otherwise it is
    (cols, None), for the least-squares fit on S.
    """
    cols = np.repeat(support, lengths, axis=1)
    out = [(row, None) for row in cols]
    wide = {}
    for i in np.flatnonzero(cols.sum(axis=1) > ys.shape[1]).tolist():
        wide.setdefault(tuple(lengths[support[i]].tolist()), []).append(i)
    for dims, rows in wide.items():
        idx = cols[rows].nonzero()[1].reshape(len(rows), -1)
        at = np.array(rows)[:, None]
        # b[at, :, idx] stacks the B_S^T
        fits = _support_kkt(np.swapaxes(b[at, :, idx], 1, 2), ys[rows], np.array(dims), c[at, idx])
        for i, c_s in zip(rows, fits):
            out[i] = None if c_s is None else (cols[i], c_s)
    return out


def _solve_stack(progs: list[_Program], max_iters: int) -> list[RecoverySolution]:
    """Solve a stack of programs of one shape (program, block dims, rows and
    rank of B) from the least-squares probe to the step that ends each.

    The probe c0 = pinv(B) y checks feasibility and gives the starting
    point. It settles a program whose y is out of reach, and every
    equality program of an injective B, whose probe point is the only
    feasible point. The cone program of each other one is min cost^T x
    s.t. G x + s = h, s in the cone product: min sum_j t_j over x = (w, t),
    with rows (t_j, c0_j + Z_j w) per block, then (eta, y - B c) for the
    ball. Each step is a primal-dual Newton step with Nesterov-Todd scaling
    and a Mehrotra corrector that keeps x strictly feasible and G x + s = h.
    The duals of the steps and the equality steps' supports and support
    systems are found for the whole stack; the certificate is tested per
    program. A program leaves the stack at the step that certifies it, the
    step rounding stops (a singular Newton matrix, or an iterate off the
    cone interior: status "stalled", with the previous step's iterate) or
    step ``max_iters``; every stacked array is then compacted to the
    programs that step on.
    """
    first = progs[0]
    (p, n), nb, ball = first.B.shape, len(first.lengths), first.eta > 0.0
    stack = _Stack(np.stack([prog.B for prog in progs]), np.stack([prog.v_r.T for prog in progs]),
                   np.stack([prog.l_r for prog in progs]))
    ys = np.stack([prog.y for prog in progs])
    c0 = stack.pinv(ys)
    residual = _mv(stack.b, c0) - ys
    dist = np.array([float(np.linalg.norm(res)) for res in residual])
    out = [prog.solution(c, "infeasible", 0, np.zeros(p))
           if d > prog.eta + 10 * TOL_PRIMAL * (1.0 + prog.ynorm) else None
           for prog, c, d in zip(progs, c0, dist.tolist())]
    live = np.array([i for i, sol in enumerate(out) if sol is None], dtype=int)
    if len(live) == 0:
        return out
    if len(live) < len(progs):
        stack, ys, c0, residual, dist = stack.take(live), ys[live], c0[live], residual[live], dist[live]
    # the equality program runs over c0 + Z w, the ball program over c0 + w
    r = n if ball else n - stack.l_r.shape[1]
    if ball:  # only the probe reads a ball stack's factor
        stack = _Stack(stack.b)
    if r == 0:
        nus = stack.in_ball(stack.dual_ls(np.stack([progs[i].subgradient(c) for i, c in zip(live, c0)])),
                            first.starts)
        for i, c, nu in zip(live, c0, nus):
            out[i] = progs[i].solution(c, "converged", 0, nu)
        return out
    basis = np.repeat(np.eye(n)[None], len(live), axis=0) if ball else np.stack([progs[i].null for i in live])
    dims = list(first.lengths + 1) + ([p + 1] if ball else [])
    cones = _Cones(dims)
    degree = len(cones.heads)  # of the barrier: one per second-order cone
    # where the blocks' cones (t_j, c_j) hold t_j and c_j in a cone vector
    heads = cones.heads[:nb]
    tails = np.delete(np.arange(n + nb), heads)
    G = np.zeros((len(live), sum(dims), r + nb))
    h = np.zeros(G.shape[:2])
    G[:, heads, r + np.arange(nb)] = -1.0
    G[:, tails, :r] = -basis
    h[:, tails] = c0
    if ball:
        G[:, n + nb + 1:, :r] = stack.b @ basis
        # the probe must lie strictly inside the ball: a radius within the
        # infeasibility tolerance of its distance from y is widened to admit it
        h[:, n + nb] = np.fmax([progs[i].eta for i in live], dist * (1.0 + 1e-12) + 1e-300)
        h[:, n + nb + 1:] = -residual
    norms = _block_norms_flat(c0, first.starts)
    t0 = norms + np.fmax(norms.mean(axis=1), np.finfo(float).tiny)[:, None]
    x = np.concatenate([np.zeros((len(live), r)), t0], axis=1)
    for i, c in zip(live, c0):
        progs[i].last = (c, np.zeros(p))  # (c, nu) of the last Newton step
    cost = np.concatenate([np.zeros(r), np.ones(nb)])
    s = h - _mv(G, x)
    z = np.tile(cones.e, (len(x), 1))
    sz = np.concatenate([s, z], axis=1)
    sz_sq = cones.jdot2(sz, sz)
    for it in range(1, max_iters + 1):
        nt = cones.scaling(s, z, sz_sq)
        lam = cones.scale(nt, s)
        wg = cones.scale(nt, G)
        wgt = np.swapaxes(wg, 1, 2)
        rd = _mv(np.swapaxes(G, 1, 2), z) + cost
        hessian = wgt @ wg
        ok = np.ones(len(x), dtype=bool)

        def direction(q):
            # Newton system G^T W^2 G dx = -rd - (W G)^T q; steps scaled by W
            dx = _newton_solve(hessian, -rd - _mv(wgt, q), ok)
            dz = _mv(wg, dx) + q
            return dx, q - dz, dz

        # ds and dz both step from lam: one stacked ratio test for the pair
        lam2 = np.concatenate([lam, lam], axis=1)
        lam2_sq = cones.jdot2(lam2, lam2)
        dx, ds, dz = direction(-lam)
        alpha = np.minimum(1.0, cones.max_step(lam2_sq, lam2, np.concatenate([ds, dz], axis=1)))
        # Mehrotra: second-order correction and centering at (1 - alpha)^3 mu;
        # the 1-D dots and the powers run per program, as stacked forms of
        # them may round differently
        sigma_mu = [(1.0 - a) ** 3 * (float(si @ zi) / degree) for a, si, zi in zip(alpha.tolist(), s, z)]
        q = cones.div(lam, lam2_sq[:, :degree], np.multiply.outer(sigma_mu, cones.e)
                      - cones.prod(lam, lam) - cones.prod(ds, dz))
        dx, ds, dz = direction(q)
        # stop 1 % short of the cone boundary
        alpha = np.minimum(1.0, 0.99 * cones.max_step(lam2_sq, lam2, np.concatenate([ds, dz], axis=1)))[:, None]
        x = x + alpha * dx
        s = s - alpha * _mv(G, dx)
        z = z + alpha * cones.scale(nt, dz)
        sz = np.concatenate([s, z], axis=1)
        sz_sq = cones.jdot2(sz, sz)
        # rounding may have carried an iterate to the boundary
        ok &= np.all(sz[:, cones.heads2] > 0.0, axis=1) & np.all(sz_sq > 0.0, axis=1)
        c = c0 + _mv(basis, x[:, :r])
        # the duals of the programs that step on: the ball cone (eta, y - B c)
        # comes last, and its multiplier is -nu; an equality step's nu is the
        # least-squares solution of B^T nu = -z1, its support the blocks
        # whose cone head t_j exceeds the slack z0_j - ||z1_j|| of their dual
        # cone (primal-dual complementarity)
        at, yg, xg, zg, cg = (stack, ys, x, z, c) if ok.all() else (
            stack.take(ok), ys[ok], x[ok], z[ok], c[ok])
        if ball:
            nus, cands = at.in_ball(-zg[:, -p:], first.starts), [None] * len(zg)
        else:
            z1 = np.take(zg, tails, axis=1)
            nus = at.in_ball(at.dual_ls(-z1), first.starts)
            support = xg[:, r:] > zg[:, heads] - _block_norms_flat(z1, first.starts)
            cands = _candidates(at.b, yg, first.lengths, support, cg)
        steps = iter(zip(nus, cands))
        for row, i in enumerate(live):
            out[i] = progs[i].step(c[row], *next(steps), it) if ok[row] else progs[i].stop("stalled", it - 1)
        keep = np.array([out[i] is None for i in live])
        if not keep.any():
            break
        if not keep.all():
            live, ys, c0, basis, G, x, s, z, sz_sq = (a[keep] for a in (live, ys, c0, basis, G, x, s, z, sz_sq))
            stack = stack.take(keep)
    return [sol or prog.stop("max_iters", max_iters) for sol, prog in zip(out, progs)]


def solve_many(ops, ys, etas, *, max_iters: int = MAX_ITERS) -> list[RecoverySolution]:
    """Solve the equality program (eta = 0) or the ball program of each
    (B, y, eta) triple: one :class:`RecoverySolution` per input, each equal bit
    for bit to the solution of its triple alone.

    After the zero exits (||y|| <= eta), B^T B is factored once per distinct
    operator (:func:`_factor`). The programs are then stacked once, by
    program, block dims, rows and rank of B, and each stack is solved from
    the least-squares probe to its last exit (:func:`_solve_stack`).
    ``max_iters`` must be a positive integer.
    """
    etas = [float(eta) for eta in etas]
    if any(eta < 0 for eta in etas):
        raise ValueError("eta must be nonnegative")
    try:
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}") from None
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if not len(ops) == len(ys) == len(etas):
        raise ValueError("expected as many operators, y and eta")
    # each entry is a program until its solution replaces it, so a solved
    # stack's programs and factors are not kept; zero is feasible and has
    # minimal objective
    out = [_Program(op, y, eta) for op, y, eta in zip(ops, ys, etas)]
    out = [prog.solution(np.zeros(prog.op.in_dim), "converged", 0, np.zeros(len(prog.y)))
           if prog.ynorm <= prog.eta else prog for prog in out]
    rest = [i for i, prog in enumerate(out) if isinstance(prog, _Program)]
    _factor([out[i] for i in rest])
    stacks = {}
    for i in rest:
        prog = out[i]
        stacks.setdefault((prog.eta > 0.0, tuple(prog.lengths), len(prog.y), len(prog.l_r)), []).append(i)
    for rows in stacks.values():
        for i, sol in zip(rows, _solve_stack([out[i] for i in rows], max_iters)):
            out[i] = sol
    return out


def solve_equality(B: CoefficientOperator, y: np.ndarray, *, max_iters: int = MAX_ITERS) -> RecoverySolution:
    """Minimize the block norm sum subject to B c = y."""
    return solve_many([B], [y], [0.0], max_iters=max_iters)[0]


def solve_noisy(B: CoefficientOperator, y: np.ndarray, eta: float, *, max_iters: int = MAX_ITERS) -> RecoverySolution:
    """Minimize the block norm sum subject to ||B c - y||_2 <= eta."""
    return solve_many([B], [y], [eta], max_iters=max_iters)[0]


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


def _screen_residuals(matrix, y, cols) -> np.ndarray:
    """||R[w:, w]|| of the QR of [B_S | y] for a stack of supports: at most
    the least-squares residual min_c ||B_S c - y|| but for rounding (see
    :func:`oracle_recover_exhaustive`).

    ``cols`` holds one support's w columns of ``matrix`` per row.
    """
    w = cols.shape[1]
    aug = np.empty((len(cols), matrix.shape[0], w + 1))
    aug[:, :, :w] = np.moveaxis(matrix[:, cols], 0, 1)
    aug[:, :, w] = y
    r = np.linalg.qr(aug, mode="r")
    return np.linalg.norm(r[:, w:, w], axis=1)


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

    Supports go through in chunks, screened at _SCREEN_FACTOR times the
    accept tolerance by one stacked Householder QR of [B_S | y] = QR per
    chunk (:func:`_screen_residuals`). For S of w columns, Q's first w
    columns span a space that contains range(B_S), whatever the rank of
    B_S, so ||R[w:, w]|| (|R[w, w]|, or 0 when B has at most w rows) is the
    distance from y to that space: at most the least-squares residual on S
    but for rounding, and no fitting support is screened out. Each screened
    support is solved again by ``lstsq`` on its columns; that solution
    decides acceptance and gives the estimate.
    """
    y = _check_y(B, y)
    if s < 0:
        raise InvalidSparsityError(f"s={s} must be nonnegative")
    n = B.collection.size
    k = B.collection.block_dim
    if math.comb(n, min(s, n)) * max(1, (s * k) ** 3) > 10**9:
        raise TooLargeError("support enumeration would exceed the work guard")
    ynorm = float(np.linalg.norm(y))
    accept_tol = 1e-8 * (1.0 + ynorm)
    if ynorm <= accept_tol:
        return from_coeff_vector(B.collection, np.zeros(B.in_dim)), True
    for level in range(1, min(s, n) + 1):
        width = widest_support(B.block_dims, level)
        accepted = []
        for chunk in support_chunks(combinations(range(n), level), level, B.out_dim * (width + 1)):
            screened = []
            for rows, cols in stacked_columns(B.block_starts, B.block_dims, chunk):
                fit = _screen_residuals(B.matrix, y, cols) <= _SCREEN_FACTOR * accept_tol
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
            unique = bool(len(accepted) == 1 and np.linalg.matrix_rank(m_s) == m_s.shape[1])
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
    (``TOL_PRIMAL``, ``TOL_DUAL``, ``TOL_GAP``). Like the solves and the
    oracle, raises ``ValueError`` unless y is a finite vector of B's output
    length.
    """
    y = _check_y(B, y)
    vec, nu = coeff_vector(solution.estimate), solution.dual_vector
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
