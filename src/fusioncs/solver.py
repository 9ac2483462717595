"""Recovery of block signals by minimizing the sum of block l2 norms.

Two constrained programs over coefficient vectors c (blocks c_j):

    equality:  min sum_j ||c_j||_2   s.t.  B c = y
    ball:      min sum_j ||c_j||_2   s.t.  ||B c - y||_2 <= eta

Each distinct operator's dense matrix B is factored once, by one
eigendecomposition of B^T B, which gives the least-squares probe
(feasibility and a starting point), the null space basis Z of B, and the
least-squares solves after. An injective B has a single feasible point,
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
at most ``TOL_GAP``, with the iterate the test certified, or after
``max_iters`` Newton steps (default ``MAX_ITERS``); :func:`certify`
applies the same tolerances to the same residuals (:func:`_residuals`).
After each equality step the support S is read off complementarity (block
j is in it when its cone head t_j exceeds its dual cone's slack z0_j -
||z1_j||), and S's candidate is returned when it passes the same test
(:func:`_support_exits`): a masked least-squares fit, or, on a support
wider than B, Newton's iterate on the support's optimality system, with
the step's dual projected onto the support's optimality equations through
one masked system. A wrong support costs one attempt, never a wrong
answer. A solve whose Newton steps rounding stops early (a singular Newton
matrix, or an iterate off the cone interior) ends as "stalled".

Solves run in stacks, and :func:`solve_many` is their one entry point. It
factors B^T B by one product and one ``eigh`` per matrix shape over the
distinct operators (:func:`_factor`) and stacks the programs of one shape
(program, k, shape and rank of B). Each stack runs from probe to
exit in :func:`_solve_stack`, and a program leaves it at the step that
ends it. Every step of a stack, its support fits, stop tests and
solutions included, acts on arrays slice by slice, on slices with the
layout of the 2-D arrays they stack: elementwise arithmetic, ``reduceat``,
stacked ``matmul`` (a dot as one BLAS dot per row, :func:`_dots`),
``solve`` and ``eigh``. Each solution therefore equals the solve of its
triple alone bit for bit, whatever else the stack holds;
:func:`solve_equality`, :func:`solve_noisy` and :func:`certify` work on
stacks of one.

The exhaustive oracle (:func:`oracle_recover_exhaustive`) screens y
twice before it solves. One stacked QR of [B_U | y] over a fixed family
of unions U of blocks (:func:`fusioncs.measurement.support_unions`)
clears every union whose residual is far above the accept tolerance, and
with it every support inside any cleared union: the distance from y to
the span of U bounds the distance from y to the span of any S inside U.
The supports S left, read with their columns from the one enumeration of
supports (:func:`fusioncs.measurement.support_chunks`), are screened by
one stacked QR of [B_S | y] per chunk, and each support that passes is
decided by ``lstsq``. Both screens read the residual |R[w, w]|
straight from the Householder array of ``np.linalg.qr(..., mode="raw")``,
and it never exceeds the least-squares residual on S but for rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidSparsityError,
    NotOrthogonalError,
    TooLargeError,
    ZeroCoefficientError,
    is_integer,
)
from .frames import SubspaceCollection, coherence
from .measurement import CoefficientOperator, support_chunks, support_unions
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
# Flat-vector block helpers (blocks of k entries each)
# ---------------------------------------------------------------------------

def _block_norms_flat(v: np.ndarray, k: int) -> np.ndarray:
    return np.sqrt(np.add.reduceat(v * v, np.arange(v.shape[-1] // k) * k, axis=-1))


def _norm21_flat(v: np.ndarray, k: int):
    return _block_norms_flat(v, k).sum(axis=-1)


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i . v_i for two stacks of vectors, one BLAS dot per row: each entry
    has the bits of the 1-D product of its rows, whatever the stack."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    """||v_i|| per row, with the bits of ``np.linalg.norm`` of the row."""
    return np.sqrt(_dots(v, v))


def _dual_gaps(vecs, nus, ys, etas, k) -> np.ndarray:
    """||c||_{2,1} - (<y, nu> - eta ||nu||) per row of a stack, which bounds
    the distance to the optimum when max_j ||(B^T nu)_j|| <= 1."""
    return _norm21_flat(vecs, k) - (_dots(ys, nus) - etas * _norms(nus))


def _residuals(b, ys, etas, vecs, nus, k):
    """Per row of a stack: the primal violation max(0, ||B c - y|| - eta),
    max_j ||(B^T nu)_j|| and the duality gap of c against nu as given."""
    violation = np.fmax(0.0, _norms(_mv(b, vecs) - ys) - etas)
    dual_norm = _block_norms_flat(_mv(np.swapaxes(b, 1, 2), nus), k).max(axis=1)
    return violation, dual_norm, _dual_gaps(vecs, nus, ys, etas, k)


def _subgradients(vecs, k) -> np.ndarray:
    """c_j / ||c_j|| per block of each row, 0 on a zero block."""
    norms = np.maximum(_block_norms_flat(vecs, k), np.finfo(float).tiny)
    return vecs / np.repeat(norms, k, axis=-1)


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


def _support_kkt(b, y, support, k, c):
    """Newton's method on the optimality system of min sum_j ||c_j|| s.t.
    B_S c = y from c, for a stack of supports S (``support`` flags each
    row's blocks, of k coefficients each), each masked to all n coefficients:

        g_j(c) - B_j^T nu = 0 (j in S),   c_j = 0 (j not in S),   B D c = y,

    g_j = c_j / ||c_j||, D the diagonal mask of S's columns. Its Jacobian is
    K = [[H + I - D, -D B^T], [B D, 0]], H = blockdiag over S of (I - g_j
    g_j^T) / ||c_j||; as H c = 0, a Newton step from (c, nu) solves
    K (c', nu') = (-g, y) whatever nu. Returns c after ``KKT_ITERS``
    iterations, and per row whether the attempt held (no zero block of S,
    singular K or non-finite result).
    """
    count, p, n = b.shape
    owner = np.repeat(np.arange(n // k), k)
    same = owner[:, None] == owner[None, :]
    mask = np.repeat(support, k, axis=1).astype(float)
    diag = np.arange(n)
    kkt = np.zeros((count, n + p, n + p))
    kkt[:, n:, :n] = b * mask[:, None, :]
    kkt[:, :n, n:] = -np.swapaxes(kkt[:, n:, :n], 1, 2)
    rhs = np.concatenate([np.zeros((count, n)), y], axis=1)
    c = c * mask
    # a support whose attempt has ended stays in the stack, and its entry
    # of ``alive`` is cleared; the slices of a stacked solve are independent
    alive = np.ones(count, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(KKT_ITERS):
            norms = _block_norms_flat(c, k)
            alive &= np.where(support, norms, np.inf).min(axis=1) > 0.0
            inv = np.where(support, 1.0 / norms, 0.0)[:, owner]
            g = c * inv
            # H + I - D = diag(inv + 1 - D) - same * (g inv) g^T
            hess = kkt[:, :n, :n]
            hess[...] = 0.0
            hess[:, diag, diag] = inv + (1.0 - mask)
            hess -= same * ((g * inv)[:, :, None] * g[:, None, :])
            rhs[:, :n] = -g
            sol = _stacked_solve(kkt, rhs, alive)
            c = sol[:, :n]
    return c * mask, alive & np.isfinite(sol).all(axis=1)  # a diverging attempt fails here


def _mv(a, v):
    """a_i v_i for a stack of matrices and a stack of vectors."""
    return (a @ v[:, :, None])[:, :, 0]


def _stacked_solve(a, rhs, ok):
    """The solutions of a stack of linear systems, for right-hand sides that
    are a stack of vectors (count, n) or of matrices (count, n, k). One
    singular system makes the stacked solve raise; the stack is then solved
    slice by slice, and a singular slice clears its ``ok`` and gets zeros."""
    vectors = rhs.ndim == 2
    if vectors:
        rhs = rhs[:, :, None]
    try:
        out = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        out = np.zeros(rhs.shape)
        for i, (a_i, rhs_i) in enumerate(zip(a, rhs)):
            try:
                out[i] = np.linalg.solve(a_i, rhs_i)
            except np.linalg.LinAlgError:
                ok[i] = False
    return out[:, :, 0] if vectors else out


class _Stack:
    """The data of programs of one shape, one row per program: B, y, eta and
    ||y||, and, once given, the factors (V_r^T, L_r) of B^T B = V_r L_r V_r^T
    and B^T B itself.

    ``np.stack`` keeps the layout of what it stacks, so each slice has the
    layout of a program's own B and V_r^T (both C-contiguous), and every
    vector stack that reaches BLAS is C-contiguous: each product equals the
    2-D product of its slice bit for bit.
    """

    def __init__(self, **arrays):
        self.vt = self.l_r = self.gram = None
        self.__dict__.update(arrays)

    @classmethod
    def of(cls, progs):
        return cls(b=np.stack([prog.B for prog in progs]), y=np.stack([prog.y for prog in progs]),
                   eta=np.array([prog.eta for prog in progs]), ynorm=np.array([prog.ynorm for prog in progs]))

    def take(self, rows):
        return _Stack(**{name: a[rows] for name, a in vars(self).items() if a is not None})

    def in_ball(self, nu, k):
        """Each nu scaled into the dual feasible set max_j ||(B^T nu)_j|| <= 1."""
        norms = _block_norms_flat(_mv(np.swapaxes(self.b, 1, 2), nu), k)
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
    """One solve's data, and its factor of B^T B, shared by every program on
    the same operator (:func:`_factor`)."""

    def __init__(self, op: CoefficientOperator, y, eta: float):
        self.op, self.B, self.eta = op, op.matrix, eta
        self.y = _check_y(op, y, eta)
        self.ynorm = float(np.linalg.norm(self.y))


def _solutions(progs, stack: _Stack, vecs, nus, status: str, iters: int) -> list[RecoverySolution]:
    """The solutions of the programs of a stack's rows, from their estimates
    and duals; the residuals of all come from one :func:`_residuals` call,
    which :func:`certify` makes for a stack of one."""
    k = progs[0].op.collection.block_dim
    violation, dual_norm, gap = _residuals(stack.b, stack.y, stack.eta, vecs, nus, k)
    if status == "infeasible":
        dual_norm = gap = np.full(len(progs), math.inf)
    ends = zip(progs, vecs, nus, (violation / (1.0 + stack.ynorm)).tolist(),
               np.fmax(0.0, dual_norm - 1.0).tolist(), gap.tolist(), _norm21_flat(vecs, k).tolist())
    # nu is copied: it is a row of a stack that must not outlive the solve
    return [RecoverySolution(from_coeff_vector(prog.op.collection, vec), status, iters, primal, dual, g,
                             objective, nu.copy(), prog.eta)
            for prog, vec, nu, primal, dual, g, objective in ends]


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


def _dual_maps(stack: _Stack, mask):
    """Per row, the map P with P r the least-squares, minimum-norm solution
    of B_S^T nu = r_S, S the columns ``mask`` flags and D their diagonal
    mask: B M^-1 D, through the masked n x n system M = D B^T B D + (I - D),
    when S has at most as many columns as B has rows, else (B D B^T)^-1 B D.
    One stacked solve per width; a singular system clears its row's flag."""
    count, p, n = stack.b.shape
    d = mask.astype(float)
    wide = mask.sum(axis=1) > p
    ok = np.ones(count, dtype=bool)
    maps = np.empty((count, p, n))
    rows = np.flatnonzero(~wide)
    if rows.size:
        eye, held = np.eye(n), ok[rows]
        inv = _stacked_solve(np.where(mask[rows, :, None] & mask[rows, None, :], stack.gram[rows], eye),
                             np.broadcast_to(eye, (len(rows), n, n)), held)
        maps[rows], ok[rows] = (stack.b[rows] @ inv) * d[rows, None, :], held
    rows = np.flatnonzero(wide)
    if rows.size:
        b_d, held = stack.b[rows] * d[rows, None, :], ok[rows]
        maps[rows] = _stacked_solve(b_d @ np.swapaxes(stack.b[rows], 1, 2), b_d, held)
        ok[rows] = held
    return maps, ok


def _support_exits(stack: _Stack, k, support, c, nu):
    """The estimate and dual each equality step of a stack tests for its
    exit, and their gap; ``support`` flags each step's support S.

    S's candidate is its least-squares fit P^T y, P its dual map
    (:func:`_dual_maps`), with one refinement step, or, when S has more
    coefficients than B has rows, Newton's iterate on S's optimality
    system (:func:`_support_kkt`). A block fitted below TOL_PRIMAL times the
    largest is rounding, its subgradient noise, and leaves S. The dual is
    nu + P (g - B^T nu), the step's nu projected onto B_S^T nu = g_S (g the
    candidate's subgradient), refined once and scaled into the dual ball.
    The candidate is taken when it fits y to TOL_PRIMAL and passes the gap
    test, else the step's c and nu are.
    """
    mask = np.repeat(support, k, axis=1)
    bt = np.swapaxes(stack.b, 1, 2)
    with np.errstate(all="ignore"):
        maps, ok = _dual_maps(stack, mask)
        lsq = np.swapaxes(maps, 1, 2)
        fit = _mv(lsq, stack.y)
        fit += _mv(lsq, stack.y - _mv(stack.b, fit))
        rows = np.flatnonzero(mask.sum(axis=1) > stack.b.shape[1])
        if rows.size:
            fit[rows], fitted = _support_kkt(stack.b[rows], stack.y[rows], support[rows], k, c[rows])
            ok[rows] &= fitted
        norms = _block_norms_flat(fit, k)
        kept = support & (norms > TOL_PRIMAL * norms.max(axis=1, keepdims=True))
        rows = np.flatnonzero((kept != support).any(axis=1))
        if rows.size:
            mask[rows] = np.repeat(kept[rows], k, axis=1)
            maps[rows], held = _dual_maps(stack.take(rows), mask[rows])
            ok[rows] &= held
        fit *= mask
        ok &= _norms(_mv(stack.b, fit) - stack.y) <= TOL_PRIMAL * (1.0 + stack.ynorm)
        r = mask * (_subgradients(fit, k) - _mv(bt, nu))
        step = _mv(maps, r)
        cand = stack.in_ball(nu + step + _mv(maps, r - _mv(bt, step)), k)
        cand_gap = _dual_gaps(fit, cand, stack.y, stack.eta, k)
    take = ok & (cand_gap <= TOL_GAP)
    gap = np.where(take, cand_gap, _dual_gaps(c, nu, stack.y, stack.eta, k))
    return np.where(take[:, None], fit, c), np.where(take[:, None], cand, nu), gap


def _solve_stack(progs: list[_Program], max_iters: int) -> list[RecoverySolution]:
    """Solve a stack of programs of one shape (program, k, shape and rank of
    B) from the least-squares probe to the step that ends each.

    The probe c0 = pinv(B) y settles a program whose y is out of reach, and
    every equality program of an injective B, whose probe point is the only
    feasible point. The cone program of each other one is min cost^T x
    s.t. G x + s = h, s in the cone product: min sum_j t_j over x = (w, t),
    with rows (t_j, c0_j + Z_j w) per block, then (eta, y - B c) for the
    ball. Each step is a primal-dual Newton step with Nesterov-Todd scaling
    and a Mehrotra corrector that keeps x strictly feasible and G x + s = h.
    A program leaves the stack at the step that certifies it, the step
    rounding stops (a singular Newton matrix, or an iterate off the cone
    interior: "stalled", with the previous step's iterate) or step
    ``max_iters``; the stack is then compacted to the programs that step on.
    """
    first = progs[0]
    (p, n), k, ball = first.B.shape, first.op.collection.block_dim, first.eta > 0.0
    nb = n // k
    stack = _Stack.of(progs)
    stack.vt, stack.l_r = np.stack([prog.v_r.T for prog in progs]), np.stack([prog.l_r for prog in progs])
    out = [None] * len(progs)
    live = np.arange(len(progs))

    def leave(rows, vecs, nus, status, iters):
        # the programs of the live rows flagged by ``rows`` end here
        ended = live[rows].tolist()
        for i, sol in zip(ended, _solutions([progs[i] for i in ended], stack.take(rows), vecs, nus, status, iters)):
            out[i] = sol

    c0 = stack.pinv(stack.y)
    residual = _mv(stack.b, c0) - stack.y
    dist = _norms(residual)
    infeasible = dist > stack.eta + 10 * TOL_PRIMAL * (1.0 + stack.ynorm)
    if infeasible.any():
        leave(infeasible, c0[infeasible], np.zeros((int(infeasible.sum()), p)), "infeasible", 0)
        if infeasible.all():
            return out
        keep = ~infeasible
        live, stack, c0, residual, dist = live[keep], stack.take(keep), c0[keep], residual[keep], dist[keep]
    # the equality program runs over c0 + Z w, the ball program over c0 + w
    r = n if ball else n - stack.l_r.shape[1]
    if r == 0:
        nus = stack.in_ball(stack.dual_ls(_subgradients(c0, k)), k)
        leave(np.ones(len(live), dtype=bool), c0, nus, "converged", 0)
        return out
    if ball:  # only the probe reads a ball stack's factor
        stack.vt = stack.l_r = None
    else:  # the support fits read B^T B
        stack.gram = np.swapaxes(stack.b, 1, 2) @ stack.b
    basis = np.repeat(np.eye(n)[None], len(live), axis=0) if ball else np.stack([progs[i].null for i in live])
    dims = [k + 1] * nb + ([p + 1] if ball else [])
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
        h[:, n + nb] = np.fmax(stack.eta, dist * (1.0 + 1e-12) + 1e-300)
        h[:, n + nb + 1:] = -residual
    norms = _block_norms_flat(c0, k)
    t0 = norms + np.fmax(norms.mean(axis=1), np.finfo(float).tiny)[:, None]
    x = np.concatenate([np.zeros((len(live), r)), t0], axis=1)
    # the estimate and dual of each program's last Newton step
    last_c, last_nu = c0, np.zeros((len(live), p))
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
            dx = _stacked_solve(hessian, -rd - _mv(wgt, q), ok)
            dz = _mv(wg, dx) + q
            return dx, q - dz, dz

        # ds and dz both step from lam: one stacked ratio test for the pair
        lam2 = np.concatenate([lam, lam], axis=1)
        lam2_sq = cones.jdot2(lam2, lam2)
        dx, ds, dz = direction(-lam)
        alpha = np.minimum(1.0, cones.max_step(lam2_sq, lam2, np.concatenate([ds, dz], axis=1)))
        # Mehrotra: second-order correction and centering at (1 - alpha)^3 mu;
        # the powers run per program, as a stacked power may round differently
        mu = _dots(s, z) / degree
        sigma_mu = [(1.0 - a) ** 3 * m for a, m in zip(alpha.tolist(), mu.tolist())]
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
        if not ok.all():
            leave(~ok, last_c[~ok], last_nu[~ok], "stalled", it - 1)
        # the duals of the programs that step on: the ball cone (eta, y - B c)
        # comes last, and its multiplier is -nu; an equality step's nu is the
        # least-squares solution of B^T nu = -z1, its support the blocks
        # whose cone head t_j exceeds the slack z0_j - ||z1_j|| of their dual
        # cone (primal-dual complementarity)
        at, xg, zg, cg = (stack, x, z, c) if ok.all() else (stack.take(ok), x[ok], z[ok], c[ok])
        if ball:
            nus = at.in_ball(-zg[:, -p:], k)
            vecs, duals, gap = cg, nus, _dual_gaps(cg, nus, at.y, at.eta, k)
        else:
            z1 = np.take(zg, tails, axis=1)
            nus = at.in_ball(at.dual_ls(-z1), k)
            support = xg[:, r:] > zg[:, heads] - _block_norms_flat(z1, k)
            vecs, duals, gap = _support_exits(at, k, support, cg, nus)
        done = gap <= TOL_GAP
        keep = ok.copy()
        keep[ok] = ~done
        if done.any():
            leave(ok & ~keep, vecs[done], duals[done], "converged", it)
        last_c, last_nu = cg[~done], nus[~done]
        if not keep.all():
            live, c0, basis, G, x, s, z, sz_sq = (a[keep] for a in (live, c0, basis, G, x, s, z, sz_sq))
            stack = stack.take(keep)
        if len(live) == 0:
            return out
    leave(np.ones(len(live), dtype=bool), last_c, last_nu, "max_iters", max_iters)
    return out


def solve_many(ops, ys, etas, *, max_iters: int = MAX_ITERS) -> list[RecoverySolution]:
    """Solve the equality program (eta = 0) or the ball program of each
    (B, y, eta) triple: one :class:`RecoverySolution` per input, each equal bit
    for bit to the solution of its triple alone.

    After the zero exits (||y|| <= eta), B^T B is factored once per distinct
    operator (:func:`_factor`). The programs are then stacked once, by
    program, k, shape and rank of B, and each stack is solved from
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
    out = [_solutions([prog], _Stack.of([prog]), np.zeros((1, prog.op.in_dim)), np.zeros((1, len(prog.y))),
                      "converged", 0)[0] if prog.ynorm <= prog.eta else prog for prog in out]
    rest = [i for i, prog in enumerate(out) if isinstance(prog, _Program)]
    _factor([out[i] for i in rest])
    stacks = {}
    for i in rest:
        prog = out[i]
        stacks.setdefault((prog.eta > 0.0, prog.op.collection.block_dim, prog.B.shape, len(prog.l_r)), []).append(i)
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
    """||R[w:, w]|| of the QR of [B_S | y] for a stack of column sets S,
    supports or unions of blocks: the distance from y to a space that
    contains range(B_S), so at most the least-squares residual
    min_c ||B_S c - y|| on S or on any support inside S, but for rounding
    (see :func:`oracle_recover_exhaustive`).

    ``cols`` holds one set's w columns of ``matrix`` per row. R is read
    from the Householder array h of ``mode="raw"``, whose lower triangle
    holds R^T (the same LAPACK ``geqrf`` as ``mode="r"``, without the
    ``triu`` copy): h[w, w] = R[w, w] when B has more than w rows, nothing
    otherwise.
    """
    w = cols.shape[1]
    aug = np.empty((len(cols), matrix.shape[0], w + 1))
    aug[:, :, :w] = np.moveaxis(matrix[:, cols], 0, 1)
    aug[:, :, w] = y
    h, _ = np.linalg.qr(aug, mode="raw")
    return np.linalg.norm(h[:, w, w:w + 1], axis=1)


def oracle_recover_exhaustive(
    B: CoefficientOperator, y: np.ndarray, s: int
) -> tuple[BlockSignal | None, bool]:
    """Exact sparsest-feasible search by support enumeration.

    Scans supports of size 0, 1, ..., min(s, N) in lexicographic order; a
    support is accepted when its least-squares residual is at most
    1e-8 * (1 + ||y||). The first cardinality level with an accepted
    support is the winner; ties within the level break toward the smaller
    block norm sum. ``unique`` is True when exactly one support at that level
    fits and its column matrix has full rank.

    Each support passes up to three tests, in order, and leaves at the
    first it fails; the first two screen at _SCREEN_FACTOR times the
    accept tolerance. (1) Its unions: before the levels, one stacked QR of
    [B_U | y] screens the unions U of
    :func:`fusioncs.measurement.support_unions`, and a support that lies
    inside any cleared union leaves, by one containment test per chunk.
    (2) Its own QR: the supports left go through in the chunks of their
    level (:func:`fusioncs.measurement.support_chunks`), screened by one
    stacked Householder QR of [B_S | y] = QR per chunk
    (:func:`_screen_residuals`). (3) ``lstsq`` on its columns, whose
    residual decides acceptance and whose solution is the estimate.

    For S of w columns, Q's first w columns span a space that contains
    range(B_S), whatever the rank of B_S, so ||R[w:, w]|| (|R[w, w]|, or 0
    when B has at most w rows) is the distance from y to that space: at
    most the least-squares residual on S but for rounding. A union U of
    w_U columns that holds S has Q's first w_U columns spanning a space
    that contains range(B_S) too, so |R_U[w_U, w_U]| bounds S's residual
    the same way, and a rank-deficient union only lowers it. Neither
    screen rules out a fitting support, so the accepted set, and every
    output bit, is that of ``lstsq`` on every support. R[w, w] is read in
    place from the raw Householder array, the output of the same LAPACK
    ``geqrf`` that ``mode="r"`` copies out, so the screen has the same
    bits.

    Raises InvalidSparsityError unless s is a nonnegative integer, and
    TooLargeError when the sum over the levels l of comb(N, l) * (l k)^3
    exceeds 10^9.
    """
    y = _check_y(B, y)
    if not is_integer(s):
        raise InvalidSparsityError(f"s={s!r} must be an integer")
    if s < 0:
        raise InvalidSparsityError(f"s={s} must be nonnegative")
    n = B.collection.size
    k = B.collection.block_dim
    s = min(s, n)
    work = accumulate(math.comb(n, level) * (level * k) ** 3 for level in range(1, s + 1))
    if any(w > 10**9 for w in work):
        raise TooLargeError("support enumeration would exceed the work guard")
    ynorm = float(np.linalg.norm(y))
    accept_tol = 1e-8 * (1.0 + ynorm)
    if ynorm <= accept_tol:
        return from_coeff_vector(B.collection, np.zeros(B.in_dim)), True
    union_cols, masks = support_unions(n, k, s, B.out_dim)
    cleared = masks[_screen_residuals(B.matrix, y, union_cols) > _SCREEN_FACTOR * accept_tol]
    # row j of words holds one bit per cleared union, set when block j is
    # in it, so the AND of a support's rows keeps the unions that hold it
    bits = np.hstack([cleared.T, np.zeros((n, -len(cleared) % 64), dtype=bool)])
    words = np.packbits(bits, axis=1).view(np.uint64)
    for level in range(1, s + 1):
        accepted = []
        for chunk, chunk_cols in support_chunks(n, k, level, B.out_dim * (level * k + 1)):
            # a support inside any cleared union leaves
            chunk_cols = chunk_cols[~np.bitwise_and.reduce(words[chunk], axis=1).any(axis=1)]
            if not len(chunk_cols):
                continue
            fit = _screen_residuals(B.matrix, y, chunk_cols) <= _SCREEN_FACTOR * accept_tol
            for cols in chunk_cols[fit]:
                m_s = B.matrix[:, cols]
                c_s, *_ = np.linalg.lstsq(m_s, y, rcond=None)
                if float(np.linalg.norm(m_s @ c_s - y)) <= accept_tol:
                    vec = np.zeros(B.in_dim)
                    vec[cols] = c_s
                    accepted.append((_norm21_flat(vec, k), vec, m_s))
        if accepted:
            best = accepted[0]
            for candidate in accepted[1:]:
                if candidate[0] < best[0] - 1e-15:
                    best = candidate
            _, vec, m_s = best
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
    violation, dual_feas, gap = (float(v[0]) for v in _residuals(
        B.matrix[None], y[None], np.array([solution.eta]), vec[None], nu[None], B.collection.block_dim))
    ynorm = float(np.linalg.norm(y))
    return CertificateReport(
        primal_violation=violation,
        dual_feasibility=dual_feas,
        duality_gap=gap,
        primal_ok=violation <= 10.0 * TOL_PRIMAL * (1.0 + ynorm),
        dual_ok=dual_feas <= 1.0 + 10.0 * TOL_DUAL,
        gap_ok=gap <= 10.0 * TOL_GAP,
    )
