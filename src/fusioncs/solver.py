"""Recovery of block signals by minimizing the sum of block l2 norms.

Two constrained programs over coefficient vectors c (blocks c_j):

    equality:  min sum_j ||c_j||_2   s.t.  B c = y
    ball:      min sum_j ||c_j||_2   s.t.  ||B c - y||_2 <= eta

Each distinct operator's dense matrix B is factored once, by one thin SVD
B = U_r S_r V_r^T (rank r), which gives the least-squares probe
c0 = V_r S_r^-1 U_r^T y (feasibility and a starting point) and every
variable the programs run on. Each program is solved on y / ||y|| and
eta / ||y||, and its estimate rescaled on return. An injective B has a
single feasible point, certified without iterating. Otherwise both
programs run as second-order cone programs, by a primal-dual
interior-point method with Nesterov-Todd scaling and a Mehrotra corrector
that keeps every iterate strictly feasible:

- the equality program in its row-space dual, max <c0, g> over
  g = V_r a with ||g_j||_2 <= 1, whose start a = 0 is exactly centred. The
  block cones' multipliers give the estimate, moved onto B c = y, and
  nu = U_r S_r^-1 a is a dual vector with B^T nu = g;
- the ball program in its primal form, min sum_j t_j s.t. ||c_j|| <= t_j
  and ||S_r V_r^T c - U_r^T y||_2 <= radius: with y_perp the part of y
  outside the range of U_r, ||B c - y||^2 = ||S_r V_r^T c - U_r^T y||^2 +
  ||y_perp||^2, so radius = sqrt(eta^2 - ||y_perp||^2), and the data cone
  has r + 1 entries. From its multiplier (z0, z1), nu = (z0 / radius)
  y_perp - U_r z1.

Scaled into max_j ||(B^T nu)_j|| <= 1, nu bounds the distance to the
optimum by the gap ||c||_{2,1} - (<y, nu> - eta ||nu||). One rule accepts
every point, on the program's own y and eta (:func:`_checks` of
:func:`_residuals`): the primal violation max(0, ||B c - y|| - eta) at most
f ``TOL_PRIMAL`` ||y||, max_j ||(B^T nu)_j|| at most 1 + f ``TOL_DUAL`` and
the gap at most f ``TOL_GAP`` ||y||, with f = 1 for the stop test and
f = 10 for :func:`certify`. A solve stops at the first Newton iterate that
passes, or after ``max_iters`` steps (default ``MAX_ITERS``); a probe that
fails the primal check is infeasible, since no iterate can pass it. An
equality program that passes makes one support exit attempt
(:func:`_support_exits`): the least-squares fit on the support that
complementarity ranks first, with the step's dual projected onto the
support's optimality equations through one masked system, returned when
it passes the same test. A wrong support costs one attempt, never a wrong
answer. A solve whose Newton steps rounding stops early (a singular
Newton matrix, or an iterate off the cone interior) ends as "stalled".

Solves run in stacks, and :func:`solve_many` is their one entry point. It
factors the distinct operators by one stacked SVD per matrix shape
(:func:`_factor`) and builds one :class:`_Stack` per program, k, shape
and rank of B straight from the SVD's arrays. Each stack runs from probe
to exit in :func:`_solve_stack`, and a program leaves it at the step that
ends it. Every step of a stack, its support fits, stop tests and
solutions included, acts on arrays slice by slice, on slices with the
layout of the 2-D arrays they stack: elementwise arithmetic, ``reduceat``,
stacked ``matmul`` (a dot as one BLAS dot per row, :func:`_dots`),
``solve`` and ``svd``. Each solution therefore equals the solve of its
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
import numbers
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


# The tolerances of the one acceptance rule (:func:`_checks`), relative to
# ||y|| (each program runs on y / ||y|| and eta / ||y||): a Newton iterate or
# support fit stops its solve when it passes them as they stand, and
# certify applies them at ten times each. MAX_ITERS bounds the Newton
# steps, which take at most 13 (ball program, on criterion 9's sweep) and
# 11 (equality program, on the phase_mixed benchmark sweep) on the shipped
# sweeps, and 13 on 1,500 random equality instances with y scaled by
# 10^[-3, 3].
MAX_ITERS = 100
TOL_PRIMAL = 1e-9
TOL_DUAL = 1e-9
TOL_GAP = 1e-7


@dataclass(frozen=True)
class RecoverySolution:
    estimate: BlockSignal
    status: str  # "converged" | "max_iters" | "stalled" (rounding stopped progress) | "infeasible"
    iterations: int  # interior-point Newton steps
    primal_residual: float  # max(0, ||B c - y|| - eta) / ||y||
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


def _residuals(b, ys, etas, vecs, nus, k):
    """Per row of a stack: the primal violation max(0, ||B c - y|| - eta),
    max_j ||(B^T nu)_j|| and the duality gap ||c||_{2,1} - (<y, nu> - eta
    ||nu||) of c against nu as given, which bounds the distance to the
    optimum when max_j ||(B^T nu)_j|| <= 1."""
    violation = np.fmax(0.0, _norms(_mv(b, vecs) - ys) - etas)
    dual_norm = _block_norms_flat(_mv(b.swapaxes(1, 2), nus), k).max(axis=1)
    return violation, dual_norm, _norm21_flat(vecs, k) - (_dots(ys, nus) - etas * _norms(nus))


def _checks(violation, dual_norm, gap, ynorm, factor=1.0):
    """The primal, dual and gap checks of :func:`_residuals`: the stop test
    at factor 1, :func:`certify` at factor 10."""
    return (violation <= factor * TOL_PRIMAL * ynorm, dual_norm <= 1.0 + factor * TOL_DUAL,
            gap <= factor * TOL_GAP * ynorm)


def _subgradients(vecs, k) -> np.ndarray:
    """c_j / ||c_j|| per block of each row, 0 on a zero block."""
    norms = np.maximum(_block_norms_flat(vecs, k), np.finfo(float).tiny)
    return vecs / norms.repeat(k, axis=-1)


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
        return a.repeat(self.dims, axis=1)

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
        root = np.sqrt(sz_sq)
        sn, zn = root[:, :len(self.heads)], root[:, len(self.heads):]
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
    """The data of programs of one shape, one row per program: B, y, eta,
    ||y||, the factor B = U_r S_r V_r^T of :func:`_factor` as u = U_r,
    sigma = diag(S_r) and vt = V_r^T, and idx, the program's position among
    the inputs of :func:`solve_many`; a ball stack adds y_perp and the
    radius of its data cone (:func:`_solve_stack`).

    ``np.stack`` and ``np.concatenate`` keep the layout of what they stack,
    so each slice has the layout of a program's own B, U_r and V_r^T (all
    C-contiguous), and every vector stack that reaches BLAS is C-contiguous:
    each product equals the 2-D product of its slice bit for bit.
    """

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    @classmethod
    def join(cls, stacks):
        return cls(**{name: np.concatenate([vars(s)[name] for s in stacks]) for name in vars(stacks[0])})

    def take(self, rows):
        return _Stack(**{name: a[rows] for name, a in vars(self).items()})

    def unit(self):
        """y / ||y|| and eta / ||y||, the data each program is solved on."""
        return self.y / self.ynorm[:, None], self.eta / self.ynorm

    def in_ball(self, nu, k):
        """Each nu scaled into the dual feasible set max_j ||(B^T nu)_j|| <= 1."""
        norms = _block_norms_flat(_mv(self.b.swapaxes(1, 2), nu), k)
        return nu / np.fmax(1.0, norms.max(axis=1))[:, None]

    def stops(self, vecs, nus, k):
        """Per row, whether the estimate ||y|| vecs (vecs at unit scale) and
        the dual nus pass every check of the stop test (:func:`_checks`) on
        the program's own y and eta."""
        primal, dual, gap = _checks(*_residuals(self.b, self.y, self.eta, vecs * self.ynorm[:, None], nus, k),
                                    self.ynorm)
        return primal & dual & gap


def _solutions(stack: _Stack, ops, k, vecs, nus, status: str, iters) -> list:
    """(idx, solution) for each program of a stack, from its estimate at
    unit scale, which is rescaled here by ||y||, its dual and its Newton
    steps (one count, or one per program); the residuals of all come from
    one :func:`_residuals` call, which :func:`certify` makes for a stack of
    one."""
    vecs = vecs * stack.ynorm[:, None]
    violation, dual_norm, gap = _residuals(stack.b, stack.y, stack.eta, vecs, nus, k)
    if status == "infeasible":
        dual_norm = gap = np.full(len(vecs), math.inf)
    # y = 0 only at a zero exit, whose violation is 0
    ends = zip(stack.idx.tolist(), vecs, nus, np.broadcast_to(iters, len(vecs)).tolist(),
               (violation / np.fmax(stack.ynorm, np.finfo(float).tiny)).tolist(),
               np.fmax(0.0, dual_norm - 1.0).tolist(), gap.tolist(), _norm21_flat(vecs, k).tolist(),
               stack.eta.tolist())
    # nu is copied: it is a row of a stack that must not outlive the solve
    return [(i, RecoverySolution(from_coeff_vector(ops[i].collection, vec), status, steps, primal, dual, g,
                                 objective, nu.copy(), eta))
            for i, vec, nu, steps, primal, dual, g, objective, eta in ends]


def _factor(mats):
    """(u, sigma, vt, ranks): one stacked thin SVD of a stack of matrices of
    one shape, and the rank of each, a singular value counting as zero at
    max(p, n) eps times the largest, as ``np.linalg.matrix_rank`` counts.
    A matrix's factor B = U_r S_r V_r^T is U_r = u[:, :r], S_r = sigma[:r]
    and V_r^T = vt[:r], whose layout the stacks that hold them keep
    (:class:`_Stack`)."""
    u, sigma, vt = np.linalg.svd(mats, full_matrices=False)
    return u, sigma, vt, np.count_nonzero(sigma > max(mats.shape[1:]) * np.finfo(float).eps * sigma[:, :1], axis=1)


def _dual_maps(b, mask):
    """Per row, the map P with P r the least-squares, minimum-norm solution
    of B_S^T nu = r_S, S the columns ``mask`` flags (at most as many as B
    has rows) and D their diagonal mask: B M^-1 D, through the masked n x n
    system M = D B^T B D + (I - D). One stacked solve; a singular system
    clears its row's flag."""
    count, _, n = b.shape
    eye, ok = np.eye(n), np.ones(count, dtype=bool)
    inv = _stacked_solve(np.where(mask[:, :, None] & mask[:, None, :], b.swapaxes(1, 2) @ b, eye),
                         np.broadcast_to(eye, (count, n, n)), ok)
    return (b @ inv) * mask[:, None, :], ok


def _support_exits(stack: _Stack, k, support, c, nu):
    """The estimate and dual that each equality program of a stack leaves
    with, at the step whose stop test first passes; ``support`` flags
    the step's support S, c and nu are its iterate.

    S, of at most rank(B) coefficients, has the candidate P^T y, its
    least-squares fit at unit scale, P its dual map (:func:`_dual_maps`),
    with one refinement step. A block fitted below TOL_PRIMAL times the
    largest is rounding, its subgradient noise, and leaves S. The dual is
    nu + P (g - B^T nu), the step's nu projected onto B_S^T nu = g_S (g the
    candidate's subgradient), refined once and scaled into the dual ball.
    The candidate is taken when it passes the stop test, primal check
    included, else the step's c and nu are.
    """
    mask = support.repeat(k, axis=1)
    bt = stack.b.swapaxes(1, 2)
    with np.errstate(all="ignore"):
        maps, ok = _dual_maps(stack.b, mask)
        lsq = maps.swapaxes(1, 2)
        y, _ = stack.unit()
        fit = _mv(lsq, y)
        fit += _mv(lsq, y - _mv(stack.b, fit))
        norms = _block_norms_flat(fit, k)
        kept = support & (norms > TOL_PRIMAL * norms.max(axis=1, keepdims=True))
        rows = np.flatnonzero((kept != support).any(axis=1))
        if rows.size:
            mask[rows] = kept[rows].repeat(k, axis=1)
            maps[rows], held = _dual_maps(stack.b[rows], mask[rows])
            ok[rows] &= held
        fit *= mask
        r = mask * (_subgradients(fit, k) - _mv(bt, nu))
        step = _mv(maps, r)
        cand = stack.in_ball(nu + step + _mv(maps, r - _mv(bt, step)), k)
        take = ok & stack.stops(fit, cand, k)
    return np.where(take[:, None], fit, c), np.where(take[:, None], cand, nu)


def _solve_stack(stack: _Stack, ops, ball: bool, k: int, max_iters: int) -> list:
    """Solve a stack of programs of one shape (program, k, shape and rank of
    B) at unit scale, from the least-squares probe to the step that ends
    each, and return (idx, solution) for each.

    The probe c0 = V_r S_r^-1 U_r^T y settles a program whose y is out of
    reach, and every equality program of an injective B, whose probe point
    is the only feasible point. Each other program is a cone program
    min cost^T x s.t. G x + s = h, s in the cone product, solved by
    primal-dual Newton steps with Nesterov-Todd scaling and a Mehrotra
    corrector that keep x strictly feasible and G x + s = h:

    - the equality program in its row-space dual, max <c0, V_r a> s.t.
      ||(V_r a)_j|| <= 1, over x = a with one cone (1, (V_r a)_j) per block,
      started at a = 0, where s = z = e. Its iterate is c = -z1 (the block
      cones' multipliers) moved onto c0 + null(B) by c + V_r V_r^T (c0 - c),
      and nu = U_r S_r^-1 a, scaled into the dual ball;
    - the ball program in its primal form, min sum_j t_j over x = (w, t),
      with cones (t_j, c0_j + w_j) per block and the data cone (radius,
      U_r^T y - S_r V_r^T c) last.

    Every step ends with one stop test (:meth:`_Stack.stops`), the rule
    :func:`certify` applies at ten times each tolerance. A program leaves
    at the step whose iterate passes it, at the step rounding stops (a
    singular Newton matrix, or an iterate off the cone interior: "stalled",
    with the previous step's iterate) or at step ``max_iters``, solved from
    ``stack.take`` of its rows; the stack is then compacted to the programs
    that step on. The equality programs that passed keep their stack rows
    for one support exit call (:func:`_support_exits`) once the stack is
    done.
    """
    p, n = stack.b.shape[1:]
    nb = n // k
    out = []
    y, eta = stack.unit()
    c0 = _mv(stack.vt.swapaxes(1, 2), _mv(stack.u.swapaxes(1, 2), y) / stack.sigma)
    # the probe is the point nearest y: when it fails the stop test's primal
    # check, so does every iterate
    infeasible = _norms(_mv(stack.b, c0) - y) > eta + TOL_PRIMAL
    if infeasible.any():
        out += _solutions(stack.take(infeasible), ops, k, c0[infeasible], np.zeros((int(infeasible.sum()), p)),
                          "infeasible", 0)
        if infeasible.all():
            return out
        keep = ~infeasible
        stack, c0, y, eta = stack.take(keep), c0[keep], y[keep], eta[keep]
    rank = stack.sigma.shape[1]
    if not ball and rank == n:
        # the least-squares nu of B^T nu = g, g the probe's subgradient
        nus = _mv(stack.u, _mv(stack.vt, _subgradients(c0, k)) / stack.sigma)
        return out + _solutions(stack, ops, k, c0, stack.in_ball(nus, k), "converged", 0)
    count = len(c0)
    # where the blocks' cones (t_j, c_j) hold t_j and c_j in a cone vector
    dims = [k + 1] * nb + ([rank + 1] if ball else [])
    cones = _Cones(dims)
    degree = len(cones.heads)  # of the barrier: one per second-order cone
    heads = cones.heads[:nb]
    tails = np.delete(np.arange(n + nb), heads)
    if ball:
        # the data cone (radius, U_r^T y - S_r V_r^T c), as ||B c - y||^2 =
        # ||S_r V_r^T c - U_r^T y||^2 + ||y_perp||^2; y_perp is projected
        # twice, so that U_r^T y_perp is rounding of ||y_perp||, not of
        # ||y||: nu carries y_perp times z0 / radius, which a radius near
        # zero makes large, and B^T nu must stay at rounding
        ut = stack.u.swapaxes(1, 2)
        uty = _mv(ut, y)
        y_perp = y - _mv(stack.u, uty)
        stack.y_perp = y_perp - _mv(stack.u, _mv(ut, y_perp))
        perp = _norms(stack.y_perp)
        # the start is the probe without its components along singular
        # values below sqrt(eps) sigma_1, smallest first, as far as its
        # distance from y stays within sqrt((eta^2 + ||y_perp||^2) / 2):
        # inside the ball, and not up to 1 / sigma_min from the optimum
        # along directions that noise fills
        drop = np.cumsum((uty * uty)[:, ::-1], axis=1)[:, ::-1]
        kept = (stack.sigma > np.sqrt(np.finfo(float).eps) * stack.sigma[:, :1]) | (
            drop > 0.5 * (eta * eta - perp * perp)[:, None])
        c0 = _mv(stack.vt.swapaxes(1, 2), np.where(kept, uty / stack.sigma, 0.0))
        rmat = stack.sigma[:, :, None] * stack.vt
        slack = uty - _mv(rmat, c0)
        # the start must lie strictly inside the ball: an eta within the
        # infeasibility tolerance of the start's distance from y, the hypot
        # of ||y_perp|| and its slack, is widened to admit it
        eta = np.fmax(eta, np.hypot(perp, _norms(slack)) * (1.0 + 1e-12) + 1e-300)
        stack.radius = np.sqrt((eta - perp) * (eta + perp))
        G = np.zeros((count, sum(dims), n + nb))
        G[:, heads, n + np.arange(nb)] = -1.0
        G[:, tails, np.arange(n)] = -1.0
        G[:, n + nb + 1:, :n] = rmat
        h = np.zeros(G.shape[:2])
        h[:, tails] = c0
        h[:, n + nb] = stack.radius
        h[:, n + nb + 1:] = slack
        cost = np.concatenate([np.zeros((count, n)), np.ones((count, nb))], axis=1)
        norms = _block_norms_flat(c0, k)
        x = np.concatenate([np.zeros((count, n)), norms + np.fmax(norms.mean(axis=1), np.finfo(float).tiny)[:, None]],
                           axis=1)
    else:
        G = np.zeros((count, n + nb, rank))
        G[:, tails] = -stack.vt.swapaxes(1, 2)
        h = np.tile(cones.e, (count, 1))
        cost = -_mv(stack.vt, c0)
        x = np.zeros((count, rank))
    # the estimate and dual of each program's last Newton step, and the
    # equality programs that passed the stop test, with their iterates
    last_c, last_nu, passed = c0, np.zeros((count, p)), []
    s = h - _mv(G, x)
    z = np.tile(cones.e, (count, 1))
    sz = np.concatenate([s, z], axis=1)
    sz_sq = cones.jdot2(sz, sz)
    for it in range(1, max_iters + 1):
        nt = cones.scaling(s, z, sz_sq)
        lam = cones.scale(nt, s)
        wg = cones.scale(nt, G)
        wgt = wg.swapaxes(1, 2)
        rd = _mv(G.swapaxes(1, 2), z) + cost
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
        if not ok.all():
            out += _solutions(stack.take(~ok), ops, k, last_c[~ok], last_nu[~ok], "stalled", it - 1)
        at, c0g, xg, sg, zg = (stack, c0, x, s, z) if ok.all() else (stack.take(ok), c0[ok], x[ok], s[ok], z[ok])
        if ball:
            # the ball cone's multiplier (z0, z1) gives nu = z0 / radius y_perp - U_r z1
            cg = c0g + xg[:, :n]
            nus = at.in_ball(_mv(at.u, -zg[:, n + nb + 1:]) + (zg[:, n + nb] / at.radius)[:, None] * at.y_perp, k)
        else:
            cg = -np.take(zg, tails, axis=1)
            cg += _mv(at.vt.swapaxes(1, 2), _mv(at.vt, c0g - cg))
            nus = at.in_ball(_mv(at.u, xg / at.sigma), k)
        done = at.stops(cg, nus, k)
        if done.any() and ball:
            out += _solutions(at.take(done), ops, k, cg[done], nus[done], "converged", it)
        elif done.any():
            passed.append((at.take(done), sg[done], zg[done], cg[done], nus[done], np.full(int(done.sum()), it)))
        keep = ok.copy()
        keep[ok] = ~done
        last_c, last_nu = cg[~done], nus[~done]
        if not keep.all():
            c0, G, cost, x, s, z, sz_sq = (a[keep] for a in (c0, G, cost, x, s, z, sz_sq))
            stack = stack.take(keep)
        if len(c0) == 0:
            break
    else:
        out += _solutions(stack, ops, k, last_c, last_nu, "max_iters", max_iters)
    if passed:
        # the equality programs that passed the stop test make their support
        # exit attempts in one call. The support: the rank // k blocks whose
        # cone slack s0_j - ||s1_j|| is smallest against their dual cone head
        # z0_j, as complementarity pairs a small slack with a large z0_j. It
        # is wider than the blocks whose z0_j exceeds their slack, which miss
        # a block of the optimum whose z0_j is below sqrt(mu)
        parts, *rest = zip(*passed)
        s_done, z_done, c, nu, iters = map(np.concatenate, rest)
        ratio = (s_done[:, heads] - _block_norms_flat(np.take(s_done, tails, axis=1), k)) / z_done[:, heads]
        support = np.zeros(ratio.shape, dtype=bool)
        np.put_along_axis(support, np.argsort(ratio, axis=1)[:, :rank // k], True, axis=1)
        done = _Stack.join(parts)
        out += _solutions(done, ops, k, *_support_exits(done, k, support, c, nu), "converged", iters)
    return out


def solve_many(ops, ys, etas, *, max_iters: int = MAX_ITERS) -> list[RecoverySolution]:
    """Solve the equality program (eta = 0) or the ball program of each
    (B, y, eta) triple: one :class:`RecoverySolution` per input, each equal bit
    for bit to the solution of its triple alone.

    After the checks and the zero exits (||y|| <= eta), the distinct
    operators of each matrix shape are factored by one stacked SVD
    (:func:`_factor`). The programs are then stacked once, by program, k,
    shape and rank of B, and each stack is solved from the least-squares
    probe to its last exit (:func:`_solve_stack`).
    Each eta must be a real number, not a bool or a string, and
    ``max_iters`` a positive integer, not a bool.
    """
    for eta in etas:
        if isinstance(eta, bool) or not isinstance(eta, numbers.Real):
            raise ValueError(f"eta must be a real number, got {eta!r}")
    etas = [float(eta) for eta in etas]
    if any(eta < 0 for eta in etas):
        raise ValueError("eta must be nonnegative")
    if not is_integer(max_iters):
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}")
    max_iters = int(max_iters)
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if not len(ops) == len(ys) == len(etas):
        raise ValueError("expected as many operators, y and eta")
    ys = [_check_y(op, y, eta) for op, y, eta in zip(ops, ys, etas)]
    ynorms = [float(np.linalg.norm(y)) for y in ys]
    out = [None] * len(ops)
    # zero is feasible and has minimal objective when ||y|| <= eta; every
    # other program is grouped by its operator within its matrix shape
    shapes = {}
    for i, (op, y, eta, ynorm) in enumerate(zip(ops, ys, etas, ynorms)):
        if ynorm <= eta:
            one = _Stack(b=op.matrix[None], y=y[None], eta=np.array([eta]), ynorm=np.array([ynorm]), idx=np.array([i]))
            ((_, out[i]),) = _solutions(one, ops, op.collection.block_dim, np.zeros((1, op.in_dim)),
                                        np.zeros((1, len(y))), "converged", 0)
        else:
            shapes.setdefault(op.matrix.shape, {}).setdefault(id(op), []).append(i)
    factors = {}
    for by_op in shapes.values():
        mats = np.stack([ops[group[0]].matrix for group in by_op.values()])
        for group, u, sigma, vt, r in zip(by_op.values(), *_factor(mats)):
            factors.update(dict.fromkeys(group, (u[:, :r], sigma[:r], vt[:r])))
    stacks = {}
    for i in sorted(factors):
        op = ops[i]
        stacks.setdefault((etas[i] > 0.0, op.collection.block_dim, op.matrix.shape, len(factors[i][1])), []).append(i)
    for (ball, k, *_), rows in stacks.items():
        u, sigma, vt = (np.stack(part) for part in zip(*(factors[i] for i in rows)))
        stack = _Stack(b=np.stack([ops[i].matrix for i in rows]), y=np.stack([ys[i] for i in rows]),
                       eta=np.array([etas[i] for i in rows]), ynorm=np.array([ynorms[i] for i in rows]),
                       u=u, sigma=sigma, vt=vt, idx=np.array(rows))
        for i, sol in _solve_stack(stack, ops, ball, k, max_iters):
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
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(a))):
        raise ValueError("y and a must be finite")
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

    Uses the residuals the solver reports (:func:`_residuals`) and the stop
    test's rule (:func:`_checks`) at ten times each tolerance: ``TOL_PRIMAL``
    and ``TOL_GAP`` times ||y||, and ``TOL_DUAL``. Like the solves and the
    oracle, raises ``ValueError`` unless y is a finite vector of B's output
    length.
    """
    y = _check_y(B, y)
    vec, nu = coeff_vector(solution.estimate), solution.dual_vector
    if vec.shape != (B.in_dim,) or nu.shape != (B.out_dim,):
        raise DimMismatchError(f"a solution with {vec.size} coefficients and {nu.size} duals does not fit B")
    violation, dual_feas, gap = (float(v[0]) for v in _residuals(
        B.matrix[None], y[None], np.array([solution.eta]), vec[None], nu[None], B.collection.block_dim))
    return CertificateReport(violation, dual_feas, gap,
                             *_checks(violation, dual_feas, gap, float(np.linalg.norm(y)), factor=10.0))
