"""Generic-rank decision core and network verdict assembly.

The question "does some rate vector admit a nondegenerate steady state"
reduces to rank conditions on two symbolic matrices built from a kernel
parametrization w = G u of ker(N):

  * the s x n matrix  N diag(Gu) B^T          (steady-state system), and
  * the n x n matrix [N diag(Gu) B^T diag(h); W]   (system restricted to
    compatibility classes),

where the entries are polynomials in u (and h).  Each target rank is
tested by exact evaluation at random integer points.  If every sample
falls short, the best one has rank rho and a nonsingular rho x rho
submatrix; its bordering (rho+1)-minors either all vanish, which proves
the rank is rho everywhere (Kronecker's theorem, a symbolic certificate),
or one of them is a nonzero polynomial that drives the sampling to a
point of higher rank, until the target is reached.  When the first
matrix is rank deficient everywhere, so is the second, and its test is
skipped.

Combined with feasibility of the positive kernel cone, the two verdicts
classify the network: generic steady-state variety dimension n - s
versus generically empty/higher-dimensional, and generic finiteness of
steady states per compatibility class versus generically none/infinitely
many.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .cone import ConeResult, ConeStatus, positive_kernel_vector
from .mpoly import MinorWitness, MPoly, VarId, all_minors_zero, bordering_minors
from .netmodel import NetworkMatrices, ReactionNetwork
from .ratmat import RatMatrix

_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Vector length or domain violation in an exact evaluation."""


class BudgetExhausted(RuntimeError):
    """The configured hard sampling cap was hit before finding a witness."""


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the randomized rank test.

    seed: base RNG seed; every derived stream is a pure function of it.
    retries: samples drawn before falling back to the bordering-minor loop.
    sample_bound: H; components are drawn from [-H, H] (u, zero excluded)
        or [1, H] (h).
    pit_budget: samples per round when hunting a nonzero value of a known
        nonzero minor; H doubles between rounds.
    hard_cap: optional absolute cap on minor-hunt samples (off by default;
        the hunt cannot stall for a nonzero polynomial with unbounded H).
    """

    seed: int = 0
    retries: int = 5
    sample_bound: int = 65536
    pit_budget: int = 100
    hard_cap: Optional[int] = None

    def __post_init__(self):
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if self.sample_bound < 2:
            raise ValueError("sample_bound must be >= 2")
        if self.pit_budget < 1:
            raise ValueError("pit_budget must be >= 1")


def derive_seed(seed: int, label: str) -> int:
    """Platform-stable derived seed for an independent RNG stream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RankTestStatus(str, Enum):
    NONDEGENERATE_EXISTS = "nondegenerate_exists"
    ALL_DEGENERATE = "all_degenerate"


@dataclass(frozen=True)
class GenericRankVerdict:
    target_rank: int
    status: RankTestStatus
    witness_u: Optional[tuple[Fraction, ...]]
    witness_h: Optional[tuple[Fraction, ...]]
    witness_w: Optional[tuple[Fraction, ...]]
    certificate: Optional[tuple[str, ...]]
    samples_tried: int

    @property
    def nondegenerate(self) -> bool:
        return self.status is RankTestStatus.NONDEGENERATE_EXISTS


@dataclass(frozen=True)
class SteadyStateCheck:
    kappa: tuple[Fraction, ...]
    x: tuple[Fraction, ...]
    residual_zero: bool
    jacobian: RatMatrix
    stacked_rank: int
    degenerate: bool


class VarietyConclusion(str, Enum):
    GENERIC_DIMENSION_N_MINUS_S = "generic_dimension_n_minus_s"
    EMPTY_OR_HIGHER_DIMENSIONAL = "empty_or_higher_dimensional"
    NO_POSITIVE_STEADY_STATES = "no_positive_steady_states"


class ClassesConclusion(str, Enum):
    GENERICALLY_FINITE = "generically_finite"
    GENERICALLY_EMPTY_OR_INFINITE = "generically_empty_or_infinite"
    NO_POSITIVE_STEADY_STATES = "no_positive_steady_states"


@dataclass(frozen=True)
class AnalysisReport:
    network: Optional[ReactionNetwork]
    dims: tuple[int, int, int, int]  # (n, r, s, d)
    cone: ConeResult
    f_verdict: GenericRankVerdict
    F_verdict: GenericRankVerdict
    conclusion_f: VarietyConclusion
    conclusion_F: ClassesConclusion
    notes: tuple[str, ...]


# -- symbolic matrices ---------------------------------------------------


def symbolic_jacobian_f(mats: NetworkMatrices, g: RatMatrix) -> list[list[MPoly]]:
    """The s x n matrix N diag(Gu) B^T, entries linear in u.

    ``g`` must be a kernel basis of ``mats.n_mat`` (r x (r-s)); entry
    (i, j) is sum_k N[i,k] (Gu)_k B[j,k].  Accumulated reaction by
    reaction over the nonzero pattern, so sparse networks stay cheap.
    """
    if g.rows != mats.r:
        raise DimensionMismatch(f"kernel basis has {g.rows} rows, expected {mats.r}")
    s, n = mats.s, mats.n
    n_rows = mats.n_mat.to_rows()
    b_rows = mats.b.to_rows()
    g_rows = g.to_rows()
    coeffs: list[list[dict[int, Fraction]]] = [[{} for _ in range(n)] for _ in range(s)]
    for k in range(mats.r):
        grow = [(t, gv) for t, gv in enumerate(g_rows[k]) if gv]
        if not grow:
            continue
        ncol = [(i, n_rows[i][k]) for i in range(s) if n_rows[i][k]]
        bcol = [(j, b_rows[j][k]) for j in range(n) if b_rows[j][k]]
        for i, a in ncol:
            for j, b_ in bcol:
                ab = a * b_
                entry = coeffs[i][j]
                for t, gv in grow:
                    entry[t] = entry.get(t, Fraction(0)) + ab * gv
    return [
        [
            MPoly({((VarId.u(t), 1),): c for t, c in coeffs[i][j].items() if c})
            for j in range(n)
        ]
        for i in range(s)
    ]


def symbolic_jacobian_F(
    mats: NetworkMatrices,
    g: RatMatrix,
    f_jacobian: Optional[list[list[MPoly]]] = None,
) -> list[list[MPoly]]:
    """The n x n matrix [N diag(Gu) B^T diag(h); W].

    Top block: f-entries with column j multiplied by h_j; bottom block:
    the constant conservation-law rows.  Pass ``f_jacobian`` to reuse an
    already-built top block.
    """
    top = f_jacobian if f_jacobian is not None else symbolic_jacobian_f(mats, g)
    out = []
    for i in range(mats.s):
        out.append([top[i][j] * MPoly.var(VarId.h(j)) for j in range(mats.n)])
    for i in range(mats.d):
        out.append([MPoly.const(mats.w_mat.at(i, j)) for j in range(mats.n)])
    return out


# -- randomized rank test -------------------------------------------------


def _sample_point(rng: random.Random, bound: int, u_dim: int, h_dim: Optional[int]):
    point: dict[VarId, Fraction] = {}
    u_vals = []
    for t in range(u_dim):
        val = 0
        while val == 0:
            val = rng.randint(-bound, bound)
        f = Fraction(val)
        point[VarId.u(t)] = f
        u_vals.append(f)
    h_vals = None
    if h_dim is not None:
        h_vals = []
        for j in range(h_dim):
            f = Fraction(rng.randint(1, bound))
            point[VarId.h(j)] = f
            h_vals.append(f)
    return point, tuple(u_vals), (tuple(h_vals) if h_vals is not None else None)


def _eval_matrix(matrix: Sequence[Sequence[MPoly]], ncols: int, point) -> RatMatrix:
    return RatMatrix.from_rows(
        [[entry.eval(point) for entry in row] for row in matrix], cols=ncols
    )


def _nonsingular_submatrix(evaluated: RatMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rows, cols) of a square submatrix of full rank rank(evaluated).

    cols are the pivot columns of the matrix, rows the pivot rows of
    those columns.
    """
    _, cols, _ = evaluated.rref()
    picked = RatMatrix.from_rows([evaluated.column(j) for j in cols], cols=evaluated.rows)
    _, rows, _ = picked.rref()
    return rows, cols


def _indices(idx: Sequence[int]) -> str:
    return "(" + ",".join(str(i) for i in idx) + ")"


def _bordering_certificate(
    shape: tuple[int, int],
    basis: tuple[tuple[int, ...], tuple[int, ...]],
    target: int,
    u_vals: tuple[Fraction, ...],
    h_vals: Optional[tuple[Fraction, ...]],
) -> tuple[str, ...]:
    """Certificate lines: header, the sample, then every bordering minor."""
    rows, cols = basis
    lines = [
        f"rank {len(rows)} < {target}: minor rows={_indices(rows)} cols={_indices(cols)} "
        "is nonzero at the sample below; every bordering minor is 0",
        "sample u:" + "".join(f" {x}" for x in u_vals),
    ]
    if h_vals is not None:
        lines.append("sample h:" + "".join(f" {x}" for x in h_vals))
    for rset, cset in bordering_minors(*shape, basis):
        lines.append(f"minor rows={_indices(rset)} cols={_indices(cset)}: 0")
    return tuple(lines)


def generic_rank_test(
    matrix: Sequence[Sequence[MPoly]],
    target: int,
    cfg: SamplerConfig | None = None,
    *,
    u_dim: int,
    h_dim: Optional[int] = None,
    g: Optional[RatMatrix] = None,
    rng: Optional[random.Random] = None,
) -> GenericRankVerdict:
    """Decide whether the symbolic matrix attains ``target`` rank somewhere.

    Up to ``cfg.retries`` random evaluations first.  If all fall short,
    the highest-rank sample (rank rho, the first of equals) gives a
    nonsingular rho x rho submatrix (R, C), and only the minors bordering
    it are computed symbolically:

      * all zero: the rank is rho over Q(u, h), so AllDegenerate, with a
        certificate naming (R, C), the sample and every bordering minor;
      * one nonzero: it is sampled until it evaluates nonzero (doubling
        the sample bound whenever a round of ``cfg.pit_budget`` samples
        is exhausted).  If it is target-sized that point is the witness;
        otherwise the rank there exceeds rho and the loop repeats from it.

    A witness is a point at which the exact rank of the evaluated matrix
    equals ``target``.
    """
    cfg = cfg or SamplerConfig()
    rng = rng or random.Random(cfg.seed)
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if target < 0 or target > min(nrows, ncols):
        raise ValueError(f"target rank {target} out of range for {nrows}x{ncols}")

    def verdict_for(u_vals, h_vals, samples) -> GenericRankVerdict:
        w_vals = tuple(g.mul_vec(u_vals)) if g is not None else None
        return GenericRankVerdict(
            target_rank=target,
            status=RankTestStatus.NONDEGENERATE_EXISTS,
            witness_u=u_vals,
            witness_h=h_vals,
            witness_w=w_vals,
            certificate=None,
            samples_tried=samples,
        )

    bound = cfg.sample_bound
    samples = hunted = 0

    def hunt(witness: MinorWitness):
        """Sample until the minor is nonzero: a point of rank >= its size."""
        nonlocal bound, samples, hunted
        while True:
            for _ in range(cfg.pit_budget):
                if cfg.hard_cap is not None and hunted >= cfg.hard_cap:
                    raise BudgetExhausted(
                        f"no nonzero evaluation of minor {witness.rows}x{witness.cols} "
                        f"within {cfg.hard_cap} samples"
                    )
                point, u_vals, h_vals = _sample_point(rng, bound, u_dim, h_dim)
                samples += 1
                hunted += 1
                if witness.poly.eval(point):
                    return point, u_vals, h_vals
            bound *= 2

    best = None  # (rank, evaluated matrix, u_vals, h_vals) of the highest-rank sample
    for _ in range(cfg.retries):
        point, u_vals, h_vals = _sample_point(rng, bound, u_dim, h_dim)
        samples += 1
        evaluated = _eval_matrix(matrix, ncols, point)
        rank = evaluated.rank()
        if rank == target:
            return verdict_for(u_vals, h_vals, samples)
        if best is None or rank > best[0]:
            best = (rank, evaluated, u_vals, h_vals)

    rank, evaluated, u_vals, h_vals = best
    while True:
        basis = _nonsingular_submatrix(evaluated)
        vanish, witness = all_minors_zero(matrix, rank + 1, basis=basis)
        if vanish:
            return GenericRankVerdict(
                target_rank=target,
                status=RankTestStatus.ALL_DEGENERATE,
                witness_u=None,
                witness_h=None,
                witness_w=None,
                certificate=_bordering_certificate(
                    (nrows, ncols), basis, target, u_vals, h_vals
                ),
                samples_tried=samples,
            )

        point, u_vals, h_vals = hunt(witness)
        evaluated = _eval_matrix(matrix, ncols, point)
        rank = evaluated.rank()
        if rank == target:
            return verdict_for(u_vals, h_vals, samples)


# -- pointwise checks ------------------------------------------------------


def _validate_point(mats: NetworkMatrices, kappa, x):
    if len(kappa) != mats.r:
        raise DimensionMismatch(f"kappa has length {len(kappa)}, expected {mats.r}")
    if len(x) != mats.n:
        raise DimensionMismatch(f"x has length {len(x)}, expected {mats.n}")
    kv = tuple(Fraction(k) for k in kappa)
    xv = tuple(Fraction(v) for v in x)
    if any(k <= 0 for k in kv):
        raise DimensionMismatch("rate constants must be strictly positive")
    if any(v == 0 for v in xv):
        raise DimensionMismatch("x must be componentwise nonzero")
    return kv, xv


def _monomials(mats: NetworkMatrices, x: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    # (x^B)_i = prod_j x_j^{B[j,i]}; integer exponents of either sign
    vals = []
    for i in range(mats.r):
        acc = _ONE
        for j in range(mats.n):
            e = mats.b.at(j, i)
            if e:
                acc *= x[j] ** int(e)
        vals.append(acc)
    return tuple(vals)


def evaluate_f(mats: NetworkMatrices, kappa, x) -> tuple[Fraction, ...]:
    """Exact value of N (kappa ∘ x^B); length s."""
    kv, xv = _validate_point(mats, kappa, x)
    scaled = [k * m for k, m in zip(kv, _monomials(mats, xv))]
    return mats.n_mat.mul_vec(scaled)


def check_steady_state(mats: NetworkMatrices, kappa, x) -> SteadyStateCheck:
    """Residual and degeneracy data of a candidate steady state.

    The Jacobian of the steady-state system at (kappa, x) is
    N diag(kappa ∘ x^B) B^T diag(x^{-1}); the point is degenerate when
    the Jacobian stacked on the conservation laws W drops below rank n.
    Degeneracy fields are computed even when the residual is nonzero
    (``residual_zero`` is the flag).
    """
    kv, xv = _validate_point(mats, kappa, x)
    scaled = [k * m for k, m in zip(kv, _monomials(mats, xv))]
    residual = mats.n_mat.mul_vec(scaled)
    jac = (mats.n_mat.scale_columns(scaled) @ mats.b.transpose()).scale_columns(
        [1 / v for v in xv]
    )
    stacked_rank = jac.vstack(mats.w_mat).rank()
    return SteadyStateCheck(
        kappa=kv,
        x=xv,
        residual_zero=not any(residual),
        jacobian=jac,
        stacked_rank=stacked_rank,
        degenerate=stacked_rank < mats.n,
    )


# -- full pipeline -----------------------------------------------------------


def analyze(net: ReactionNetwork, cfg: SamplerConfig | None = None) -> AnalysisReport:
    """Parse-level entry point: build matrices, then run the pipeline."""
    return analyze_matrices(NetworkMatrices.from_network(net), cfg, network=net)


def analyze_matrices(
    mats: NetworkMatrices,
    cfg: SamplerConfig | None = None,
    network: Optional[ReactionNetwork] = None,
) -> AnalysisReport:
    """Cone feasibility plus both generic-rank tests, with conclusions.

    When the positive kernel cone is empty no rate vector admits positive
    steady states and both conclusions say so; the rank tests still run
    and are reported as information about the complex-torus systems.

    When the f-test is AllDegenerate the F-test is not run: the top block
    of the F matrix has the f matrix's rank and W adds at most d, so
    rank F <= rank f + d < s + d = n.  Its verdict cites the f certificate
    and reports 0 samples.
    """
    cfg = cfg or SamplerConfig()
    cone = positive_kernel_vector(mats.n_mat)
    g = mats.n_mat.kernel_basis()
    u_dim = mats.r - mats.s

    jac_f = symbolic_jacobian_f(mats, g)
    f_verdict = generic_rank_test(
        jac_f,
        mats.s,
        cfg,
        u_dim=u_dim,
        g=g,
        rng=random.Random(derive_seed(cfg.seed, "f-test")),
    )
    if f_verdict.nondegenerate:
        F_verdict = generic_rank_test(
            symbolic_jacobian_F(mats, g, f_jacobian=jac_f),
            mats.n,
            cfg,
            u_dim=u_dim,
            h_dim=mats.n,
            g=g,
            rng=random.Random(derive_seed(cfg.seed, "F-test")),
        )
    else:
        F_verdict = GenericRankVerdict(
            target_rank=mats.n,
            status=RankTestStatus.ALL_DEGENERATE,
            witness_u=None,
            witness_h=None,
            witness_w=None,
            certificate=(
                f"rank <= rank(f_test) + {mats.d} < {mats.s} + {mats.d} = {mats.n}: "
                "implied by the f_test certificate",
            ),
            samples_tried=0,
        )

    notes: list[str] = []
    if cone.status is ConeStatus.EMPTY:
        conclusion_f = VarietyConclusion.NO_POSITIVE_STEADY_STATES
        conclusion_F = ClassesConclusion.NO_POSITIVE_STEADY_STATES
        notes.append(
            "positive kernel cone is empty: no rate constants admit positive "
            "steady states; rank verdicts describe the complex-torus systems only"
        )
    else:
        conclusion_f = (
            VarietyConclusion.GENERIC_DIMENSION_N_MINUS_S
            if f_verdict.nondegenerate
            else VarietyConclusion.EMPTY_OR_HIGHER_DIMENSIONAL
        )
        conclusion_F = (
            ClassesConclusion.GENERICALLY_FINITE
            if F_verdict.nondegenerate
            else ClassesConclusion.GENERICALLY_EMPTY_OR_INFINITE
        )
    if mats.s == 0:
        notes.append(
            "stoichiometric matrix has rank 0: the steady-state system is empty, "
            "every positive point is a steady state (variety dimension n)"
        )

    return AnalysisReport(
        network=network,
        dims=(mats.n, mats.r, mats.s, mats.d),
        cone=cone,
        f_verdict=f_verdict,
        F_verdict=F_verdict,
        conclusion_f=conclusion_f,
        conclusion_F=conclusion_F,
        notes=tuple(notes),
    )
