"""Generators for block invertible square matrices.

An (n, p) block invertible square matrix is an invertible n x n matrix
whose every p x p block is itself invertible. The generator here grows
one inductively: start from a random invertible p x p matrix, then
repeatedly border a known-good t x t matrix M with a strip X of its
block-rows (p x t), a strip Y of its block-columns (t x p), and a new
bottom-right corner:

    N = [[M, Y],
         [X, X @ M^-1 @ Y + W]]

W is chosen so that both W and the corner are invertible, which makes N
invertible via the factorization N = [[M, 0], [X, W]] @ [[I, M^-1 @ Y],
[0, I]], and every block of N is a block of M, a strip block, or the
invertible corner. Finding W reduces the corner's defect S = X @ M^-1 @ Y
to rank normal form, left @ S @ right = diag(I_r, 0), and patches it with
a fixed perturbation matrix: W = left^-1 @ A @ right^-1.

Because X is block-row bi of M itself, X @ M^-1 is the block-row
selector [0 .. I .. 0], so the defect is just the block S = M[bi][bj]
picked out by the strips: a growth step needs no inverse and no matrix
product. Each step is certified locally in O(p^3): rank(W) == p and
rank(corner) == p. The factorization gives det N = det M * det W, and
every block of N is a block of M or the corner, so by induction from the
rank-checked p x p seed every output is an (n, p) block invertible
square matrix without re-verifying the whole of it.

The perturbation matrix A depends only on (p, r) and works over every
field: it is assembled from 2x2 and 3x3 tiles whose determinants, and the
determinants of the corresponding tiles of diag(I_r, 0) + A, are all +-1.

Works over any supported field; the classical alternative, the Kronecker
product of an all-nonzero invertible A with an invertible B, is provided
for contrast together with a search that demonstrates where it has no
all-nonzero A to use (notably GF(2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod

from .decompose import rank_decompose, rank_normal_form
from .field import FieldSpec
from .matrix import Matrix
from .rng import SplitMix64

#: Seed used by the CLI when none is given.
DEFAULT_SEED = 0xB10CC0DE


class NotBlockInvertibleError(ValueError):
    """Input matrix fails the block invertibility precondition."""


class StripChoice(Enum):
    """Which block-row/block-column of M becomes the border strips X and Y."""

    FIRST = "first"
    LAST = "last"
    RANDOM = "random"


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for one deterministic generation run."""

    n: int
    p: int
    field: FieldSpec
    seed: int = DEFAULT_SEED
    strip: StripChoice = StripChoice.FIRST

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("block size p must be at least 2")
        if self.n < self.p:
            raise ValueError(f"n={self.n} must be at least p={self.p}")
        if self.n % self.p:
            raise ValueError(f"p={self.p} must divide n={self.n}")


def perturbation_matrix(p: int, r: int, field: FieldSpec) -> Matrix:
    """Invertible p x p matrix A with diag(I_r, 0) + A also invertible.

    Layout by the parity of r (entries are only 0 and 1, so the same
    matrix works over every field):

      r even:    r/2 diagonal copies of [[0,1],[1,1]], then I_{p-r}
      r == 1:    [[1,1],[1,0]], then I_{p-2}
      r odd > 1: [[1,1,1],[1,1,0],[1,0,0]], then (r-3)/2 copies of
                 [[0,1],[1,1]], then I_{p-r}

    Every tile has determinant +-1 and so does the matching tile of
    diag(I_r, 0) + A, which is what makes both block-diagonal matrices
    invertible regardless of characteristic; both are re-checked here
    anyway before returning.
    """
    if p < 2:
        raise ValueError("block size p must be at least 2")
    if not 0 <= r <= p:
        raise ValueError(f"rank {r} out of range 0..{p}")

    rows = [[0] * p for _ in range(p)]

    def put(tile, at):
        for i, tr in enumerate(tile):
            rows[at + i][at:at + len(tr)] = tr

    if r % 2 == 0:
        for b in range(r // 2):
            put([[0, 1], [1, 1]], 2 * b)
        tail = r
    elif r == 1:
        put([[1, 1], [1, 0]], 0)
        tail = 2
    else:
        put([[1, 1, 1], [1, 1, 0], [1, 0, 0]], 0)
        for b in range((r - 3) // 2):
            put([[0, 1], [1, 1]], 3 + 2 * b)
        tail = r
    for i in range(tail, p):
        rows[i][i] = 1

    a = Matrix._new(field, tuple(tuple(row) for row in rows))
    perturbed = rank_normal_form(field, p, r) + a
    if a.rank() != p or perturbed.rank() != p:
        raise AssertionError(
            f"perturbation matrix self-check failed for p={p}, r={r}, {field}")
    return a


def corner_completion(s: Matrix) -> tuple[Matrix, Matrix]:
    """Return (w, corner) with w invertible and corner = s + w invertible.

    Reduces s to rank normal form, left @ s @ right = diag(I_r, 0), and
    sets w = left^-1 @ A @ right^-1 for the (p, r) perturbation matrix A;
    then s + w = left^-1 @ (diag(I_r, 0) + A) @ right^-1, a product of
    invertible matrices.
    """
    if not s.is_square:
        raise ValueError(f"corner defect must be square, got {s.nrows}x{s.ncols}")
    d = rank_decompose(s)
    a = perturbation_matrix(s.nrows, d.rank, s.field)
    w = d.left.inverse() @ a @ d.right.inverse()
    return w, s + w


def extend(m: Matrix, p: int, strip: StripChoice = StripChoice.FIRST,
           rng: SplitMix64 | None = None) -> Matrix:
    """Grow a (t, p) block invertible square matrix to a (t+p, p) one.

    The input is re-verified rather than trusted: a singular matrix or a
    singular block raises NotBlockInvertibleError instead of silently
    producing a bad output. With StripChoice.RANDOM the block-row index
    for X and the block-column index for Y are drawn independently (in
    that order) from rng; any combination works because every strip of a
    block invertible matrix is itself block invertible. The step itself
    is the one `generate` takes, so both give the same bytes.
    """
    if not m.is_square:
        raise ValueError(f"cannot extend {m.nrows}x{m.ncols} matrix")
    t = m.nrows
    if p < 2 or t % p:
        raise ValueError(f"block size {p} invalid for a {t}x{t} matrix")

    if m.rank() != t:
        raise NotBlockInvertibleError("input matrix is singular")
    nb = t // p
    for i in range(nb):
        for j in range(nb):
            if m.block(p, i, j).rank() != p:
                raise NotBlockInvertibleError(
                    f"input block ({i}, {j}) is singular")

    return _grow(m, p, *_strip_indices(strip, nb, rng))


def _strip_indices(strip: StripChoice, nb: int,
                   rng: SplitMix64 | None) -> tuple[int, int]:
    """Block-row index of X and block-column index of Y among nb strips."""
    if strip is StripChoice.RANDOM:
        if rng is None:
            raise ValueError("StripChoice.RANDOM requires an rng")
        bi = rng.below(nb)
        return bi, rng.below(nb)
    if strip is StripChoice.LAST:
        return nb - 1, nb - 1
    return 0, 0


def _grow(m: Matrix, p: int, bi: int, bj: int) -> Matrix:
    """One trusted growth step of a (t, p) block invertible square m.

    X = block-row bi and Y = block-column bj of m, so the corner defect
    X @ M^-1 @ Y is the block m[bi][bj]. The O(p^3) certificate below,
    with det N = det M * det W, carries block invertibility from m to N.
    """
    s = m.block(p, bi, bj)
    w, corner = corner_completion(s)
    if w.rank() != p or corner.rank() != p:
        raise AssertionError(
            f"corner completion certificate failed for p={p}, {m.field}")
    return Matrix.from_blocks([[m, m.block_col(p, bj)],
                               [m.block_row(p, bi), corner]])


def random_invertible(p: int, field: FieldSpec, rng: SplitMix64) -> Matrix:
    """Uniform sample from GL(p, field) by rejection.

    Draws entries row-major, each via rng.below(order), and redraws the
    whole matrix until it is invertible; acceptance probability is
    gl_count(p, q) / q^(p*p), which exceeds 0.288 even for q = 2.
    """
    if p < 1:
        raise ValueError("dimension must be positive")
    q = field.order
    while True:
        m = Matrix._new(field, tuple(
            tuple(rng.below(q) for _ in range(p)) for _ in range(p)))
        if m.rank() == p:
            return m


def generate(config: GeneratorConfig) -> Matrix:
    """Produce an (n, p) block invertible square matrix, deterministically.

    Seeds a SplitMix64 stream from config.seed, draws the initial p x p
    invertible matrix, then takes exactly (n - p) / p growth steps. It
    does not call `extend`: each input is the previous step's own
    certified output, so re-verifying it would be redundant. A step costs
    O(p^3) field operations plus an O(t^2) copy of M into N.
    """
    p = config.p
    rng = SplitMix64(config.seed)
    m = random_invertible(p, config.field, rng)
    for nb in range(1, config.n // p):
        m = _grow(m, p, *_strip_indices(config.strip, nb, rng))
    return m


def gl_count(p: int, q: int) -> int:
    """|GL(p, q)|: the number of invertible p x p matrices over GF(q)."""
    if p < 1:
        raise ValueError("dimension must be positive")
    if not _is_prime_power(q):
        raise ValueError(f"{q} is not a prime power")
    return prod(q ** p - q ** i for i in range(p))


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    c = 2
    while c * c <= q:
        if q % c == 0:
            while q % c == 0:
                q //= c
            return q == 1
        c += 1
    return True  # q itself is prime


#: Exhaustive all-nonzero search is used when q^(p*p) stays below this.
EXHAUSTIVE_LIMIT = 1 << 20


@dataclass(frozen=True)
class KroneckerResult:
    """Outcome of the Kronecker-product construction attempt.

    matrix is the (p^2, p) block invertible square matrix A (x) B on
    success and None when no invertible all-nonzero A was found; in the
    latter case `exhaustive` distinguishes a proof of nonexistence from
    an inconclusive capped random search.
    """

    matrix: Matrix | None
    factor_a: Matrix | None
    factor_b: Matrix | None
    exhaustive: bool
    trials: int

    @property
    def found(self) -> bool:
        return self.matrix is not None

    @property
    def proved_nonexistence(self) -> bool:
        return self.matrix is None and self.exhaustive


def kronecker_generate(p: int, field: FieldSpec, rng: SplitMix64,
                       max_trials: int = 1000) -> KroneckerResult:
    """Try the Kronecker route to a (p^2, p) block invertible square matrix.

    If A is invertible with every entry nonzero and B is invertible, then
    A (x) B has blocks a_ij * B, all invertible, and is itself invertible.
    The search for A enumerates every all-nonzero candidate in row-major
    code order when q^(p*p) <= EXHAUSTIVE_LIMIT (so a miss is a proof of
    nonexistence, as over GF(2) where the only all-nonzero matrix is the
    singular all-ones one); otherwise it draws up to max_trials random
    all-nonzero candidates and a miss is merely inconclusive.
    """
    if p < 2:
        raise ValueError("block size p must be at least 2")
    q = field.order
    a = None
    exhaustive = q ** (p * p) <= EXHAUSTIVE_LIMIT
    trials = 0
    if exhaustive:
        for m in _all_nonzero_matrices(p, field):
            trials += 1
            if m.rank() == p:
                a = m
                break
    else:
        for _ in range(max_trials):
            trials += 1
            m = Matrix._new(field, tuple(
                tuple(1 + rng.below(q - 1) for _ in range(p))
                for _ in range(p)))
            if m.rank() == p:
                a = m
                break
    if a is None:
        return KroneckerResult(None, None, None, exhaustive, trials)
    b = random_invertible(p, field, rng)
    return KroneckerResult(a.kron(b), a, b, exhaustive, trials)


def _all_nonzero_matrices(p: int, field: FieldSpec):
    """All p x p matrices with every entry nonzero, in row-major code order."""
    q = field.order
    cells = p * p
    codes = [1] * cells
    while True:
        yield Matrix._new(field, tuple(
            tuple(codes[i * p:(i + 1) * p]) for i in range(p)))
        k = cells - 1
        while k >= 0 and codes[k] == q - 1:
            codes[k] = 1
            k -= 1
        if k < 0:
            return
        codes[k] += 1
