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
invertible corner. In general W comes from factoring the corner's defect
S = X @ M^-1 @ Y through its rank normal form, S = L @ diag(I_r, 0) @ R,
and patching it with a fixed perturbation matrix: W = L @ A @ R, so the
corner is L @ (diag(I_r, 0) + A) @ R (`corner_completion`).

Because X is block-row bi of M itself, X @ M^-1 is the block-row
selector [0 .. I .. 0], so the defect is just the block S = M[bi][bj]
picked out by the strips: a growth step needs no inverse. That block is
invertible, and an invertible S factors with L = S and R = I, so
W = S @ A and the corner is S @ C, with C = I + A for the (p, p)
perturbation matrix A. A step is therefore one p x p product. A and C
are the completion of I, taken once per run and certified there in
O(p^3): rank(A) == rank(C) == p. Then W and the corner are invertible at
every step, the factorization gives det N = det M * det W, and every
block of N is a block of M or the corner, so by induction from the
rank-checked p x p seed every output is an (n, p) block invertible
square matrix without re-verifying the whole of it.

So generation runs on the grid of p x p blocks: a step appends to each
block-row its block of Y and adds the row X plus the corner, all as
references to blocks it already holds, and `Matrix.from_blocks` builds
the n x n matrix once at the end.

The perturbation matrix A depends only on (p, r) and works over every
field: it is assembled from 2x2 and 3x3 tiles whose determinants, and the
determinants of the corresponding tiles of diag(I_r, 0) + A, are all +-1.

Works over any supported field; the classical alternative, the Kronecker
product of an all-nonzero invertible A with an invertible B, is provided
for contrast together with a search that demonstrates where it has no
all-nonzero A to use (notably GF(2)).

Every random matrix comes from the seeded stream through one map,
`_draw`: p x p entries row-major, each low + rng.below(order - low).
The random invertible seed block takes low = 0 and the Kronecker random
search low = 1 (all-nonzero candidates), so the two documented streams
are one function.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import prod

from . import DEFAULT_SEED, StripChoice
from .decompose import rank_decompose
from .field import FieldSpec, _clip, _is_prime
from .matrix import Matrix
from .rng import SplitMix64
from .verify import verify_blocks


class NotBlockInvertibleError(ValueError):
    """Input matrix fails the block invertibility precondition."""


def _check_min_block_size(p: int) -> None:
    """The constructions need blocks of size 2 or more."""
    if p < 2:
        raise ValueError("block size p must be at least 2")


class GeneratorConfig(namedtuple("GeneratorConfig",
                                 ("n", "p", "field", "seed", "strip"),
                                 defaults=(DEFAULT_SEED, StripChoice.FIRST))):
    """Parameters for one deterministic generation run.

    `__new__` validates them: n, p and seed must be ints (not bools),
    else TypeError naming the field, and the seed must lie in [0, 2^64),
    the range SplitMix64 keeps, so no two unequal seeds name one stream.
    It coerces `strip` to a StripChoice, so a strip given by its value
    ("random") means that choice and an unknown one raises ValueError.
    `_make`, which `_replace` and unpickling build through, calls the
    constructor, so no way of building one skips it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        n, p, field, seed, strip = super().__new__(cls, *args, **kwargs)
        for name, value in (("n", n), ("p", p), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got "
                                f"{type(value).__name__}")
        _check_min_block_size(p)
        if not isinstance(field, FieldSpec):
            raise TypeError(f"field must be a FieldSpec, got "
                            f"{type(field).__name__}")
        # with n positive, p | n also gives n >= p
        if n < 1:
            raise ValueError(f"n={_clip(str(n))} must be positive")
        if n % p:
            raise ValueError(
                f"p={_clip(str(p))} must divide n={_clip(str(n))}")
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed {_clip(str(seed))} is outside [0, 2^64)")
        return super().__new__(cls, n, p, field, seed, StripChoice(strip))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
    invertible regardless of characteristic. Nothing is re-checked here:
    `_grow` certifies A and I + A once per run.
    """
    _check_min_block_size(p)
    if not 0 <= r <= p:
        raise ValueError(f"rank {r} out of range 0..{p}")

    if r == 1:
        tiles = [[[1, 1], [1, 0]]]
    else:
        tiles = ([[[1, 1, 1], [1, 1, 0], [1, 0, 0]]] * (r % 2)
                 + [[[0, 1], [1, 1]]] * (r // 2 - r % 2))
    # the tiles run down the diagonal of I_p, overwriting its leading
    # entries; the rest of it is the trailing identity
    rows = [list(row) for row in Matrix.identity(field, p)._rows]
    at = 0
    for tile in tiles:
        for i, tile_row in enumerate(tile):
            rows[at + i][at:at + len(tile_row)] = tile_row
        at += len(tile)
    return Matrix._new(field, tuple(map(tuple, rows)))


def corner_completion(s: Matrix) -> tuple[Matrix, Matrix]:
    """Return (w, corner) with w invertible and corner = s + w invertible.

    Factors s through its rank normal form, s = L @ diag(I_r, 0) @ R,
    and sets w = L @ A @ R for the (p, r) perturbation matrix A; then
    s + w = L @ (diag(I_r, 0) + A) @ R, a product of invertible
    matrices. `rank_decompose` rejects a non-square s. For an invertible
    s it returns (s @ A, s @ (I + A)) with A the (p, p) perturbation
    matrix, and border growth meets only invertible defects, so it runs
    this once per run, on s = I.
    """
    d = rank_decompose(s)
    a = perturbation_matrix(s.nrows, d.rank, s.field)
    w = d.left @ a @ d.right
    return w, s + w


def extend(m: Matrix, p: int, strip: StripChoice = StripChoice.FIRST,
           rng: SplitMix64 | None = None) -> Matrix:
    """Grow a (t, p) block invertible square matrix to a (t+p, p) one.

    The arguments are checked first, so a RANDOM strip without an rng
    raises ValueError before any work. Then `verify_blocks` re-checks
    the input: a singular matrix, else the first singular block in
    row-major order, raises NotBlockInvertibleError instead of producing
    a bad output. With StripChoice.RANDOM (or its value "random") the
    block-row index for X and the block-column index for Y are drawn
    independently (in that order) from rng; any combination works
    because every strip of a block invertible matrix is itself block
    invertible. The step itself is the one `generate` takes, so both
    give the same bytes.
    """
    if not m.is_square:
        raise ValueError(f"cannot extend {m.nrows}x{m.ncols} matrix")
    _check_min_block_size(p)
    strip = StripChoice(strip)
    if strip is StripChoice.RANDOM and rng is None:
        raise ValueError("StripChoice.RANDOM requires an rng")

    rep = verify_blocks(m, p)  # raises ValueError unless p divides m
    if not rep.whole_invertible:
        raise NotBlockInvertibleError("input matrix is singular")
    if rep.failing_blocks:
        i, j = rep.failing_blocks[0]
        raise NotBlockInvertibleError(f"input block ({i}, {j}) is singular")

    nb = m.nrows // p
    grid = [[m.block(p, i, j) for j in range(nb)] for i in range(nb)]
    _grow(grid, 1, strip, rng)
    return Matrix.from_blocks(grid)


def _grow(grid: list[list[Matrix]], steps: int, strip: StripChoice,
          rng: SplitMix64 | None) -> None:
    """Take `steps` trusted growth steps, in place, on the k x k block
    grid of a (kp, p) block invertible square M.

    A step borders M with X = block-row bi and Y = block-column bj: both
    0 for StripChoice.FIRST, both k - 1 for LAST, and for RANDOM bi then
    bj drawn from rng, each below k; only RANDOM reads rng. The corner
    defect X @ M^-1 @ Y is the block S = grid[bi][bj], invertible
    because M is block invertible, so W = S @ A and the corner is S @ C
    for (A, C) = corner_completion(I). That pair is taken and certified
    once per call, rank(A) == rank(C) == p, and with det N = det M *
    det W it carries block invertibility from M to N at every step.
    Every row gains its block of Y, and the new row is X and the corner:
    beyond the one p x p product, a step appends block references and
    copies no entries.
    """
    p, field = grid[0][0].nrows, grid[0][0].field
    a, c = corner_completion(Matrix.identity(field, p))
    if a.rank() != p or c.rank() != p:
        raise AssertionError(f"corner completion certificate failed for "
                             f"p={p}, {field}")
    for nb in range(len(grid), len(grid) + steps):
        if strip is StripChoice.RANDOM:
            bi, bj = rng.below(nb), rng.below(nb)
        else:
            bi = bj = 0 if strip is StripChoice.FIRST else nb - 1
        corner = grid[bi][bj] @ c
        for row in grid:
            row.append(row[bj])
        grid.append(grid[bi][:-1] + [corner])


def _draw(p: int, field: FieldSpec, rng: SplitMix64, low: int = 0) -> Matrix:
    """The one map from the stream to a p x p matrix: entries row-major,
    each low + rng.below(order - low), so p*p draws per matrix."""
    span = field.order - low
    return Matrix._new(field, tuple(
        tuple(low + rng.below(span) for _ in range(p)) for _ in range(p)))


def random_invertible(p: int, field: FieldSpec, rng: SplitMix64) -> Matrix:
    """Uniform sample from GL(p, field) by rejection.

    Draws whole matrices with `_draw` until one is invertible; acceptance
    probability is gl_count(p, q) / q^(p*p), which exceeds 0.288 even
    for q = 2.
    """
    if p < 1:
        raise ValueError("dimension must be positive")
    while True:
        m = _draw(p, field, rng)
        if m.rank() == p:
            return m


def generate(config: GeneratorConfig) -> Matrix:
    """Produce an (n, p) block invertible square matrix, deterministically.

    Seeds a SplitMix64 stream from config.seed, draws the initial p x p
    invertible matrix, then has `_grow` take exactly (n - p) / p growth
    steps on the grid of p x p blocks. It does not call `extend`: each
    input is the previous step's own certified output, so re-verifying it
    would be redundant. One completion of I, certified by two p x p
    ranks, serves every step; a step is one p x p product and appends
    block references; the n x n matrix is assembled once, in O(n^2), at
    the end.
    """
    p = config.p
    rng = SplitMix64(config.seed)
    grid = [[random_invertible(p, config.field, rng)]]
    _grow(grid, config.n // p - 1, config.strip, rng)
    return Matrix.from_blocks(grid)


def gl_count(p: int, q: int) -> int:
    """|GL(p, q)|: the number of invertible p x p matrices over GF(q).

    q must be a prime power below 2^64.
    """
    if p < 1:
        raise ValueError("dimension must be positive")
    if q >= 1 << 64:
        raise ValueError(f"field order of {q.bit_length()} bits is not "
                         f"below 2^64")
    if not _is_prime_power(q):
        raise ValueError(f"{_clip(str(q))} is not a prime power")
    return prod(q ** p - q ** i for i in range(p))


def _is_prime_power(q: int) -> bool:
    """Whether q = r^k for a prime r and k >= 1; exact for q < 2^64.

    The first exact k-th root c of q (2 <= k < bit length) decides it,
    since q is a prime power exactly when c is; with no such root, q is
    a prime power only if it is prime. A float root is exact to within
    one for q < 2^64, so the neighbours settle it.
    """
    if q < 2:
        return False
    for k in range(2, q.bit_length()):
        r = round(q ** (1 / k))
        for c in (r - 1, r, r + 1):
            if c ** k == q:
                return _is_prime_power(c)
    return _is_prime(q)


#: Exhaustive all-nonzero search is used when q^(p*p) stays below this.
EXHAUSTIVE_LIMIT = 1 << 20


class KroneckerResult(namedtuple("KroneckerResult", (
        "matrix", "factor_a", "factor_b", "exhaustive", "trials"))):
    """Outcome of the Kronecker-product construction attempt.

    matrix is the (p^2, p) block invertible square matrix A (x) B on
    success and None when no invertible all-nonzero A was found; in the
    latter case `exhaustive` distinguishes a proof of nonexistence from
    an inconclusive capped random search.
    """

    __slots__ = ()

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
    all-nonzero candidates with `_draw(..., low=1)` and a miss is merely
    inconclusive. `trials` counts the candidates tried. A negative
    max_trials raises ValueError.
    """
    _check_min_block_size(p)
    if max_trials < 0:
        raise ValueError(f"trial cap {_clip(str(max_trials))} is negative")
    # q >= 2, so p*p > 20 already puts q^(p*p) past the limit, and the
    # power is never formed for a large p
    exhaustive = p * p <= 20 and field.order ** (p * p) <= EXHAUSTIVE_LIMIT
    candidates = (_all_nonzero_matrices(p, field) if exhaustive else
                  (_draw(p, field, rng, low=1) for _ in range(max_trials)))
    a, trials = None, 0
    for trials, m in enumerate(candidates, 1):
        if m.rank() == p:
            a = m
            break
    if a is None:
        return KroneckerResult(None, None, None, exhaustive, trials)
    b = random_invertible(p, field, rng)
    return KroneckerResult(a.kron(b), a, b, exhaustive, trials)


def _all_nonzero_matrices(p: int, field: FieldSpec):
    """All p x p matrices with every entry nonzero, in row-major code order."""
    for codes in itertools.product(range(1, field.order), repeat=p * p):
        yield Matrix._new(field, tuple(
            codes[i * p:(i + 1) * p] for i in range(p)))
