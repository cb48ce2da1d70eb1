"""Block invertible matrices over finite fields.

A square matrix partitioned into p x p blocks is block invertible when
every block is invertible; if the matrix itself is also invertible it is
an (n, p) block invertible square matrix. This package constructs such
matrices over GF(p) and GF(2^k) by an inductive bordering step that is
guaranteed to succeed over any field, verifies the property
independently, counts GL(p, q), and contrasts the construction with the
Kronecker-product method, whose required all-nonzero factor does not
always exist (it never does over GF(2)).
"""

from .construct import (DEFAULT_SEED, GeneratorConfig, KroneckerResult,
                        NotBlockInvertibleError, StripChoice,
                        corner_completion, extend, generate, gl_count,
                        kronecker_generate, perturbation_matrix,
                        random_invertible)
from .decompose import RankDecomposition, rank_decompose, rank_normal_form
from .field import (BINARY, PRIME, DegreeMismatchError, FieldError,
                    FieldSpec, NotPrimeError, ReduciblePolynomialError,
                    UnsupportedSizeError, binary_field, parse_field,
                    prime_field)
from .matrix import FieldMismatchError, Matrix, SingularMatrixError
from .matrixfile import MatrixFileError
from .rng import SplitMix64
from .verify import (BlockReport, render_report, render_report_json,
                     report_as_dict, verify_blocks)

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "BlockReport",
    "DEFAULT_SEED",
    "DegreeMismatchError",
    "FieldError",
    "FieldMismatchError",
    "FieldSpec",
    "GeneratorConfig",
    "KroneckerResult",
    "Matrix",
    "MatrixFileError",
    "NotBlockInvertibleError",
    "NotPrimeError",
    "PRIME",
    "RankDecomposition",
    "ReduciblePolynomialError",
    "SingularMatrixError",
    "SplitMix64",
    "StripChoice",
    "UnsupportedSizeError",
    "binary_field",
    "corner_completion",
    "extend",
    "generate",
    "gl_count",
    "kronecker_generate",
    "parse_field",
    "perturbation_matrix",
    "prime_field",
    "random_invertible",
    "rank_decompose",
    "rank_normal_form",
    "render_report",
    "render_report_json",
    "report_as_dict",
    "verify_blocks",
]
