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

from enum import Enum

# The two generation settings that the CLI's parser needs for every
# subcommand, `verify` included, are defined here rather than in
# `construct`, so that building the parser imports no generator.

#: Seed used by the CLI and GeneratorConfig when none is given.
DEFAULT_SEED = 0xB10CC0DE


class StripChoice(Enum):
    """Which block-row/block-column of M becomes the border strips X and Y."""

    FIRST = "first"
    LAST = "last"
    RANDOM = "random"


# Every other public name is imported from its module on first use
# (PEP 562 module __getattr__), so a process that only verifies never
# imports `construct`, `decompose` or `rng`.
_EXPORTS = {
    "construct": ("GeneratorConfig", "KroneckerResult",
                  "NotBlockInvertibleError", "corner_completion", "extend",
                  "generate", "gl_count", "kronecker_generate",
                  "perturbation_matrix", "random_invertible"),
    "decompose": ("RankDecomposition", "rank_decompose", "rank_normal_form"),
    "field": ("BINARY", "PRIME", "DegreeMismatchError", "FieldError",
              "FieldSpec", "NotPrimeError", "ReduciblePolynomialError",
              "UnsupportedSizeError", "binary_field", "parse_field",
              "prime_field"),
    "matrix": ("FieldMismatchError", "Matrix", "SingularMatrixError"),
    "matrixfile": ("MatrixFileError",),
    "rng": ("SplitMix64",),
    "verify": ("BlockReport", "render_report", "render_report_json",
               "report_as_dict", "verify_blocks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(["DEFAULT_SEED", "StripChoice", *_MODULE_OF])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value
