"""Binary linear codes from trace defining sets over GF(2^m).

Builds the defining-set code families driven by the exponent 2^h + 1,
computes exact weight distributions by enumeration, evaluates the
underlying Weil sums both directly and in closed form, verifies the
closed-form distribution tables, and tests secret-sharing suitability.

The API lives in the submodules gf2m, weil, code and predict; import
them directly, e.g. ``from tracecodes import code, gf2m``.
"""

__version__ = "0.1.0"
