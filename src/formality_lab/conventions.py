"""The convention ledger.

Every sign, pairing, and normalization this package had to pin down lives
here as one named entry, and the sha256 of the rendered document is stamped
into every report.  Numbers quoted without the ledger hash are not
reproducible claims; with it they are.

The entries state what the code does, in the code's own vocabulary.  The
tests freeze each one; this module only collects them so they can be
shipped and hashed as a single document.
"""

import hashlib

LEDGER = (
    ("exact-arithmetic",
     "All scalars are exact rationals: an int when the value is integral, "
     "a Fraction otherwise; there are no floats and no tolerances anywhere "
     "in the package."),
    ("suspension-signs",
     "Graded symmetry signs are computed on degrees shifted down by one "
     "(core.signs, shift 1); unshuffle sums dress raw multilinear tables "
     "on the fly."),
    ("circle-insertion",
     "The cochain circle product inserts the second operation into each "
     "slot of the first with sign (-1)^((i-1)(|E|-1)) for slot i; composing "
     "two arity-0 operations is zero."),
    ("cochain-differential",
     "The cochain differential is the bracket with the multiplication "
     "cochain, delta = [m, .]; it derives the cup product with the sign "
     "(-1)^arity on the left factor."),
    ("chain-wraparound",
     "The chain differential's wrap term and the cochain action on chains "
     "carry the cyclic sign conventions fixed by b = L_m and "
     "[L_D, L_E] = L_[D,E] holding exactly."),
    ("connes-normalization",
     "The degree-raising cyclic operator inserts the unit in front of "
     "every cyclic rotation with no extra normalization; the chain-to-form "
     "map divides by n! at arity n."),
    ("pairing-determinant",
     "Multivectors pair with forms by the determinant of the slot pairing, "
     "so the area bivector against its own area form gives +1."),
    ("iterated-contraction",
     "Contraction by a wedge of vector fields is the composition of the "
     "single contractions read left to right, so the area bivector "
     "contracts its area form to -1."),
    ("multivector-transport",
     "Transport along a degree-k multivector is "
     "d . contract - (-1)^k contract . d."),
    ("schouten-signs",
     "The odd multivector bracket uses the half-bracket difference with "
     "signs fixed by the transport identity; the self-obstruction of a "
     "bivector is half its self-bracket."),
    ("multivector-to-operator",
     "The multivector-to-operator arrow expands the pairing determinant "
     "with unit coefficients (no 1/k!); as a homotopy-morphism first term "
     "its failure against cup products is delta-exact, exhibited by "
     "explicit primitives."),
    ("mc-normalization",
     "The curvature of a degree-one series sums [pi,...,pi]_n / n!; flat "
     "elements are its zeros."),
    ("star-corrections",
     "Star products store corrections per order with no hidden factorials; "
     "the constant-coefficient exponential product puts 1/m! times the "
     "m-fold matrix power at order m, and its leading antisymmetric part "
     "doubles the upper-triangular matrix entry."),
    ("star-complex-home",
     "A star product's correction tower is read as a flat element of the "
     "untruncated operator complex."),
    ("bv-extension",
     "The square-zero extension multiplies the odd generator on the "
     "right; its derivation defect generates the bracket with the sign "
     "(-1)^|x| [x, y]."),
    ("weight-windows",
     "The deformation weight t is an ideal above its cap (terms drop "
     "silently) and an error below its floor; the periodicity weight u is "
     "a hard window on both sides."),
    ("pipeline-contraction",
     "The flat-model pipeline contracts with the OPPOSITE sign of "
     "cartan.contract, so each symplectic plane's area form contracts to "
     "+1; transport along the bivector keeps the cartan convention.  This "
     "single sign makes both exponential conjugations and the contraction "
     "identity exp(z i)(w^n/n!) = z^n exp(w/z) exact."),
    ("post-star-parity",
     "The duality star exchanges d and transport only up to (-1)^(deg+1), "
     "and no per-degree rescaling fixes both exchanges at once; the "
     "complexes downstream of the star carry that parity in their "
     "differentials, which changes no kernel, image, or class."),
    ("frame-pairing-dual",
     "The bivector dual to a constant frame pairing is minus the inverse "
     "of the pairing matrix, so the tangent plane with the standard area "
     "pairing gets the standard Poisson bivector, bracket {x, y} = +1."),
)


def ledger_text():
    lines = ["convention ledger, version 1", ""]
    for i, (key, body) in enumerate(LEDGER, 1):
        lines.append(f"{i:2d}. {key}: {body}")
    return "\n".join(lines) + "\n"


def ledger_hash():
    return hashlib.sha256(ledger_text().encode("utf-8")).hexdigest()
