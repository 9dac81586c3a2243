from .signs import koszul_sign, unshuffle_sign, decalage_sign
from .series import FormalSeries, WindowOverflow, series_mul
from .basis import Sparse, add_term, rational, vec, vadd_into
from .linalg import rank_kernel, solve

__all__ = [
    "koszul_sign", "unshuffle_sign", "decalage_sign",
    "FormalSeries", "WindowOverflow", "series_mul",
    "Sparse", "add_term", "rational", "vec", "vadd_into",
    "rank_kernel", "solve",
]
