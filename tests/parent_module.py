"""The module identity as it was summed before modules were checked as
structures on the semidirect sum, kept as the reference for
``LInftyModule.semidirect``.

``module_residual`` is the previous function of that name, verbatim except
that it calls ``act(M, ...)`` where it called the former method
``M.act(...)``.  ``act`` is that method as a function: the program applies
an action only inside the semidirect brackets, so the one-action-at-a-time
reader is a tool for the reference and for the module-morphism checker of
the tests.
"""

from itertools import combinations

from formality_lab.core.signs import decalage_sign, unshuffle_sign
from formality_lab.linfty import _accumulate


def act(M, p, xs, m):
    """actions[p] of the module ``M`` on (xs, m), or None if it has none."""
    fn = M.actions.get(p)
    if fn is None:
        return None
    return fn(list(xs), m)


def module_residual(M, elements, m):
    """The module identity combines two families: brackets feeding the
    action, and nested actions.  The nested family carries the extra sign
    of the odd inner operator passing the untouched front block."""
    S = M.structure
    n = len(elements)
    degs = [S.degree(x) for x in elements]
    mdeg = M.mdegree(m)
    acc = None

    # family 1: l_p on a block, then the action of what remains
    for p in range(1, n + 1):
        if p not in S.brackets:
            continue
        for I in combinations(range(n), p):
            block = [elements[i] for i in I]
            inner = S.apply(p, block)
            if inner is None or inner.is_zero():
                continue
            rest_idx = [i for i in range(n) if i not in I]
            if (len(rest_idx) + 1) not in M.actions:
                continue
            eps = unshuffle_sign(n, I, degs, shift=1)
            th_in = decalage_sign([degs[i] for i in I])
            ideg = sum(degs[i] for i in I) + 2 - p
            outer_degs = [ideg] + [degs[i] for i in rest_idx] + [mdeg]
            th_out = decalage_sign(outer_degs)
            term = act(
                M, len(rest_idx) + 1, [inner] + [elements[i] for i in rest_idx], m
            )
            acc = _accumulate(acc, eps * th_in * th_out, term)

    # family 2: act with one block on m, then act with the complement
    for q in range(0, n + 1):
        if q not in M.actions:
            continue
        for J in combinations(range(n), q):
            rest_idx = [i for i in range(n) if i not in J]
            if len(rest_idx) not in M.actions:
                continue
            inner = act(M, q, [elements[i] for i in J], m)
            if inner is None or inner.is_zero():
                continue
            eps = unshuffle_sign(n, tuple(rest_idx), degs, shift=1)
            # the inner (odd) operator passes the untouched front block
            pass_sign = -1 if sum(degs[i] - 1 for i in rest_idx) % 2 else 1
            th_in = decalage_sign([degs[i] for i in J] + [mdeg])
            inner_mdeg = sum(degs[i] for i in J) + mdeg + 1 - q
            th_out = decalage_sign([degs[i] for i in rest_idx] + [inner_mdeg])
            term = act(M, len(rest_idx), [elements[i] for i in rest_idx], inner)
            acc = _accumulate(acc, eps * pass_sign * th_in * th_out, term)

    return acc
