"""Jordan identity verification and unit detection.

The operators L_x, D_{x,y} and U_{x,y} have no dense form here: the identity
checks contract them as integer tensors (supertkk.tensor), both identities
on L read the one stack of the [L_a, L_b] (`structure.l_brackets`), and the
triple, D and U are read off the one triple tensor of `structure.double`
(`structure.istr_tilde`, `structure.str_w`)."""

from __future__ import annotations

from supertkk import tensor
from supertkk.exact import GeneratedSpan, int_dtype
from supertkk.structure import double, l_brackets
from supertkk.superspace import SuperAlgebra, Witness, check_supercommutative, memoized


def check_jordan_identity(V: SuperAlgebra) -> Witness | None:
    """(-1)^{|x||z|}[L_x,L_{yz}] + (-1)^{|y||x|}[L_y,L_{zx}] + (-1)^{|z||y|}[L_z,L_{xy}] = 0
    on homogeneous basis triples (super-commutators of operators)."""
    w = check_supercommutative(V)
    if w is not None:
        return w
    at = tensor.jordan_defect(V, l_brackets(V).blocks[0])
    return at and Witness(at, "Jordan identity fails at basis triple ({},{},{})".format(*at))


def check_commutator_identity(V: SuperAlgebra) -> Witness | None:
    """[[L_x,L_y],L_z] = L_{x(yz)} - (-1)^{|x||y|} L_{y(xz)} on basis triples,
    i.e. [A, L_z] = L_{Az} for A = [L_x,L_y]: the derivation defect of
    `l_brackets` (`tensor.derivation_defect`), at operator x n + y and z."""
    B = l_brackets(V)
    hit = tensor.derivation_defect(V, B.blocks[0], B.parities)
    at = hit and (*divmod(hit[0], V.dim), hit[1])
    return at and Witness(at, "operator identity fails at basis triple ({},{},{})".format(*at))


def check_triple_symmetry(V: SuperAlgebra) -> Witness | None:
    """{x,y,z} = (-1)^{|x||y|+|y||z|+|x||z|} {z,y,x} on basis triples."""
    at = tensor.outer_symmetry_defect(double(V).tensors[0], V.parities, V.parities)
    return at and Witness(at, "triple symmetry fails at ({},{},{})".format(*at))


def check_five_linear(V: SuperAlgebra) -> Witness | None:
    """The operator form of the 5-linear identity,

    [D_{x,y}, D_{u,v}] = D_{{x,y,u},v} - (-1)^{(|x|+|y|)(|u|+|v|)} D_{u,{v,x,y}},

    over all homogeneous basis 4-tuples, the first failing one in C order.
    Its second shape, [D_{x,y}, D_{u,v}] = D_{x,{y,u,v}} - s D_{{u,v,x},y},
    needs no scan: applied to w, it is at (x, y, u, v) -s times the first at
    (u, v, x, y), as s is symmetric and s^2 = 1.
    """
    T = double(V).tensors[0]
    hit = tensor.five_linear_defect(T, T, V.parities, V.parities)
    return hit and Witness(hit[:4], "5-linear identity fails at ({},{},{},{})".format(*hit[:4]))


@memoized
def find_unit(V: SuperAlgebra):
    """The unit solving e*b_i = b_i for all basis b_i, or None if inconsistent;
    memoized, as V is immutable.

    Non-uniqueness (possible only with zero multiplication directions) is
    reported as an error rather than an arbitrary pick.
    """
    import numpy as np
    n = V.dim
    # unknown j contributes e_j * b_i at coordinate k of row (i, k): the
    # entry (j, i, k, v) puts v / d at column i n + k of generator j
    t = V.int_table
    rows = np.zeros((n, n * n), dtype=t.value.dtype)
    rows[t.i, t.j * n + t.k] = t.value
    gens = GeneratedSpan(rows, n * n)
    x = gens.express((np.eye(n, dtype=int_dtype(V.d)) * V.d).reshape(n * n))
    if x is None:
        return None
    if gens.dim < n:
        raise ValueError("unit system is underdetermined: unit not unique")
    return x
