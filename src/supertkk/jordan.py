"""Jordan identity verification and unit detection.

The operators L_x, D_{x,y} and U_{x,y} have no dense form here: the identity
checks contract them as integer tensors (supertkk.tensor), L is
`structure.l_stack`, and D and U are read off `tensor.triple_tensor`
(`structure.istr_tilde`, `structure.str_w`)."""

from __future__ import annotations

from supertkk import tensor
from supertkk.exact import GeneratedSpan, int_dtype
from supertkk.superspace import SuperAlgebra, Witness, check_supercommutative, memoized


def check_jordan_identity(V: SuperAlgebra) -> Witness | None:
    """(-1)^{|x||z|}[L_x,L_{yz}] + (-1)^{|y||x|}[L_y,L_{zx}] + (-1)^{|z||y|}[L_z,L_{xy}] = 0
    on homogeneous basis triples (super-commutators of operators)."""
    w = check_supercommutative(V)
    if w is not None:
        return w
    at = tensor.jordan_defect(V)
    return at and Witness(at, "Jordan identity fails at basis triple ({},{},{})".format(*at))


def check_commutator_identity(V: SuperAlgebra) -> Witness | None:
    """[[L_x,L_y],L_z] = L_{x(yz)} - (-1)^{|x||y|} L_{y(xz)} on basis triples."""
    at = tensor.commutator_defect(V)
    return at and Witness(at, "operator identity fails at basis triple ({},{},{})".format(*at))


def check_triple_symmetry(V: SuperAlgebra) -> Witness | None:
    """{x,y,z} = (-1)^{|x||y|+|y||z|+|x||z|} {z,y,x} on basis triples."""
    at = tensor.outer_symmetry_defect(tensor.triple_tensor(V)[0], V.parities, V.parities)
    return at and Witness(at, "triple symmetry fails at ({},{},{})".format(*at))


def check_five_linear(V: SuperAlgebra) -> Witness | None:
    """The operator form of the 5-linear identity, in both of its shapes:

    [D_{x,y}, D_{u,v}] = D_{{x,y,u},v} - (-1)^{(|x|+|y|)(|u|+|v|)} D_{u,{v,x,y}}
                       = D_{x,{y,u,v}} - (-1)^{(|x|+|y|)(|u|+|v|)} D_{{u,v,x},y}

    over all homogeneous basis 4-tuples; the first is the superpair form.
    """
    T, _ = tensor.triple_tensor(V)
    hit = tensor.five_linear_defect(T, T, V.parities, V.parities, both_forms=True)
    return hit and Witness(hit[1], "5-linear identity (form {}) fails at ({},{},{},{})"
                           .format(hit[0], *hit[1]))


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
