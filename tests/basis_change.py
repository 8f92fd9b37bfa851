"""Changes of basis of an instance file, shared by the tests.

transport moves an instance along given invertible maps P_A and P_C;
conjugate draws them seeded, upper-triangular with ones on the diagonal,
or with lu=True the product L U of such a U and a unit lower-triangular
L, which is not triangular; both are invertible over any ring.  A map
X1..Xk -> Y1..Ym becomes (P_Y1 (x) .. (x) P_Ym) o t o (P_X1^-1 (x) ..
(x) P_Xk^-1); the grouplike moves along P_C and the coinvariant
subalgebra along P_A.  Every check status and solution dimension is
unchanged while the numbers are not, except the statuses that follow
the solver's choice of section (see test_basis_invariance).
"""

import random

from strongconn.fileformat import InstanceFile
from strongconn.linmaps import LinMap, SpaceLabel, Subspace, kron_all, try_inverse


def transport(inst: InstanceFile, fwd: dict) -> InstanceFile:
    """inst moved along the invertible maps fwd["A"] and fwd["C"], built
    from public LinMap operations only."""
    field = inst.field
    inv = {name: try_inverse(p) for name, p in fwd.items()}
    one = LinMap.identity(field, SpaceLabel.scalar())

    def along(maps):
        return kron_all(*maps) if maps else one

    tensors = {key: along([fwd[n] for n, _ in t.codomain.factors]) @ t @
               along([inv[n] for n, _ in t.domain.factors])
               for key, t in inst.tensors.items()}
    grouplike = None if inst.grouplike is None else fwd["C"] @ inst.grouplike
    b_sub = None if inst.b_subspace is None else \
        Subspace.image(fwd["A"] @ inst.b_subspace.inclusion())
    return InstanceFile(inst.name, field, dict(inst.spaces), tensors,
                        dict(inst.designations), grouplike, b_sub)


def conjugate(inst: InstanceFile, seed: int, entries=(-1, 0, 1),
              lu: bool = False) -> InstanceFile:
    """inst moved along seeded unimodular changes of basis U, or L U with
    lu=True; the entries off the diagonal are drawn from entries."""
    rng = random.Random(seed)
    fwd = {}
    for name, dim in sorted(inst.spaces.items()):
        space = SpaceLabel.base(name, dim)

        def unit_triangular(upper):
            return LinMap(inst.field, space, space, [
                [rng.choice(entries) if j != i and (j > i) == upper else int(j == i)
                 for j in range(dim)] for i in range(dim)])
        fwd[name] = unit_triangular(True)
        if lu:
            fwd[name] = unit_triangular(False) @ fwd[name]
    return transport(inst, fwd)
