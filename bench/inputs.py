"""Workload definitions and seeded generation of their instance files.

The program under test only ever sees the files written here.  Every
generated workload is a library builder from `strongconn.instances`
followed by a change of basis that the seed selects; the change of basis
is built from public `LinMap` operations only, so the benchmark does not
depend on any helper the program might later drop.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass

from strongconn.fileformat import InstanceFile, write_instance
from strongconn.golden import instance_from_extension
from strongconn.instances import build_graded_extension, cyclic_group_hopf
from strongconn.linmaps import LinMap, SpaceLabel, kron_all, try_inverse
from strongconn.scalars import Field

FORMULA_STAGES = "validate,cointegral,integral,section,connection,verify,splitting"

GOLDEN_FILES = (
    "graded_n2_t2", "graded_n3_t1_cyclotomic", "group_self_z2",
    "group_self_z4", "homogeneous_z4_z2", "sweedler_h4", "trivial_dim2",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    field: str | None = None   # "Q" or "Q(zeta3)"; None for the golden files
    n: dict | None = None      # graded_n<n> per size: {"full": .., "tiny": ..}
    basis: str = ""            # "signed-permutation" or "dense"
    stages: str | None = None  # None runs the default stages


WORKLOADS = {w.name: w for w in (
    Workload(
        "golden",
        why="the seven committed golden files with default stages: today's "
            "real traffic, many small files, so per-file parse, validation and "
            "report costs count; the seed does not change it"),
    Workload(
        "oracle-q",
        why="graded_n5 over Q with the oracle: probing assembly and one large, "
            "sparse elimination do most of the work",
        field="Q", n={"full": 5, "tiny": 3}, basis="signed-permutation"),
    Workload(
        "construct-q",
        why="graded_n6 over Q, formula stages only: compose and kron do the "
            "work and the oracle is bypassed",
        field="Q", n={"full": 6, "tiny": 3}, basis="signed-permutation",
        stages=FORMULA_STAGES),
    Workload(
        "dense-cyclotomic",
        why="graded_n4 over Q(zeta3) in a filled-in seeded basis: every scalar "
            "is a two-coefficient tuple, so a Q-only fast path does not help it; "
            "the oracle's system is still mostly zeros",
        field="Q(zeta3)", n={"full": 4, "tiny": 2}, basis="dense"),
)}


def make_field(name: str) -> Field:
    if name == "Q":
        return Field.rationals()
    return Field.number_field([1, 1, 1])


def standard_instance(w: Workload, size: str) -> InstanceFile:
    """The library instance of a generated workload, in its own basis."""
    field = make_field(w.field)
    n = w.n[size]
    ext = build_graded_extension(n, 2, field)
    return instance_from_extension(f"graded_n{n}_t2", ext,
                                   c_hopf=cyclic_group_hopf(n, field))


def change_of_basis(field: Field, space: SpaceLabel, kind: str,
                    rng: random.Random) -> LinMap:
    """A unimodular map with entries in {-1, 0, 1} chosen by rng.

    "signed-permutation" keeps every tensor as sparse as in the standard
    basis.  "dense" is a seeded diagonal of signs times the fixed all-ones
    upper triangle: every seed gives tensors of the same density, with the
    same entries up to sign, so the cost of a dense instance does not
    depend on the seed (a seeded permutation or seeded triangle entries
    moved the scalar operation count by up to 30 % between seeds).
    """
    signs = [rng.choice((1, -1)) for _ in range(space.dim)]
    if kind == "dense":
        return LinMap.from_rules(
            field, space, space,
            lambda j: [((i,), signs[i]) for i in range(j[0] + 1)])
    perm = list(range(space.dim))
    rng.shuffle(perm)
    return LinMap.from_rules(field, space, space,
                             lambda j: [((perm[j[0]],), signs[j[0]])])


def conjugate(inst: InstanceFile, kind: str, seed: int) -> InstanceFile:
    """Transport every tensor of inst along a seeded change of basis.

    A map X1..Xk -> Y1..Ym becomes (P_Y1 (x) .. (x) P_Ym) o t o
    (P_X1^-1 (x) .. (x) P_Xk^-1), so every check status and solution
    dimension is unchanged while the numbers in the file are not.
    """
    rng = random.Random(seed)
    field = inst.field
    fwd, inv = {}, {}
    for name, dim in sorted(inst.spaces.items()):
        space = SpaceLabel.base(name, dim)
        fwd[name] = change_of_basis(field, space, kind, rng)
        inv[name] = try_inverse(fwd[name])
    one = LinMap.identity(field, SpaceLabel.scalar())

    def along(maps):
        return kron_all(*maps) if maps else one

    tensors = {}
    for key, t in inst.tensors.items():
        left = along([fwd[n] for n, _ in t.codomain.factors])
        right = along([inv[n] for n, _ in t.domain.factors])
        tensors[key] = left @ t @ right
    grouplike = None if inst.grouplike is None else fwd["C"] @ inst.grouplike
    return InstanceFile(inst.name, field, dict(inst.spaces), tensors,
                        dict(inst.designations), grouplike)


def write_inputs(w: Workload, size: str, seed: int | None, root: str,
                 directory: str) -> tuple[list[str], float]:
    """Write the workload's instance files into directory.

    Returns the paths and the seconds spent in the library builders.
    seed None writes the standard-basis instance (used to record the
    expected outcomes); any integer selects a change of basis.
    """
    os.makedirs(directory, exist_ok=True)
    if w.field is None:
        paths = []
        for name in GOLDEN_FILES:
            path = os.path.join(directory, name + ".json")
            shutil.copyfile(os.path.join(root, "golden", name + ".json"), path)
            paths.append(path)
        return paths, 0.0
    t0 = time.perf_counter()
    inst = standard_instance(w, size)
    build_s = time.perf_counter() - t0
    if seed is not None:
        inst = conjugate(inst, w.basis, seed)
    path = os.path.join(directory, inst.name + ".json")
    write_instance(inst, path)
    return [path], build_s
