"""The four immutable records: ``Sextuple``, ``LinearAuto2``, ``CheckReport``
and ``CenterLattice``.  They keep a frozen dataclass's value semantics
(reprs, equality, hashing, pickling, copying, no assignment) without
importing ``dataclasses``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qtriangular
from qtriangular import CheckReport, LinearAuto2, Sextuple, build
from qtriangular.coeff import qpow
from qtriangular.qalgebra import center_lattice


def _records():
    return [
        Sextuple(qpow(1), 1, 1, 0, 2, -1),
        Sextuple.identity(),
        LinearAuto2(1, ((1, 0), (0, 1))),
        CheckReport("x", 2, True),
        CheckReport("x", 2, False, ("a", "b", "c")),
        center_lattice(build(2)),
        center_lattice(build(3, True)),
    ]


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qtriangular\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    src = str(Path(qtriangular.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_reprs_are_pinned():
    assert list(map(repr, _records())) == [
        "Sextuple(l12=q, l11=1, l22=1, j=0, k=2, l=-1)",
        "Sextuple(l12=1, l11=1, l22=1, j=0, k=0, l=0)",
        "LinearAuto2(lam=1, mat=((1, 0), (0, 1)))",
        "CheckReport(name='x', n=2, passed=True, witness=None)",
        "CheckReport(name='x', n=2, passed=False, witness=('a', 'b', 'c'))",
        "CenterLattice(kernel_basis=((1, 0, -1),), generators=(), violations=((1, 0, -1),))",
        "CenterLattice(kernel_basis=((1, 0, 0, -1, 0, 1), (0, 1, -1, -1, 1, 0)), "
        "generators=((1, 0, 0, -1, 0, 1),), violations=((0, 1, -1, -1, 1, 0),))",
    ]


@pytest.mark.parametrize("record", _records(), ids=repr)
def test_fields_cannot_be_assigned_or_deleted(record):
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equality_and_hash_agree():
    a, b = _records(), _records()
    for x, y in zip(a, b):
        assert x is not y and x == y and hash(x) == hash(y)
    # equal fields in another class, or no record at all, compare unequal
    assert len(set(a)) == len(a)
    assert Sextuple.identity() != Sextuple(1, 1, 1, 0, 0, 1)
    assert CheckReport("x", 2, True) != ("x", 2, True, None)
    assert CheckReport("x", 2, True).__eq__(("x", 2, True, None)) is NotImplemented


@pytest.mark.parametrize("record", _records(), ids=repr)
def test_pickle_and_copy_round_trip(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)
