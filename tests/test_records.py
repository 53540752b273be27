"""The value records: equality, hashing, immutability and field checks,
and the start-up cost of importing the CLI."""

import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kdvtau
from kdvtau.grassmann import AffineTable, GrassmannPoint, ZTable
from kdvtau.report import VerificationReport
from kdvtau.exactnum import Record
from kdvtau.schur import GradedPoly
from kdvtau.series import LaurentSeries, MatrixSeries
from kdvtau.tau import CorrelatorSpec, TauSeries
from kdvtau.zhou import rescale_B

F = Fraction


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(kdvtau.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import kdvtau.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def tail(*values):
    """1 + values[0] lam^-1 + values[1] lam^-2 + ..., exact through lam^-5."""
    return LaurentSeries.from_dict({0: 1, **{-i - 1: v for i, v in enumerate(values)}}, 5)


# record type -> (fields of one record, fields of a record that differs in one of them);
# each call builds fresh field objects
RECORDS = {
    LaurentSeries: lambda: ((((-1, F(2)),), 3), (((-1, F(2)),), 4)),
    MatrixSeries: lambda: (((1, 2), ((1, 0, 0, 1), (0, 1, 0, 0))), ((1, 2), ((1, 0, 0, 1), (0, -1, 0, 0)))),
    GrassmannPoint: lambda: ((tail(2), tail(0, 1)), (tail(2), tail(0, 2))),
    ZTable: lambda: (
        ((((1, 0, 0, 1),),), MatrixSeries((1, 2), ((1, 0, 0, 1), (0, 1, 0, 0)))),
        ((((0, 0, 0, 0),),), MatrixSeries((1, 2), ((1, 0, 0, 1), (0, 1, 0, 0)))),
    ),
    AffineTable: lambda: ((1, 1, {(1, 0): F(1)}, "zhou"), (1, 1, {(1, 0): F(1)}, "grassmann")),
    GradedPoly: lambda: (("theta", {((1, 2),): F(2)}, 5), ("theta", {((1, 2),): F(2)}, 6)),
    TauSeries: lambda: (
        (GradedPoly("theta", {(): F(1)}, 3), 3),
        (GradedPoly("theta", {(): F(1)}, 3), 2),
    ),
    CorrelatorSpec: lambda: (((1, 2),), ((1, 3),)),
    VerificationReport: lambda: (
        ("suite", "depth 3", False, []),
        ("suite", "depth 3", False, ["mismatch"]),
    ),
}


def test_records_table_lists_every_record_class():
    for module in pkgutil.iter_modules(kdvtau.__path__):
        importlib.import_module(f"kdvtau.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("kdvtau."):
                found.add(cls)
            todo.append(cls)
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields, changed = RECORDS[cls]()
    x, y = cls(*fields), cls(*RECORDS[cls]()[0])
    assert x == y and not x != y
    assert x != cls(*changed)
    assert x != fields  # never equal to a plain tuple
    assert pickle.loads(pickle.dumps(x)) == x
    name = next(iter(inspect.signature(cls).parameters))  # the first field
    assert repr(x).startswith(f"{cls.__name__}({name}={getattr(x, name)!r}")
    try:
        hash(fields)
    except TypeError:  # a field holds a dict or list: a table, polynomial or failure list
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(y, name))
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == y


@pytest.mark.parametrize("make", [
    lambda: TauSeries(GradedPoly("theta", {(): F(2)}, 3), 3),
    lambda: TauSeries(GradedPoly("theta", {((1, 1),): F(1)}, 3), 3),
    lambda: GrassmannPoint(LaurentSeries.from_dict({1: 1, 0: 1}, 5), tail()),
    lambda: GrassmannPoint(tail(), LaurentSeries.from_dict({0: 2, -1: 1}, 5)),
    lambda: rescale_B(-1, 0),
    lambda: rescale_B(0, -1),
], ids=[
    "tau-constant-2", "tau-no-constant", "point-not-a-tail", "point-not-unit",
    "zhou-negative-row", "zhou-negative-col",
])
def test_record_rejects_invalid_fields(make):
    with pytest.raises(ValueError):
        make()
