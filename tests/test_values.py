"""Value semantics of the library's and the claim engine's immutable classes.

Each is a slotted tuple: equal fields give equal values with equal hashes,
no attribute can be assigned, a checked constructor runs its checks once
(and again when a value is unpickled, copied, replaced or remade), and the
unchecked builders give the same values as the checked constructors.
"""

import copy
import pickle

import pytest

from setdev.abgroup import FinAbGroup, GroupDeviation, GroupHom, _hom
from setdev.chu import ChuMorphism, ChuSpace
from setdev.finset import (
    Classification,
    Deviation,
    Factorization,
    FiniteSet,
    Mapping,
    Partition,
    _finite_set,
    _mapping,
    _partition,
)
from setdev.verifier import Claim, Domain, Report, Universe

_ONE, _TWO, _THREE = FiniteSet(1), FiniteSet(2), FiniteSet(3)
_F = Mapping(_THREE, _TWO, (0, 0, 1))
_GLUED = Partition(_THREE, (0b011, 0b100))
_Z2, _Z4 = FinAbGroup((2,)), FinAbGroup((4,))

# class -> (valid fields, fields its checks refuse or None for a class without checks)
VALUES = {
    FiniteSet: ((3,), (-1,)),
    Partition: ((_THREE, (0b011, 0b100)), (_THREE, (0b011,))),
    Mapping: ((_THREE, _TWO, (0, 0, 1)), (_THREE, _TWO, (0, 2, 1))),
    Deviation: ((_GLUED, _TWO, 0), (_GLUED, _TWO, 0b100)),
    Factorization: ((_F, _F, _F), None),
    Classification: ((False, True, False, False), None),
    FinAbGroup: (((2, 4),), ((4, 2),)),
    GroupHom: ((_Z2, _Z4, ((2,),)), (_Z2, _Z4, ((1,),))),
    GroupDeviation: ((_Z2, _Z4), None),
    ChuSpace: ((_ONE, _TWO, _TWO, ((0, 1),)), (_ONE, _TWO, _TWO, ((0, 2),))),
    ChuMorphism: ((_F, _F), None),
    Universe: ((4, 3, 12, 4), (-1, 3, 12, 4)),
    Domain: (("max_set_size", 3, range), None),
    Report: (("0.3", "verified", "verified", None, 27, 1.5), None),
}
_IDS = [cls.__name__ for cls in VALUES]


@pytest.mark.parametrize("cls", VALUES, ids=_IDS)
def test_equal_fields_give_equal_values_with_equal_hashes(cls):
    fields, _ = VALUES[cls]
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert type(a) is cls and tuple(a) == fields
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(cls._fields, fields)) + ")"


@pytest.mark.parametrize("cls", VALUES, ids=_IDS)
def test_values_refuse_attribute_assignment(cls):
    value = cls(*VALUES[cls][0])
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls", VALUES, ids=_IDS)
def test_pickle_copy_and_replace_rerun_the_checks(cls):
    fields, bad = VALUES[cls]
    value = cls(*fields)
    round_trips = [
        lambda v: pickle.loads(pickle.dumps(v)),
        copy.copy,
        copy.deepcopy,
        lambda v: v._replace(),
        lambda v: cls._make(v),
    ]
    for round_trip in round_trips:
        again = round_trip(value)
        assert again == value and type(again) is cls
    if bad is not None:
        with pytest.raises(ValueError):
            cls(*bad)
        # A tuple built without the checks is refused when it is rebuilt.
        unchecked = tuple.__new__(cls, bad)
        for round_trip in round_trips:
            with pytest.raises(ValueError):
                round_trip(unchecked)


@pytest.mark.parametrize(
    "cls, build",
    [(FiniteSet, _finite_set), (Mapping, _mapping), (Partition, _partition), (GroupHom, _hom)],
    ids=["_finite_set", "_mapping", "_partition", "_hom"],
)
def test_unchecked_builders_build_the_checked_values(cls, build):
    fields, _ = VALUES[cls]
    built = build(*fields)
    assert type(built) is cls and built == cls(*fields) and hash(built) == hash(cls(*fields))


@pytest.mark.parametrize("cls, build", [(Mapping, _mapping), (GroupHom, _hom)], ids=["Mapping", "GroupHom"])
def test_post_init_hook_runs_once_per_checked_construction(monkeypatch, cls, build):
    # perfbench counts the calls of these hooks as Mapping.new and GroupHom.new.
    fields, bad = VALUES[cls]
    honest, calls = cls.__post_init__, []

    def counted(self):
        calls.append(self)
        honest(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    value = cls(*fields)
    assert calls == [value]
    build(*fields)
    build(*bad)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        cls(*bad)
    assert len(calls) == 2
    # The hook holds the checks: without it a bad value passes.
    monkeypatch.setattr(cls, "__post_init__", lambda self: None)
    assert tuple(cls(*bad)) == bad


def test_claims_compare_without_their_checks():
    domain = Domain("max_set_size")
    a, b = Claim("c", domain, "verified", lambda x: None), Claim("c", domain, "verified", lambda x: 1)
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"Claim(id='c', domain={domain!r}, expected='verified')"
    for other in (a._replace(id="d"), a._replace(domain=Domain("max_powerset_base")), a._replace(expected="skipped")):
        assert a != other and not a == other
    assert a != tuple(a)
    with pytest.raises(AttributeError):
        a.check = None
