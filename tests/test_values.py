"""Value semantics of brmult's immutable classes.

Every class below was a frozen dataclass; these tests pin the behaviour
callers rely on: equality by exact class and fields, a hash that equal
values share and that is computed once, construction by position or
keyword with defaults, no assignment, and the dataclass-style repr.
"""

from fractions import Fraction

import pytest

from brmult.cli import InstanceFile
from brmult.fields import QQ, PrimeField, RationalField, Value
from brmult.filtration import InclusionWitness, MixedFiltrationLevel
from brmult.modules import (
    DEFAULT_CUTOFF,
    FreeModuleSpec,
    LengthResult,
    ModulePresentation,
)
from brmult.multiplicity import (
    LocalQuery,
    LocalReport,
    MultiplicityReport,
    ProductQuery,
)
from brmult.polyfit import DEFAULT_WINDOW, LeadingForm, LengthTable
from brmult.rings import Polynomial, RingSpec, SubmoduleSpec, power_generators
from brmult.verify import VerificationReport


def ring():
    return RingSpec(RationalField(), ("x", "y"), ("T",))


def base_ring():
    return RingSpec(RationalField(), ("x", "y"), ())


def xT():
    return Polynomial(ring(), (((1, 0, 1), Fraction(1)),))


def submodule():
    return SubmoduleSpec(ring(), 1, (xT(),))


def ideal():
    x = Polynomial(base_ring(), (((1, 0), Fraction(1)),))
    return SubmoduleSpec(base_ring(), 0, (x,))


def module(r=None):
    return ModulePresentation(FreeModuleSpec(r or ring(), ((0, 0),)))


def table():
    return LengthTable(("p", "n"), (0, 0), (1, 2), (1, 2))


def leading():
    return LeadingForm(1, ("p", "n"), (((1, 0), 2), ((0, 1), 1)), (0, 0), 2)


# Each factory builds a fresh value, equal to the last one but not it.
FACTORIES = {
    RationalField: RationalField,
    PrimeField: lambda: PrimeField(7),
    RingSpec: ring,
    Polynomial: xT,
    SubmoduleSpec: submodule,
    FreeModuleSpec: lambda: FreeModuleSpec(ring(), ((0, 0), (1, 0))),
    ModulePresentation: lambda: ModulePresentation(
        FreeModuleSpec(ring(), ((0, 0),)), ((xT(),),)
    ),
    LengthResult: lambda: LengthResult(3, (1, 2, 0), 2),
    LengthTable: table,
    LeadingForm: leading,
    ProductQuery: lambda: ProductQuery(module(), (submodule(), submodule()), 2),
    LocalQuery: lambda: LocalQuery(module(base_ring()), ideal(), k=1),
    MultiplicityReport: lambda: MultiplicityReport(
        table(), leading(), 1, "krull-1", 1, ((0, 0),), False
    ),
    LocalReport: lambda: LocalReport(
        table(), leading(), 1, 1, "krull", 2, 1, False
    ),
    MixedFiltrationLevel: lambda: MixedFiltrationLevel(
        submodule(), submodule(), 1, 0, 1, (xT(),)
    ),
    InclusionWitness: lambda: InclusionWitness("a", 1, False, "x*T", (1, 1)),
    VerificationReport: lambda: VerificationReport(
        "telescoping", "here", (("p=0", 1),), (("p=0", 1),), True
    ),
    InstanceFile: lambda: InstanceFile(
        RationalField(), ring(), module(), (("H", submodule()),), {"r": 2}
    ),
}
CLASSES = list(FACTORIES)


def test_every_value_class_is_covered():
    assert set(Value.__subclasses__()) == set(CLASSES)
    assert len(CLASSES) == 18


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_copies_compare_and_hash_equal(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls
    assert a is not b
    assert a == b and not a != b
    if cls is InstanceFile:
        with pytest.raises(TypeError):  # its settings field is a dict
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_on_another_class_compare_unequal(cls):
    a = FACTORIES[cls]()
    twin = type("Twin", (cls,), {})(*[getattr(a, f) for f in cls._fields])
    assert twin != a and a != twin
    assert [getattr(twin, f) for f in cls._fields] == [
        getattr(a, f) for f in cls._fields
    ]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_construction_and_no_assignment(cls):
    a = FACTORIES[cls]()
    assert cls(**{f: getattr(a, f) for f in cls._fields}) == a
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert FACTORIES[cls]() == a


def test_defaults_and_bad_arguments():
    assert InclusionWitness("a", 1, True) == InclusionWitness("a", 1, True, None, None)
    assert ModulePresentation(FreeModuleSpec(ring(), ((0, 0),))).relations == ()
    query = ProductQuery(subs=(submodule(),), module=module())
    assert (query.r, query.grid, query.cutoff, query.window) == (
        None,
        None,
        DEFAULT_CUTOFF,
        DEFAULT_WINDOW,
    )
    assert LocalQuery(module(base_ring()), ideal()).k is None
    assert VerificationReport("c", "i", (), (), True).witness is None
    with pytest.raises(TypeError):
        InclusionWitness("a", 1)
    with pytest.raises(TypeError):
        InclusionWitness("a", 1, True, nu=2)
    with pytest.raises(TypeError):
        InclusionWitness("a", 1, True, colour="red")
    with pytest.raises(TypeError):
        LengthResult(3, (1, 2, 0), 2, 0)


def test_construction_still_validates_and_normalizes():
    assert FreeModuleSpec(ring(), [[0, 0]]).shifts == ((0, 0),)
    assert RingSpec(QQ, ["x"], ["T"]).base == ("x",)
    assert LengthTable(["t"], [0], [2], [1, 2]).axes == ("t",)
    with pytest.raises(ValueError):
        PrimeField(8)
    with pytest.raises(ValueError):
        ProductQuery(module(), (submodule(),), -1)


def test_reprs_are_dataclass_style():
    assert repr(LengthResult(3, (1, 2, 0), 2)) == (
        "LengthResult(total=3, per_degree=(1, 2, 0), stop_degree=2)"
    )
    assert repr(InclusionWitness("a", 1, True)) == (
        "InclusionWitness(part='a', nu=1, passed=True, generator=None,"
        " bidegree=None)"
    )
    assert repr(table()) == (
        "LengthTable(axes=('p', 'n'), origin=(0, 0), extents=(1, 2), values=(1, 2))"
    )
    free = FreeModuleSpec(ring(), ((0, 0),))
    assert repr(free) == "FreeModuleSpec(ring=Q[x,y;T], shifts=((0, 0),))"
    assert repr(ModulePresentation(free)) == (
        "ModulePresentation(free=FreeModuleSpec(ring=Q[x,y;T], shifts=((0, 0),)),"
        " relations=())"
    )
    # classes with a repr of their own keep it
    assert repr(QQ) == "Q" and repr(PrimeField(7)) == "F_7"
    assert repr(xT()) == "Polynomial(x*T)"
    assert repr(submodule()) == "SubmoduleSpec(d=1, <x*T>)"


def test_hash_is_computed_once(monkeypatch):
    R = ring()
    x, y, T = R.gens()
    h = SubmoduleSpec(R, 1, (x * x * T + y * y * T, x * y * T))
    spec = power_generators(h, 6)
    assert not all(g.is_monomial() for g in spec.gens)
    fresh = SubmoduleSpec(
        spec.ring, spec.fiber_degree, tuple(Polynomial(R, g.terms) for g in spec.gens)
    )
    calls = []
    real = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    assert hash(fresh) == hash(spec)
    assert calls  # new polynomials read every coefficient once
    calls.clear()
    assert hash(fresh) == hash(spec)
    assert calls == []
