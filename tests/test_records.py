"""The engine's immutable value classes are ``scalars.Record``s: each keeps
the constructor, equality, hash, repr and immutability it had as a frozen
dataclass.  The repr strings were recorded from the dataclass versions."""

from fractions import Fraction

import pytest

from galoiskit.galois import GaloisGroup, IntermediateField, RestrictionHomomorphism, galois_group
from galoiskit.numfield import FieldTower
from galoiskit.permgroup import (
    ChainCertificate,
    ChainStepWitness,
    CycleTypeCertificate,
    CyclicGroupZ,
    DirectSumZ,
    Embedding,
    PermGroup,
    Permutation,
    UnitGroup,
)
from galoiskit.qfactor import Factorization
from galoiskit.radical import (
    ChainStage,
    ConditionReport,
    CycleTypeEvidence,
    NormalRadicalTower,
    RadicalChain,
    SolvabilityVerdict,
    TowerReport,
    TowerStage,
)
from galoiskit.scalars import Record
from galoiskit.splitting import SplittingField, splitting_field

from helpers import P

E = splitting_field(P(-2, 0, 1))
G = galois_group(E)
ID, SWAP = Permutation((0, 1)), Permutation((1, 0))
S2 = PermGroup(2, (ID, SWAP), (SWAP,))
STEP = ChainStepWitness(2, 1, 2, True, True)
STAGE = ChainStage(2, "2", 3, 4, 2)
CHAIN = RadicalChain(((2, "2"),), (STAGE,), FieldTower.rationals())
EVIDENCE = CycleTypeEvidence(((3, (1, 1, 3)),), "A5", "NOT_SOLVABLE")

# (class, constructor arguments, a field to change, its new value, repr)
CASES = [
    (Factorization, (Fraction(2), ((P(-2, 1), 1),)), "unit", Fraction(3),
     "Factorization(unit=Fraction(2, 1), factors=((Polynomial(QQ, 'x - 2'), 1),))"),
    (PermGroup, (2, (ID, SWAP), (SWAP,)), "generators", (),
     "PermGroup(degree=2, order=2)"),
    (CycleTypeCertificate, ("S_n", None, (7, (1, 2, 3), 3, 2)), "group", "A_n or S_n",
     "CycleTypeCertificate(group='S_n', primitivity=None, power=(7, (1, 2, 3), 3, 2))"),
    (ChainStepWitness, (2, 1, 2, True, True), "normal", False,
     "ChainStepWitness(group_order=2, subgroup_order=1, quotient_order=2, normal=True, "
     "quotient_abelian=True)"),
    (ChainCertificate, (True, (STEP,)), "failure", "step 0",
     "ChainCertificate(accepted=True, steps=(ChainStepWitness(group_order=2, subgroup_order=1, "
     "quotient_order=2, normal=True, quotient_abelian=True),), failure='')"),
    (CyclicGroupZ, (4,), "modulus", 5, "CyclicGroupZ(modulus=4)"),
    (UnitGroup, (5,), "modulus", 7, "UnitGroup(modulus=5)"),
    (DirectSumZ, (3, 2), "copies", 1, "DirectSumZ(modulus=3, copies=2)"),
    (Embedding, (CyclicGroupZ(2), ((ID, 0), (SWAP, 1))), "target", CyclicGroupZ(3),
     "Embedding(target=CyclicGroupZ(modulus=2), mapping=((Permutation(0, 1), 0), "
     "(Permutation(1, 0), 1)))"),
    (GaloisGroup, (E, G.automorphisms, 0), "identity_index", 1,
     "GaloisGroup(order=2)"),
    (IntermediateField, ("E", (1,), 1, P(-1, 1), 1, ((1, 0),)), "degree", 2,
     "IntermediateField(degree=1)"),
    (RestrictionHomomorphism, ((0, 1), (0,), S2, ("a", "b")), "kernel", (1,),
     "RestrictionHomomorphism(mapping=(0, 1), kernel=(0,), image=PermGroup(degree=2, order=2), "
     "roots=('a', 'b'))"),
    (ChainStage, (2, "2", 3, 4, 2), "k", 3,
     "ChainStage(k=2, radicand_text='2', radicand=3, generator=4, degree=2)"),
    (RadicalChain, (((2, "2"),), (STAGE,), CHAIN.tower), "description", (),
     "RadicalChain(k=[2], degree=1)"),
    (TowerStage, (2, 3, (3,), P(-3, 1), P(-3, 0, 1), E, P(-3, 0, 1), (5,), (6,)), "k", 4,
     "TowerStage(k=2, radicand_in_level=3, orbit=(3,), orbit_poly=Polynomial(QQ, 'x - 3'), "
     "kummer_poly=Polynomial(QQ, 'x^2 - 3'), level=SplittingField(degree=2, roots=2), "
     "defining_poly=Polynomial(QQ, 'x^2 - 3'), a_images=(5,), base_gens_in_level=(6,))"),
    (NormalRadicalTower, (CHAIN, 2, E, (), ((1,),)), "lcm_degree", 4,
     "NormalRadicalTower(N=2, degrees=[2])"),
    (ConditionReport, ("c", True), "passed", False,
     "ConditionReport(name='c', passed=True, detail='')"),
    (TowerReport, ((ConditionReport("c", True),),), "conditions", (),
     "TowerReport(conditions=(ConditionReport(name='c', passed=True, detail=''),))"),
    (CycleTypeEvidence, (((3, (1, 1, 3)),), "A5", "NOT_SOLVABLE"), "detail", "why",
     "CycleTypeEvidence(samples=((3, (1, 1, 3)),), certified_group='A5', "
     "conclusion='NOT_SOLVABLE', detail='')"),
    (SolvabilityVerdict, ("NOT_SOLVABLE_BY_RADICALS", None, (60, 60), None, EVIDENCE, "n"),
     "cycle_type_evidence", EVIDENCE,
     "SolvabilityVerdict(verdict='NOT_SOLVABLE_BY_RADICALS', group_order=None, "
     "derived_series_orders=(60, 60), certificate=None, quintic_evidence=CycleTypeEvidence("
     "samples=((3, (1, 1, 3)),), certified_group='A5', conclusion='NOT_SOLVABLE', detail=''), "
     "note='n', cycle_type_evidence=None)"),
]


def test_every_record_class_is_covered():
    covered = {case[0] for case in CASES} | {SplittingField}
    assert covered == set(all_record_classes(Record))
    assert len(covered) == 21


def all_record_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_record_classes(sub)


@pytest.mark.parametrize("cls, args, name, value, text", CASES, ids=lambda v: getattr(v, "__name__", None))
def test_record_semantics(cls, args, name, value, text):
    a, b = cls(*args), cls(*args)
    assert a == b and hash(a) == hash(b)
    changed = a.replace(**{name: value})
    assert changed != a and getattr(changed, name) == value
    assert a.replace() == a
    # keywords build the same record as positions
    assert cls(**{f: getattr(a, f) for f in cls._fields}) == a
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == b


def test_records_of_other_classes_differ():
    assert CyclicGroupZ(4) != UnitGroup(4)
    assert ChainStepWitness(2, 1, 2, True, True) != (2, 1, 2, True, True)


def test_constructor_errors():
    with pytest.raises(TypeError):
        ConditionReport("c")
    with pytest.raises(TypeError):
        ConditionReport("c", True, "", "extra")
    with pytest.raises(TypeError):
        ConditionReport("c", True, name="again")
    with pytest.raises(TypeError):
        ConditionReport("c", True, colour="red")
    with pytest.raises(TypeError):
        # as many values as fields, but one unknown and one missing
        ConditionReport(name="c", colour="red")


def test_post_init_checks_run():
    with pytest.raises(ValueError):
        CyclicGroupZ(0)
    with pytest.raises(ValueError):
        UnitGroup(4).replace(modulus=1)


def test_element_set_is_out_of_eq_and_repr():
    g = PermGroup(2, (ID, SWAP), (SWAP,))
    assert g.element_set == frozenset((ID, SWAP))
    other = PermGroup(2, (ID, SWAP), (SWAP,), element_set=frozenset())
    assert other == g and hash(other) == hash(g)
    assert "element_set" not in repr(g)


def test_splitting_field_is_equal_only_to_itself():
    twin = E.replace()
    assert twin != E and E == E
    assert hash(E) == object.__hash__(E)
    assert repr(twin) == "SplittingField(degree=2, roots=2)"
    with pytest.raises(AttributeError):
        E.roots = ()


def test_cached_property_on_a_record():
    # GaloisGroup._trace_form is computed once and stored past the frozen setattr
    g = galois_group(E)
    assert g._trace_form is g._trace_form
