"""The seven value types: what they reject, convert and compare, pinned whole.

ConnectionParams, ScatteringResult, NonRelMedium, DeltaTriple, DiracMedium
and BarrierParams store their converted fields in one pass and then check
them in __post_init__; ModePair converts its four vectors to tuples of two
Python complex numbers and checks them there.  Each rejection below is
pinned with its exception type and whole message, checks that can both
fail report the first in the order the fields are declared, and the
dataclass protocols (replace, ==, hash, repr, copy, pickle) behave as for
a generated dataclass.  __post_init__ runs exactly where a construction
is checked, which is what bench/tracer.py counts.
"""

import collections
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

import pointscatter
from pointscatter import dirac, schrodinger
from pointscatter.connection import (
    ConnectionParams, ModePair, NotConnectionForm, ScatteringResult, as_matrix, conserves_current,
    decompose, modes, scatter,
)
from pointscatter.dirac import BarrierParams, DiracMedium
from pointscatter.schrodinger import DeltaTriple, NonRelMedium

inf, nan = math.inf, math.nan
H, Q, W = 0.7071067811865475, 0.35355339059327373, 1.414213562373095  # 1, 0.5 and 2 over sqrt2


def conversion_error(convert, value) -> str:
    """The message of Python's own conversion error, which the fields pass on."""
    try:
        convert(value)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{convert.__name__}({value!r}) converted")


REJECTIONS = [
    (ConnectionParams, (1, 0, 0, 1, inf), ValueError, "theta must be finite"),
    (ConnectionParams, (1, 0, 0, 1, nan), ValueError, "theta must be finite"),
    (ConnectionParams, (2, 0, 0, 2, inf), ValueError, "theta must be finite"),
    (ConnectionParams, (2, 0, 0, 2), NotConnectionForm,
     "alpha*delta - beta*gamma = 4.0, not 1: must be 1 within 1e-12"),
    (ConnectionParams, (2.0**27, 1, 2.0**27, 1), NotConnectionForm,
     "alpha*delta - beta*gamma = 0.0, not 1: must be 1 within 2.68e-07"),
    (ConnectionParams, (nan, 0, 0, 1), NotConnectionForm,
     "alpha*delta - beta*gamma = nan, not 1: must be 1 within 1e-12"),
    (ConnectionParams, (inf, 0, 0, 1), NotConnectionForm,
     "alpha*delta - beta*gamma = inf, not 1: must be 1 within 1e-12"),
    (ConnectionParams, (1, 0, 0, 1, "abc"), ValueError, conversion_error(float, "abc")),
    (ConnectionParams, (1j, 0, 0, 1), TypeError, conversion_error(float, 1j)),
    (ConnectionParams, (1, 0, 0), TypeError,
     "ConnectionParams.__init__() missing 1 required positional argument: 'delta'"),
    (NonRelMedium, (1, 1, inf), ValueError, "A must be finite"),
    (NonRelMedium, (-1, 1, inf), ValueError, "A must be finite"),
    (NonRelMedium, (0, 1), ValueError, "mass must be positive"),
    (NonRelMedium, (nan, 1), ValueError, "mass must be positive"),
    (NonRelMedium, (1, 0), ValueError, "wave number must be positive (scattering states only)"),
    (NonRelMedium, (1, nan), ValueError, "wave number must be positive (scattering states only)"),
    (NonRelMedium, (inf, 1), ValueError, "mass must be finite"),
    (NonRelMedium, (1, "x"), ValueError, conversion_error(float, "x")),
    (DeltaTriple, (inf, 0, 0, 1), ValueError, "v_plus must be finite"),
    (DeltaTriple, (0, nan, 0, 1), ValueError, "v_zero must be finite"),
    (DeltaTriple, (0, 0, -inf, 1), ValueError, "v_minus must be finite"),
    (DeltaTriple, (0, 0, 0, inf), ValueError, "a must be finite"),
    (DeltaTriple, (0, 0, 0, 1, nan), ValueError, "A must be finite"),
    # The fields' sum is NaN, and one that overflows to inf does not hide a later NaN.
    (DeltaTriple, (inf, 0, -inf, 1), ValueError, "v_plus must be finite"),
    (DeltaTriple, (1e308, 1e308, 0, 1, nan), ValueError, "A must be finite"),
    (DeltaTriple, (0, 0, 0, -1, inf), ValueError, "A must be finite"),
    (DeltaTriple, (0, 0, 0, 0), ValueError, "half-spacing a must be positive"),
    (DeltaTriple, (0, 0, 0, -1), ValueError, "half-spacing a must be positive"),
    (DiracMedium, (1, 2, inf), ValueError, "S must be finite"),
    (DiracMedium, (1, 2, 0, nan), ValueError, "V must be finite"),
    (DiracMedium, (1, 2, 0, 0, -inf), ValueError, "A must be finite"),
    (DiracMedium, (0, 2, inf), ValueError, "S must be finite"),
    (DiracMedium, (0, 2), ValueError, "mass must be positive"),
    (DiracMedium, (nan, 2), ValueError, "mass must be positive"),
    (DiracMedium, (1, 0.5), ValueError, "|E| must be finite and exceed m (propagating exterior modes)"),
    (DiracMedium, (1, inf), ValueError, "|E| must be finite and exceed m (propagating exterior modes)"),
    (BarrierParams, (inf, 0), ValueError, "s must be finite"),
    (BarrierParams, (0, nan), ValueError, "v must be finite"),
    (BarrierParams, (0, 0, inf), ValueError, "theta must be finite"),
    (BarrierParams, (nan, nan, nan), ValueError, "s must be finite"),
    (ScatteringResult, (0.5, 0.5), ValueError, "non-unitary amplitudes: |T|^2 + |R|^2 = 0.5"),
    (ScatteringResult, (1, 1), ValueError, "non-unitary amplitudes: |T|^2 + |R|^2 = 2.0"),
    (ScatteringResult, (nan, nan), ValueError, "non-unitary amplitudes: |T|^2 + |R|^2 = nan"),
    (ScatteringResult, (1e200, 0), ValueError, "non-unitary amplitudes: |T|^2 + |R|^2 = inf"),
    (ScatteringResult, (inf, 0), ValueError, "non-unitary amplitudes: |T|^2 + |R|^2 = inf"),
    (ScatteringResult, ("x", 0), ValueError, conversion_error(complex, "x")),
    (ScatteringResult, (0, 1, 2), TypeError,
     "ScatteringResult.__init__() takes 3 positional arguments but 4 were given"),
    (ModePair, ((1, 0, 0), (1, 0), (1, 0), (1, 0)), ValueError, "u_plus must be a 2-component vector"),
    (ModePair, ((1, 0), (0, 1), (1, 0), ((0, 1),)), ValueError, "v_minus must be a 2-component vector"),
    (ModePair, ((1, 0), (0, 1), (0, 1), (1, 0)), ValueError,
     "modes not bi-orthogonal: v_plus† u_plus = 0j"),
    (ModePair, ((1, 0), (0, 1), (1, 0), (1, 0)), ValueError,
     "modes not bi-orthogonal: v_minus† u_minus = 0j"),
    (ModePair, ((1, nan), (1, 0), (1, 0), (1, 0)), ValueError,
     "modes not bi-orthogonal: v_plus† u_plus = (nan+nanj)"),
    # v_plus† u_plus is finite, but its distance from 1 has no float modulus.
    (ModePair, ((1.5e308 + 1.5e308j, 0), (0, 1), (1, 0), (0, 1)), ValueError,
     "modes not bi-orthogonal: v_plus† u_plus = (1.5e+308+1.5e+308j)"),
    (ModePair, ((1, 0), (0, 1), (1, 0)), TypeError,
     "ModePair.__init__() missing 1 required positional argument: 'v_minus'"),
]


@pytest.mark.parametrize("cls, args, error, message", REJECTIONS,
                         ids=[f"{c.__name__}{a}" for c, a, _, _ in REJECTIONS])
def test_rejections_keep_their_type_and_whole_message(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("fields", [(1e308, 1e308, 0, 1, 0), (-1e308, 0, -1e308, 1, -1e308),
                                    (0, 1e308, 0, 1e308, 1e308)], ids=str)
def test_finite_fields_whose_sum_overflows_are_accepted(fields):
    assert dataclasses.astuple(DeltaTriple(*fields)) == tuple(map(float, fields))


# (instance, the same fields as other number types, the stored fields, its repr)
INSTANCES = [
    (ConnectionParams(2, 0.5, 2, 1, 4.0), (np.float64(2.0), "0.5", 2, True, "4"),
     (2.0, 0.5, 2.0, 1.0, 4.0 - 2 * math.pi),
     "ConnectionParams(alpha=2.0, beta=0.5, gamma=2.0, delta=1.0, theta=-2.2831853071795862)"),
    (NonRelMedium(1, 2.5, -0.5), (True, np.float64(2.5), "-0.5"), (1.0, 2.5, -0.5),
     "NonRelMedium(m=1.0, k=2.5, A=-0.5)"),
    (DeltaTriple(1, -2, 3.5, 0.25, 0.5), ("1", np.float64(-2), 3.5, "0.25", np.float64(0.5)),
     (1.0, -2.0, 3.5, 0.25, 0.5), "DeltaTriple(v_plus=1.0, v_zero=-2.0, v_minus=3.5, a=0.25, A=0.5)"),
    (DiracMedium(1, -2.5, 0.5, -0.25, 1), (np.float64(1), "-2.5", "0.5", np.float64(-0.25), 1),
     (1.0, -2.5, 0.5, -0.25, 1.0), "DiracMedium(m=1.0, E=-2.5, S=0.5, V=-0.25, A=1.0)"),
    (BarrierParams(0.5, -0.25, 3), ("0.5", np.float64(-0.25), "3"), (0.5, -0.25, 3.0),
     "BarrierParams(s=0.5, v=-0.25, theta=3.0)"),
    (ScatteringResult(0.6, 0.8j), (np.complex128(0.6), "0.8j"), (0.6 + 0j, 0.8j),
     "ScatteringResult(t_amp=(0.6+0j), r_amp=0.8j)"),
    (ModePair(np.array([H, Q * 1j]), np.array([H, -Q * 1j]), np.array([H, W * 1j]),
              np.array([H, -W * 1j])),
     ([H, Q * 1j], (np.complex128(H), -Q * 1j), [np.float64(H), complex(0, W)],
      (H, np.complex128(-W * 1j))),
     ((H + 0j, Q * 1j), (H + 0j, -Q * 1j), (H + 0j, W * 1j), (H + 0j, -W * 1j)),
     "ModePair(u_plus=((0.7071067811865475+0j), 0.35355339059327373j), "
     "u_minus=((0.7071067811865475+0j), (-0-0.35355339059327373j)), "
     "v_plus=((0.7071067811865475+0j), 1.414213562373095j), "
     "v_minus=((0.7071067811865475+0j), (-0-1.414213562373095j)))"),
]


def fields_of(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def scalars_of(obj):
    """The fields of obj, those of a ModePair flattened after checking that each is a 2-tuple."""
    values = fields_of(obj)
    if type(obj) is ModePair:
        assert {(type(v), len(v)) for v in values} == {(tuple, 2)}
        values = sum(values, ())
    return values


@pytest.mark.parametrize("obj, other_types, stored, text", INSTANCES,
                         ids=[type(case[0]).__name__ for case in INSTANCES])
def test_conversion_and_dataclass_protocols(obj, other_types, stored, text):
    cls = type(obj)
    kind = complex if cls in (ScatteringResult, ModePair) else float
    assert fields_of(obj) == stored and {type(x) for x in scalars_of(obj)} == {kind}
    converted = cls(*other_types)
    assert fields_of(converted) == stored and {type(x) for x in scalars_of(converted)} == {kind}
    assert converted == obj and converted is not obj and hash(converted) == hash(obj) == hash(stored)
    assert repr(obj) == text
    for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(back) is cls and back == obj and fields_of(back) == stored
    first = dataclasses.fields(obj)[0].name
    changed = dataclasses.replace(obj, **{first: getattr(obj, first)})
    assert changed == obj and changed is not obj
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, first, 0.0)


def test_replace_converts_and_checks_again():
    p = ConnectionParams(2, 0.5, 2, 1)
    assert dataclasses.replace(p, theta="-4").theta == -4.0 + 2 * math.pi
    with pytest.raises(ValueError, match="^theta must be finite$"):
        dataclasses.replace(p, theta=inf)
    with pytest.raises(NotConnectionForm):
        dataclasses.replace(p, alpha=3)
    assert dataclasses.replace(NonRelMedium(1, 2), A=np.float64(0.5)).A.__class__ is float
    pair = modes(0.5)
    with pytest.raises(ValueError, match=r"^modes not bi-orthogonal: v_minus† u_minus = 0j$"):
        dataclasses.replace(pair, v_minus=pair.v_plus)
    assert type(dataclasses.replace(pair, u_plus=np.array(pair.u_plus)).u_plus) is tuple


def test_modes_holds_what_a_checked_pair_holds():
    pair, checked = modes(0.5), INSTANCES[-1][0]
    assert {type(x) for x in scalars_of(pair)} == {complex}
    assert pair == checked and hash(pair) == hash(checked) and pair is not checked


# Every dataclass the package exports: the value types whose checks bench/tracer.py counts.
VALUE_TYPES = [obj for obj in map(pointscatter.__dict__.get, pointscatter.__all__)
               if dataclasses.is_dataclass(obj)]


def test_each_value_type_checks_in_its_own_hook():
    assert {cls.__name__ for cls in VALUE_TYPES} == {type(case[0]).__name__ for case in INSTANCES}
    for cls in VALUE_TYPES:
        assert "__post_init__" in vars(cls), cls


@pytest.fixture
def checks(monkeypatch):
    """Calls of each value type's __post_init__, by class, counted where bench/tracer.py counts them."""
    counts = collections.Counter()
    for cls in VALUE_TYPES:
        def counted(self, check=vars(cls)["__post_init__"], owner=cls):
            counts[owner] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def scattering_point():
    """One point of the benchmark's scatter_points workload, calling the library as its unit does."""
    p = ConnectionParams(2, 1, 1, 1, 0.3)
    med = NonRelMedium(1.0, 0.5)
    M = as_matrix(p)
    scatter(M, schrodinger.mode_vectors(med))
    scatter(M, dirac.free_mode_vectors(2.0, 1.0))
    cfg = schrodinger.renormalized_strengths(p, 0.05, 1.0)
    M3 = schrodinger.three_delta_transfer(cfg, NonRelMedium(1.0, 0.5, cfg.A))
    scatter(M3, schrodinger.mode_vectors(med))
    decompose(M)
    conserves_current(M3, 1e-6)


MATRIX = as_matrix(ConnectionParams(2, 1, 1, 1, 0.3))
PAIR = modes(0.5)
COUNTED = {
    "ModePair": (lambda: ModePair(*INSTANCES[-1][2]), {ModePair: 1}),
    "replace": (lambda: dataclasses.replace(PAIR, u_plus=PAIR.u_plus), {ModePair: 1}),
    "modes": (lambda: modes(0.5), {}),
    "decompose": (lambda: decompose(MATRIX), {}),
    "scatter": (lambda: scatter(MATRIX, PAIR), {ScatteringResult: 1}),
    "scattering_point": (scattering_point, {ConnectionParams: 1, NonRelMedium: 2, DeltaTriple: 1,
                                            ScatteringResult: 3}),
}


@pytest.mark.parametrize("name", COUNTED)
def test_checks_run_once_per_checked_construction(checks, name):
    call, want = COUNTED[name]
    call()
    assert checks == want
