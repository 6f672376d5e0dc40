"""The six value types: what they reject, convert and compare, pinned whole.

ConnectionParams, ScatteringResult, NonRelMedium, DeltaTriple, DiracMedium
and BarrierParams store their converted fields in one pass and then check
them in __post_init__.  Each rejection below is pinned with its exception
type and whole message, checks that can both fail report the first in the
order the fields are declared, and the dataclass protocols (replace, ==,
hash, repr, pickle) behave as for a generated dataclass.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from pointscatter.connection import ConnectionParams, NotConnectionForm, ScatteringResult
from pointscatter.dirac import BarrierParams, DiracMedium
from pointscatter.schrodinger import DeltaTriple, NonRelMedium

inf, nan = math.inf, math.nan


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
    (ScatteringResult, (nan, nan), ValueError, "non-unitary amplitudes: |T|^2 + |R|^2 = nan"),
    (ScatteringResult, (1e200, 0), ValueError, "non-unitary amplitudes: |T|^2 + |R|^2 = inf"),
    (ScatteringResult, (inf, 0), ValueError, "non-unitary amplitudes: |T|^2 + |R|^2 = inf"),
    (ScatteringResult, ("x", 0), ValueError, conversion_error(complex, "x")),
    (ScatteringResult, (0, 1, 2), TypeError,
     "ScatteringResult.__init__() takes 3 positional arguments but 4 were given"),
]


@pytest.mark.parametrize("cls, args, error, message", REJECTIONS,
                         ids=[f"{c.__name__}{a}" for c, a, _, _ in REJECTIONS])
def test_rejections_keep_their_type_and_whole_message(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


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
]


def fields_of(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


@pytest.mark.parametrize("obj, other_types, stored, text", INSTANCES,
                         ids=[type(case[0]).__name__ for case in INSTANCES])
def test_conversion_and_dataclass_protocols(obj, other_types, stored, text):
    cls = type(obj)
    kind = complex if cls is ScatteringResult else float
    assert fields_of(obj) == stored and {type(x) for x in fields_of(obj)} == {kind}
    converted = cls(*other_types)
    assert fields_of(converted) == stored and {type(x) for x in fields_of(converted)} == {kind}
    assert converted == obj and converted is not obj and hash(converted) == hash(obj) == hash(stored)
    assert repr(obj) == text
    back = pickle.loads(pickle.dumps(obj))
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
