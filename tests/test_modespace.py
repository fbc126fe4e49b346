import numpy as np
import pytest

from pseudodyn import ModeSpace, ModeVector, build_mode_space
from pseudodyn.modespace import MAX_MODES


def test_n2_momenta_and_frequencies():
    ms = build_mode_space(2, 2 * np.pi, 1.0)
    assert list(ms.mode_indices) == [0, 1]
    assert np.allclose(ms.momenta, [0.0, 1.0])
    assert np.allclose(ms.frequencies, [1.0, np.sqrt(2.0)])


def test_n4_negation_symmetry():
    ms = build_mode_space(4, 2 * np.pi, 1.0)
    assert ms.frequency(-1) == ms.frequency(1) == pytest.approx(np.sqrt(2.0))


def test_minimum_frequency_is_mass():
    ms = build_mode_space(16, 2 * np.pi, 0.5)
    assert ms.frequencies.min() == pytest.approx(0.5)


@pytest.mark.parametrize("box,mass,k,expected", [
    (2 * np.pi, 1.0, 0, 1.0),
    (2 * np.pi, 1.0, 1, np.sqrt(2.0)),
    (np.pi, 2.0, 1, 2.0 * np.sqrt(2.0)),
])
def test_mode_frequency_values(box, mass, k, expected):
    ms = build_mode_space(8, box, mass)
    assert ms.frequency(k) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [dict(num_modes=3), dict(num_modes=0),
                                 dict(num_modes=-4), dict(mass=0.0),
                                 dict(mass=-1.0), dict(box_length=0.0),
                                 dict(hbar=0.0), dict(mass=np.nan),
                                 dict(box_length=np.nan), dict(hbar=np.nan)])
def test_invalid_construction_rejected(bad):
    kwargs = dict(num_modes=4, box_length=1.0, mass=1.0, hbar=1.0)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        ModeSpace(**kwargs)


def test_num_modes_capped():
    # the cap is refused by its field before any array is built; the cap
    # itself builds (its arrays are made on first use)
    assert ModeSpace(MAX_MODES, 1.0, 1.0).num_modes == 2**22
    for n in (MAX_MODES + 2, 10**9):
        with pytest.raises(ValueError, match=f"num_modes must be at most {MAX_MODES}"):
            ModeSpace(n, 1.0, 1.0)


def test_out_of_range_index_rejected():
    ms = build_mode_space(8, 1.0, 1.0)
    with pytest.raises(IndexError):
        ms.index_of(5)
    with pytest.raises(IndexError):
        ms.index_of(-4)
    with pytest.raises(IndexError, match=r"outside \{0, \.\.\., 1\}"):
        build_mode_space(2, 1.0, 1.0).index_of(3)


def test_frequency_multiset_negation_invariant():
    ms = build_mode_space(16, 3.7, 0.8)
    assert np.allclose(np.sort(ms.frequencies),
                       np.sort(ms.frequencies[ms.negation]))
    # negation is an involution
    assert np.array_equal(ms.negation[ms.negation], np.arange(16))


def test_doubling_box_halves_momenta_exactly():
    ms1 = build_mode_space(16, 2.0, 1.0)
    ms2 = build_mode_space(16, 4.0, 1.0)
    assert np.array_equal(ms2.momenta, ms1.momenta / 2.0)


def test_arrays_read_only():
    ms = build_mode_space(8, 1.0, 1.0)
    with pytest.raises(ValueError):
        ms.frequencies[0] = 9.0


def test_mode_vector_shape_checked():
    ms = build_mode_space(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModeVector(ms, np.zeros(3, dtype=complex))

