import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from das import resample
from das.errors import DegenerateEnsembleError, InputError
from das.smc import _ssp_counts

SCHEMES = ("multinomial", "systematic", "ssp")


def test_uniform_ssp_is_identity():
    for n in (3, 6, 16, 100):
        lw = np.zeros(n)
        anc = resample(lw, "ssp", np.random.default_rng(0))
        np.testing.assert_array_equal(anc, np.arange(n))


def test_one_hot_all_schemes():
    lw = np.full(8, -np.inf)
    lw[0] = 0.0
    for scheme in SCHEMES:
        anc = resample(lw, scheme, np.random.default_rng(1))
        np.testing.assert_array_equal(anc, np.zeros(8, dtype=int))


def test_multinomial_concentration():
    lw = np.log(np.array([0.75, 0.25]))
    rng = np.random.default_rng(2)
    counts = np.zeros(2)
    draws = 100_000 // 2
    for _ in range(draws):
        anc = resample(lw, "multinomial", rng)
        counts += np.bincount(anc, minlength=2)
    frac = counts[0] / counts.sum()
    assert abs(frac - 0.75) < 0.005


@pytest.mark.parametrize("scheme", SCHEMES)
def test_unbiasedness(scheme):
    rng = np.random.default_rng(3)
    w = np.array([0.05, 0.3, 0.15, 0.4, 0.1])
    lw = np.log(w)
    n = w.size
    total = np.zeros(n)
    reps = 40_000
    for _ in range(reps):
        total += np.bincount(resample(lw, scheme, rng), minlength=n)
    mean_counts = total / reps
    # binomial-style concentration: se <= sqrt(n w (1-w) / reps) per index
    se = np.sqrt(n * w * (1 - w) / reps)
    assert np.all(np.abs(mean_counts - n * w) < 5 * se + 1e-3)


@pytest.mark.parametrize("scheme", ["systematic", "ssp"])
def test_low_variance_schemes_bracket_counts(scheme):
    rng = np.random.default_rng(4)
    for trial in range(200):
        w = rng.dirichlet(np.ones(7))
        anc = resample(np.log(w), scheme, rng)
        counts = np.bincount(anc, minlength=7)
        lo = np.floor(7 * w)
        hi = np.ceil(7 * w)
        assert np.all(counts >= lo - 1e-9) and np.all(counts <= hi + 1e-9)


def test_output_sorted_for_count_schemes():
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(9))
    for scheme in ("systematic", "ssp"):
        anc = resample(np.log(w), scheme, rng)
        assert np.all(np.diff(anc) >= 0)


def test_resample_output_order_pinned():
    """systematic and ssp return ancestors sorted by index; multinomial
    returns them in draw order (sorting them would change the stream)."""
    w = np.array([0.05, 0.3, 0.02, 0.13, 0.2, 0.1, 0.15, 0.05])
    expect = {
        "multinomial": [4, 7, 1, 6, 1, 3, 6, 3],
        "systematic": [1, 1, 1, 3, 4, 4, 6, 6],
        "ssp": [1, 1, 2, 3, 4, 4, 6, 7],
    }
    for scheme, anc in expect.items():
        np.testing.assert_array_equal(resample(np.log(w), scheme, np.random.default_rng(1)), anc)
    uniform = resample(np.log(np.full(8, 1 / 8)), "multinomial", np.random.default_rng(1))
    np.testing.assert_array_equal(uniform, [4, 7, 1, 7, 2, 3, 6, 3])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=24),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_ssp_counts_sum_and_bracket(raw, seed):
    w = np.array(raw)
    w /= w.sum()
    counts = _ssp_counts(w, np.random.default_rng(seed))
    n = w.size
    assert counts.sum() == n
    target = n * w / w.sum()
    assert np.all(counts >= np.floor(target) - 1e-9)
    assert np.all(counts <= np.ceil(target) + 1e-9)


def test_degenerate_weights_rejected():
    with pytest.raises(DegenerateEnsembleError):
        resample(np.full(4, -np.inf), "ssp", np.random.default_rng(0))


def test_unknown_scheme_rejected():
    with pytest.raises(InputError):
        resample(np.zeros(4), "stratified", np.random.default_rng(0))
