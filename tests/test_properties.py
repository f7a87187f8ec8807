"""Property tests for invariants that hold by construction.

Every transform below is exact in IEEE arithmetic, so the outputs must agree
bit for bit, not just approximately:

* scaling ``(y, sigma)`` by ``2^k`` scales every draw, difference and scale
  by the same power of two, and every ratio is unchanged;
* shifting ``y`` by ``c`` when ``y`` and ``c`` are multiples of 1/8 with
  ``|y|, |c| <= 2^20`` keeps every sum and difference exact, and the pool
  depends on ``sigma`` only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankci import (
    BootstrapConfig,
    CenterSample,
    make_mc_pool,
    rankability_estimate,
    sequential_tukey,
    tukey_rank_cis,
    zhang_simultaneous,
)

pytestmark = pytest.mark.filterwarnings("ignore:observed estimates contain exact ties")

ALPHA = 0.1
POOL_ROWS = 1_000
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

# multiples of 1/8 with |y| <= 2^20; the narrow range keeps overlapping
# centers common, the wide one reaches the edge of the grid
GRID = st.one_of(st.integers(-32, 32), st.integers(-2**23, 2**23)).map(lambda k: k / 8)


@st.composite
def instances(draw, distinct=False):
    """(y, sigma, seed) with 2..8 centers; equal sigmas half of the time."""
    n = draw(st.integers(2, 8))
    y = draw(st.lists(GRID, min_size=n, max_size=n, unique=distinct))
    if draw(st.booleans()):
        sigma = [draw(st.floats(0.25, 4.0))] * n
    else:
        sigma = draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    return np.array(y), np.array(sigma), draw(st.integers(0, 2**32 - 1))


def run(y, sigma, seed):
    """Tukey and seqtukey on one pool: (sample, tukey CIs, seqtukey CIs, trace)."""
    sample = CenterSample.from_observations(y, sigma)
    pool = make_mc_pool(sample.sigma, POOL_ROWS, seed=seed)
    seq, trace = sequential_tukey(sample, ALPHA, pool)
    return sample, tukey_rank_cis(sample, ALPHA, pool), seq, trace


def bounds(cis):
    return [(ci.lower, ci.upper) for ci in cis.intervals]


@PROPERTY
@given(instances())
def test_seqtukey_nested_in_tukey(instance):
    _, tuk, seq, _ = run(*instance)
    assert seq.is_nested_in(tuk)


@PROPERTY
@given(instances())
def test_intervals_contain_empirical_rank(instance):
    _, tuk, seq, _ = run(*instance)
    for cis in (tuk, seq):
        assert all(ci.contains_rank(k) for k, ci in enumerate(cis.intervals, start=1))


@PROPERTY
@given(instances())
def test_critical_values_never_increase(instance):
    _, _, _, trace = run(*instance)
    qs = trace.critical_values
    assert trace.iterations >= 1
    assert all(later <= earlier for earlier, later in zip(qs, qs[1:]))


@PROPERTY
@given(instances())
def test_rankability_estimate_in_unit_interval(instance):
    _, tuk, seq, _ = run(*instance)
    for cis in (tuk, seq):
        assert 0.0 <= rankability_estimate(cis).value <= 1.0


@PROPERTY
@given(instances(distinct=True), st.data())
def test_permuting_input_permutes_output(instance, data):
    y, sigma, seed = instance
    perm = np.array(data.draw(st.permutations(range(y.size))))
    sample, tuk, seq, trace = run(y, sigma, seed)
    p_sample, p_tuk, p_seq, p_trace = run(y[perm], sigma[perm], seed)
    for cis, p_cis in ((tuk, p_tuk), (seq, p_seq)):
        by_input = sample.to_input_order(bounds(cis))
        assert p_sample.to_input_order(bounds(p_cis)) == [by_input[k] for k in perm]
    assert p_trace.critical_values == trace.critical_values


@PROPERTY
@given(instances(), st.integers(-8, 8))
def test_power_of_two_scale_changes_nothing(instance, k):
    y, sigma, seed = instance
    sample, tuk, seq, trace = run(y, sigma, seed)
    s_sample, s_tuk, s_seq, s_trace = run(y * 2.0**k, sigma * 2.0**k, seed)
    assert s_sample.order.tolist() == sample.order.tolist()
    assert bounds(s_tuk) == bounds(tuk)
    assert bounds(s_seq) == bounds(seq)
    assert s_trace.critical_values == trace.critical_values
    boot = BootstrapConfig(n_boot=200, seed=seed)
    assert bounds(zhang_simultaneous(s_sample, ALPHA, boot).cis) == bounds(
        zhang_simultaneous(sample, ALPHA, boot).cis
    )


@PROPERTY
@given(instances(), GRID)
def test_dyadic_shift_changes_nothing(instance, c):
    y, sigma, seed = instance
    sample, tuk, seq, trace = run(y, sigma, seed)
    s_sample, s_tuk, s_seq, s_trace = run(y + c, sigma, seed)
    assert s_sample.order.tolist() == sample.order.tolist()
    assert bounds(s_tuk) == bounds(tuk)
    assert bounds(s_seq) == bounds(seq)
    assert s_trace.critical_values == trace.critical_values
