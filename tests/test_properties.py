"""Property tests for invariants that hold by construction.

Every transform below is exact in IEEE arithmetic, so the outputs must agree
bit for bit, not just approximately:

* scaling ``(y, sigma)`` by ``2^k`` scales every draw, difference and scale
  by the same power of two, and every ratio is unchanged;
* shifting ``y`` by ``c`` when ``y`` and ``c`` are multiples of 1/8 with
  ``|y|, |c| <= 2^20`` keeps every sum and difference exact, and the pool
  depends on ``sigma`` only;
* a row maximum is exact, so seqtukey's row maxima derived from a superset's
  are the ones computed directly, on the whole pool or on a copy of some of
  its rows;
* an order statistic is an exact selection, so leaving out values known to lie
  below it and shifting its index by their count selects the same value;
* an estimates file that ``csv.writer`` wrote reads back to the same ids and
  the same floats, and one corrupted cell in it is one ``error:`` line.
"""

import contextlib
import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankci import (
    BootstrapConfig,
    CenterSample,
    McPool,
    make_mc_pool,
    mcquantile,
    rankability_estimate,
    sequential_tukey,
    tukey_rank_cis,
    zhang_simultaneous,
)
from rankci.cli import ingest_estimates, main
from rankci.core import SIGMA_MAX, SIGMA_MIN
from rankci.mcquantile import (
    empirical_quantile,
    pair_row_maxima,
    row_maxima,
)
from rankci.seqtukey import _row_maxima_from
from oracles import restricted_max_quantile

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
        assert 0.0 <= rankability_estimate(cis) <= 1.0


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


@st.composite
def nested_masks(draw):
    """(sigma, seed, A, B): lower-triangular pair masks with B a nonempty subset of A.

    A is every positive pair a third of the time, so that the base is the
    cached full-range maxima; B drops none, one or any number of A's pairs.
    """
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        sigma = np.full(n, draw(st.floats(0.25, 4.0)))
    else:
        sigma = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    positives = list(zip(*np.nonzero(np.tri(n, k=-1, dtype=bool))))
    if draw(st.integers(0, 2)) == 0:
        kept = positives
    else:
        kept = draw(st.lists(st.sampled_from(positives), min_size=1, unique=True))
    n_dropped = draw(st.one_of(st.just(0), st.just(1), st.integers(0, len(kept) - 1)))
    dropped = draw(st.permutations(kept))[:min(n_dropped, len(kept) - 1)]
    masks = np.zeros((2, n, n), dtype=bool)
    for mask, pairs in zip(masks, (kept, set(kept) - set(dropped))):
        for pair in pairs:
            mask[pair] = True
    return sigma, draw(st.integers(0, 2**32 - 1)), masks[0], masks[1]


def direct_row_maxima(pool, active):
    """Row maxima over ``active``'s pairs and every negative pair, computed directly."""
    return np.maximum(pair_row_maxima(pool, *np.nonzero(active)), row_maxima(pool)[1])


@pytest.mark.parametrize("spans", [None, (3, 100)], ids=["one-span", "row-spans"])
@PROPERTY
@given(nested_masks(), st.integers(1, 2 * POOL_ROWS))
def test_derived_row_maxima_bit_identical(spans, case, n_kept):
    sigma, seed, base_mask, active = case
    with pytest.MonkeyPatch.context() as patch:
        if spans is not None:
            cores, min_rows = spans
            patch.setattr(mcquantile, "_usable_cores", lambda: cores)
            patch.setattr(mcquantile, "_MIN_SPAN_ROWS", min_rows)
        pool = make_mc_pool(sigma, 2 * POOL_ROWS, seed=seed)
        negative = row_maxima(pool)[1]
        if base_mask.sum() == sigma.size * (sigma.size - 1) // 2:
            base = row_maxima(pool)[0]
        else:
            base = direct_row_maxima(pool, base_mask)
        direct = direct_row_maxima(pool, active)
        dropped = base_mask & ~active
        derived = _row_maxima_from(pool, base, negative, dropped, active)
        assert derived.tobytes() == direct.tobytes()
        # on a copy of some rows, from those rows' slices of the maxima
        kept = np.sort(np.random.default_rng(seed).choice(pool.n_samples, n_kept, replace=False))
        derived = _row_maxima_from(pool.take_rows(kept), base[kept], negative[kept], dropped,
                                   active)
        assert derived.tobytes() == direct[kept].tobytes()


@st.composite
def floored_maxima(draw):
    """(negative, restricted, full, alpha): row maxima from a small integer set.

    ``negative <= restricted <= full`` row by row, as for the negative-pair,
    a restricted and the full-range maxima of one pool; the small set makes
    ties at every order statistic, Qneg included, dense.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 300))
    negative = rng.integers(0, 4, n).astype(float)
    restricted = negative + rng.integers(0, 2, n)
    full = restricted + rng.integers(0, 2, n)
    return negative, restricted, full, draw(st.floats(0.01, 0.7))


@settings(PROPERTY, max_examples=200)
@given(floored_maxima(), st.integers(0, 1))
def test_kept_rows_select_the_quantile_of_all_rows(case, lower_by):
    # rows whose full-range maximum is below a floor at or under Qneg are left
    # out, and the kept rows' order statistic, its index shifted by their
    # count, is the order statistic of all rows, or both are refused
    negative, restricted, full, alpha = case
    try:
        expected = empirical_quantile(restricted, alpha)
    except ValueError:
        # the refusal counts the rows left out
        with pytest.raises(ValueError, match="too small"):
            empirical_quantile(restricted[1:], alpha, _below=1)
        return
    keep = full >= empirical_quantile(negative, alpha) - lower_by
    below = restricted.size - np.count_nonzero(keep)
    assert empirical_quantile(restricted[keep], alpha, _below=below) == expected


@PROPERTY
@given(instances(), st.sampled_from([0.05, 0.1, 0.2, 0.5]), st.sampled_from([0.0, 0.25, 1.0]),
       st.booleans())
def test_round_critical_values_are_restricted_quantiles(instance, alpha, kept_share, tied):
    # every round after the first selects the restricted-max quantile over
    # the unrejected positives and every negative pair, over all pool rows,
    # whether the rounds run on the whole pool or on the rows that reach Qneg;
    # a pool of small integers makes rows tied at Qneg common
    y, sigma, seed = instance
    sample = CenterSample.from_observations(y, sigma)
    if tied:
        draws = np.random.default_rng(seed).integers(-2, 3, (sample.n, POOL_ROWS))
        pool = McPool(draws.astype(float), sample.sigma, seed)
    else:
        pool = make_mc_pool(sample.sigma, POOL_ROWS, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcquantile, "_MAX_KEPT_SHARE", kept_share)
        _, trace = sequential_tukey(sample, alpha, pool)
    positives = np.tri(sample.n, k=-1, dtype=bool)
    for before, q in zip(trace.steps, trace.critical_values[1:]):
        remaining = positives & ~before.rejected_total
        assert q == restricted_max_quantile(pool, remaining | positives.T, alpha)


# cell text: the delimiters, quotes, line breaks, a semicolon and non-ASCII letters
CELL_TEXT = st.text(st.sampled_from(list("ab ,\t\"'\n\r;äß漢é")), max_size=6)
# ingest refuses an id holding a tab or line break, and strips each cell, so
# an id neither starts nor ends with whitespace
IDS = st.text(st.sampled_from(list("ab ,\"';äß漢é")), max_size=6).filter(
    lambda text: text == text.strip())
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def estimate_tables(draw, min_rows=1):
    """(ids, estimates, sigmas, header, rows): an estimates table, extra columns anywhere."""
    n = draw(st.integers(min_rows, 6))
    ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    estimates = draw(st.lists(FINITE, min_size=n, max_size=n))
    sigmas = draw(st.lists(st.floats(SIGMA_MIN, SIGMA_MAX), min_size=n, max_size=n))
    header = ["id", "estimate", "std_error"]
    for k in range(draw(st.integers(0, 2))):
        header.insert(draw(st.integers(0, len(header))), f"note{k}")
    rows = []
    for values in zip(ids, estimates, sigmas):
        cells = dict(zip(("id", "estimate", "std_error"), (values[0], *map(repr, values[1:]))))
        rows.append([cells[col] if col in cells else draw(CELL_TEXT) for col in header])
    return ids, estimates, sigmas, header, rows


def write_table(draw, header, rows) -> str:
    """``header`` and ``rows`` as csv.writer writes them, comma or tab delimited.

    With or without a byte-order mark, with LF or CRLF line ends and blank
    lines between records.
    """
    delimiter, line_end = draw(st.sampled_from([",", "\t"])), draw(st.sampled_from(["\n", "\r\n"]))
    text = "\ufeff" if draw(st.booleans()) else ""
    for cells in [header, *rows]:
        record = io.StringIO()
        # CRLF makes the writer quote any cell holding a CR or LF; the record's own
        # line end is swapped afterwards
        csv.writer(record, delimiter=delimiter, lineterminator="\r\n").writerow(cells)
        text += record.getvalue()[:-2] + line_end + line_end * draw(st.integers(0, 1))
    return text


def ingest_text(text: str, run):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return run(path)


@PROPERTY
@given(estimate_tables(), st.data())
def test_ingest_reads_back_what_csv_writer_wrote(table, data):
    ids, estimates, sigmas, header, rows = table
    sample = ingest_text(write_table(data.draw, header, rows), ingest_estimates)
    assert sample.to_input_order(sample.ids) == ids
    for values, written in ((sample.y, estimates), (sample.sigma, sigmas)):
        assert list(map(repr, sample.to_input_order(values.tolist()))) == list(map(repr, written))


BAD_SIGMAS = st.one_of(
    st.sampled_from(["", "abc", "1,5", "nan", "inf", "-inf", "1e-170", "1e200"]),
    st.floats(max_value=0.0).map(repr),
    st.floats(0.0, SIGMA_MIN, exclude_max=True).map(repr),
    st.floats(min_value=SIGMA_MAX, exclude_min=True).map(repr),
    CELL_TEXT.map(lambda text: "x" + text),
)


@PROPERTY
@given(estimate_tables(min_rows=2),
       st.sampled_from(["std_error", "duplicate id", "broken id", "past header"]), st.data())
def test_ingest_one_corrupt_cell_is_one_error_line(table, corruption, data):
    ids, _, _, header, rows = table
    row = data.draw(st.integers(1, len(rows) - 1))
    if corruption == "std_error":
        rows[row][header.index("std_error")] = data.draw(BAD_SIGMAS)
    elif corruption == "duplicate id":
        rows[row][header.index("id")] = ids[data.draw(st.integers(0, row - 1))]
    elif corruption == "broken id":
        rows[row][header.index("id")] = "x" + data.draw(st.sampled_from("\t\n\r")) + "y"
    else:
        rows[row].append("x" + data.draw(CELL_TEXT))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = ingest_text(write_table(data.draw, header, rows),
                             lambda path: main(["rank", "--input", path, "--mc-samples", "2000"]))
    assert status == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert f": row {row + 1}: " in err.getvalue()
