"""Rankability: a single number for "how sortable are these centers?".

Twenty centers form three tie blocks (sizes 3, 6, 11).  Inside a block the
ranking is arbitrary, so the truly attainable resolution is limited: the
true rankability here is 0.616.  Estimates computed from simultaneous rank
CIs underestimate that truth with the confidence of the CIs themselves, so
[estimate, 1] is a one-sided confidence interval.  At level 0.5 the estimate
becomes a sensible conservative point estimate.
"""

import numpy as np

from rankci import (
    CenterSample,
    make_mc_pool,
    rankability_estimate,
    rankability_true,
    sequential_tukey,
    true_set_ranks,
)

mu = np.array([0.0] * 3 + [2.8] * 6 + [5.6] * 11)
sigma = np.full(20, 0.5)

truth = rankability_true(true_set_ranks(mu))
print(f"true rankability of the block structure: {truth:.3f}")

rng = np.random.default_rng(2024)
y = mu + sigma * rng.standard_normal(20)
sample = CenterSample.from_observations(y, sigma)
pool = make_mc_pool(sample.sigma, n_samples=100_000, seed=3)

for alpha in (0.05, 0.5):
    cis, _ = sequential_tukey(sample, alpha, pool)
    est = rankability_estimate(cis)
    print(f"\nat joint level {1 - alpha:.0%}:")
    print(f"  estimated rankability {est:.3f}, "
          f"{100 * (1 - alpha):g}% CI [{est:.3f}, 1]")
    widths = cis.widths()
    print(f"  mean interval width {widths.mean():.2f} ranks "
          f"(0 would mean full separation)")

print("\nLower confidence levels give tighter intervals, hence larger (less")
print("pessimistic) rankability estimates; the level-0.5 value overshoots")
print("the truth as often as it undershoots, which is what makes it a")
print("reasonable point estimate.")
