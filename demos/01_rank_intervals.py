"""Rank a small league table with simultaneous confidence intervals.

Five units are observed with different precisions.  We ask: which ranks can
each unit plausibly occupy, with 95% confidence *jointly* over all of them?
Pointwise intervals cannot answer that; the families built here can.  The
last column shows the bootstrap's pointwise intervals, each valid for its own
unit only, drawn from the same replicates as the zhang family.
"""

import numpy as np

from rankci import (
    BootstrapConfig,
    CenterSample,
    make_mc_pool,
    rankability_estimate,
    sequential_tukey,
    spiegelhalter_pointwise,
    tukey_rank_cis,
    zhang_simultaneous,
)

ids = ["alpha", "beta", "gamma", "epsilon", "delta"]
estimates = [0.2, 1.0, 4.1, 4.4, 9.5]
std_errors = [1.1, 1.2, 0.8, 0.7, 0.9]

sample = CenterSample.from_observations(estimates, std_errors, ids=ids)

# one frozen pool of centered Gaussian draws backs every critical value
pool = make_mc_pool(sample.sigma, n_samples=100_000, seed=42)

alpha = 0.05
tukey = tukey_rank_cis(sample, alpha, pool)
seq, trace = sequential_tukey(sample, alpha, pool)
boot = BootstrapConfig(n_boot=10_000, seed=42)
zhang = zhang_simultaneous(sample, alpha, boot).cis
pointwise = spiegelhalter_pointwise(sample, alpha, boot)

print(f"95% simultaneous rank intervals ({sample.n} centers), "
      "and 95% pointwise ones for comparison\n")
print(f"{'id':<10} {'estimate':>9} {'se':>5}   {'tukey':>8} {'seqtukey':>9} {'zhang':>8}"
      f" {'pointwise':>10}")
for k in range(sample.n):
    row = [f"[{ci.lower},{ci.upper}]" for ci in
           (tukey.intervals[k], seq.intervals[k], zhang.intervals[k], pointwise[k])]
    print(f"{sample.ids[k]:<10} {sample.y[k]:>9.2f} {sample.sigma[k]:>5.2f}   "
          f"{row[0]:>8} {row[1]:>9} {row[2]:>8} {row[3]:>10}")

print("\nThe sequential refinement never widens an interval:",
      "nested" if seq.is_nested_in(tukey) else "NOT nested (bug!)")
print(f"It converged after {trace.iterations} testing rounds; critical values "
      f"{np.round(trace.critical_values, 3).tolist()} never increase.")

for name, cis in (("tukey", tukey), ("seqtukey", seq)):
    est = rankability_estimate(cis)
    print(f"\n{name}: rankability >= {est:.3f} with 95% confidence "
          f"(interval [{est:.3f}, 1])")

print("\nReading the table: every unit whose interval starts at 1 is a")
print("candidate for best; units whose intervals are singletons are fully")
print("separated from the rest at this confidence level.")
