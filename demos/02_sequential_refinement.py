"""Where the sequential procedure beats single-step Tukey.

Fifty centers sit one unit apart with noise scales drawn from [0.5, 1.5].
Both methods start from the same studentized-range critical value; the
sequential one then retests the surviving pairs against smaller quantiles
recomputed on the same draw pool.  The gains are modest (typically one rank
on a handful of intervals) but they are gains for free: same joint level.

Writes band-chart data to seq_vs_tukey.tsv and, when matplotlib is
importable, a rendering to seq_vs_tukey.png.
"""

import numpy as np

from rankci import (
    CenterSample,
    comparison_scenario,
    make_mc_pool,
    rankability_estimate,
    sequential_tukey,
    tukey_rank_cis,
)

cfg = comparison_scenario(50, alpha=0.01, seed=7)
rng = np.random.default_rng(7)
mu = np.asarray(cfg.mu)
sigma = np.asarray(cfg.sigma)
y = mu + sigma * rng.standard_normal(50)

sample = CenterSample.from_observations(y, sigma)
pool = make_mc_pool(sample.sigma, n_samples=100_000, seed=11)

tukey = tukey_rank_cis(sample, cfg.alpha, pool)
seq, trace = sequential_tukey(sample, cfg.alpha, pool)

improved = [
    (k, t, s)
    for k, (t, s) in enumerate(zip(tukey.intervals, seq.intervals))
    if (s.lower, s.upper) != (t.lower, t.upper)
]
print(f"joint level: {1 - cfg.alpha:.0%}, centers: {sample.n}")
print(f"sequential rounds: {trace.iterations}, critical values "
      f"{np.round(trace.critical_values, 3).tolist()}")
print(f"intervals improved: {len(improved)} of {sample.n}")
for k, t, s in improved:
    print(f"  position {k + 1:2d}: [{t.lower},{t.upper}] -> [{s.lower},{s.upper}]")

r_tuk = rankability_estimate(tukey)
r_seq = rankability_estimate(seq)
print(f"\nrankability estimate: tukey {r_tuk:.3f}, seqtukey {r_seq:.3f} "
      f"(each extra rank shaved is worth {1 / (50 * 49):.5f})")

with open("seq_vs_tukey.tsv", "w", encoding="utf-8") as fh:
    fh.write("position\testimate\tmethod\tlower\tupper\n")
    for method, cis in (("tukey", tukey), ("seqtukey", seq)):
        for k in range(sample.n):
            ci = cis.intervals[k]
            fh.write(f"{k + 1}\t{sample.y[k]:.4f}\t{method}\t{ci.lower}\t{ci.upper}\n")
print("\nwrote seq_vs_tukey.tsv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the band chart")
else:
    fig, ax = plt.subplots(figsize=(9, 5))
    xs = np.arange(1, sample.n + 1)
    ax.fill_between(xs, [c.lower for c in tukey.intervals],
                    [c.upper for c in tukey.intervals],
                    step="mid", alpha=0.35, label="tukey")
    ax.fill_between(xs, [c.lower for c in seq.intervals],
                    [c.upper for c in seq.intervals],
                    step="mid", alpha=0.5, label="seqtukey")
    ax.plot(xs, xs, "k.", markersize=3, label="empirical rank")
    ax.set_xlabel("center (sorted by estimate)")
    ax.set_ylabel("rank")
    ax.legend()
    ax.set_title("99% simultaneous rank intervals, 50 centers")
    fig.tight_layout()
    fig.savefig("seq_vs_tukey.png", dpi=120)
    print("wrote seq_vs_tukey.png")
