"""Fig. 1b: compression ratio vs normalized RMS error for the SP dataset.

Paper series (550 GB SP dataset): ratios 5, 16, 55, 231, 5580 at errors
1e-6 .. 1e-2 — roughly a decade of compression per decade of error, with
acceleration at loose tolerances.  The proxy reproduces the monotone
decade-per-decade *shape*; absolute ratios are capped by the proxy's much
smaller dimensions.
"""


from repro.core import sthosvd

from benchmarks.conftest import table

PAPER_SERIES = {1e-6: 5, 1e-5: 16, 1e-4: 55, 1e-3: 231, 1e-2: 5580}


def test_fig1b_compression_vs_error(benchmark, datasets):
    ds, x = datasets["SP"]

    def sweep():
        out = {}
        for eps in sorted(PAPER_SERIES):
            res = sthosvd(x, tol=eps, method="svd")
            out[eps] = (
                res.decomposition.compression_ratio,
                res.decomposition.relative_error(x),
            )
        return out

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for eps in sorted(PAPER_SERIES):
        ratio, err = measured[eps]
        rows.append([f"{eps:.0e}", PAPER_SERIES[eps], ratio, err])
    table(
        f"Fig. 1b: compression vs error, SP proxy {ds.shape} "
        f"(paper: 500x500x500x11x50)",
        ["eps", "paper C", "measured C", "true error"],
        rows,
    )

    ratios = [measured[eps][0] for eps in sorted(PAPER_SERIES)]
    # Shape claims: strictly increasing with eps, > 10x per two decades,
    # and hundreds-fold compression at 1e-2.
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] / ratios[0] > 20
    assert ratios[-1] > 100
    # Every point respects its error budget.
    for eps in PAPER_SERIES:
        assert measured[eps][1] <= eps
