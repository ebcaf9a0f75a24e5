"""Machine descriptions for the alpha-beta-gamma cost model.

The model (paper Sec. V-A) charges ``alpha + W * beta`` seconds to send a
message of ``W`` words between any two processors and ``gamma`` seconds per
floating-point operation.  A *word* is one IEEE double (8 bytes).

``EDISON`` approximates one core of NERSC's Edison (Cray XC30, dual-socket
12-core Ivy Bridge, Aries dragonfly interconnect), the platform of the
paper's Sec. VIII experiments:

* peak flop rate 19.2 GFLOPS/core  ->  ``gamma = 1 / 19.2e9``
* MPI latency on Aries ~1.5 microseconds
* per-core effective bandwidth ~2.5 GB/s  ->  ``beta = 8 / 2.5e9`` s/word

Absolute constants only set the scale; the scaling *shapes* reproduced in
the benchmarks come from the cost formulas.  An ``efficiency`` factor
derates peak flops to account for non-ideal BLAS performance on small local
blocks (the paper reports 66% of peak at best).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineSpec:
    """alpha-beta-gamma machine description.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-word (8-byte double) transfer time in seconds.
    gamma:
        Time per floating-point operation in seconds at sustained rate.
    name:
        Human-readable identifier for reports.
    charge_reduce_flops:
        Whether the gamma term of (all-)reduce in Table I is charged.  The
        paper states the flop cost of reductions is ignored in its analysis;
        the default follows the paper so the simulator's ledger and the
        analytic formulas agree exactly.
    n_half:
        BLAS3 surface-to-volume coefficient: an ``m x k`` by ``k x n`` GEMM
        runs at ``1 / (1 + n_half * (1/m + 1/n + 1/k))`` of peak — the
        roofline-style penalty for matrices whose operand surfaces are
        large relative to the multiply volume.  ``0`` (default) models
        ideal BLAS; the paper's reported degradation at scale comes
        substantially from shrinking local blocks ("small matrix dimensions
        within local computation kernels ... degrade performance",
        Sec. VIII-D), which this surrogate captures.  See the
        EDISON_CALIBRATED preset.
    """

    alpha: float
    beta: float
    gamma: float
    name: str = "generic"
    charge_reduce_flops: bool = False
    n_half: float = 0.0

    def __post_init__(self) -> None:
        for field in ("alpha", "beta", "gamma"):
            value = getattr(self, field)
            if not value >= 0:  # NaN too
                raise ValueError(f"{field} must be non-negative, got {value}")

    @property
    def peak_flops(self) -> float:
        """Sustained flop rate implied by gamma (flops/second)."""
        if self.gamma == 0:
            raise ValueError("gamma is zero; peak flop rate is undefined")
        return 1.0 / self.gamma

    def with_efficiency(self, efficiency: float) -> "MachineSpec":
        """Return a copy whose gamma is derated by a BLAS efficiency in (0, 1]."""
        if not 0 < efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        return replace(
            self,
            gamma=self.gamma / efficiency,
            name=f"{self.name}(eff={efficiency:g})",
        )

    def blas_efficiency(self, m: float, n: float, k: float) -> float:
        """Fraction of peak an ``m x k @ k x n`` GEMM achieves.

        The surface-to-volume surrogate ``1 / (1 + n_half (1/m + 1/n + 1/k))``;
        returns 1.0 for the ideal (``n_half == 0``) machine.
        """
        if min(m, n, k) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(m, n, k)}")
        if self.n_half == 0:
            return 1.0
        return 1.0 / (1.0 + self.n_half * (1.0 / m + 1.0 / n + 1.0 / k))

    def flop_time(
        self, flops: float, gemm_dims: tuple[float, float, float] | None = None
    ) -> float:
        """Modeled seconds for ``flops`` local operations.

        ``gemm_dims = (m, n, k)`` of the dominating BLAS3 call feeds the
        efficiency surrogate; omit for spectral / vector work charged at
        plain gamma.
        """
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        eff = 1.0 if gemm_dims is None else self.blas_efficiency(*gemm_dims)
        return self.gamma * flops / eff


#: One Edison (Cray XC30) core, the paper's experimental platform.
EDISON = MachineSpec(
    alpha=1.5e-6,
    beta=8.0 / 2.5e9,
    gamma=1.0 / 19.2e9,
    name="edison-core",
)

#: Edison with the BLAS surrogate calibrated against the paper's
#: single-node measurement: 66-67% of peak on the 200^4 strong-scaling
#: problem, whose dominant local GEMM is roughly 200 x 200 x (200^3 / 24),
#: giving 1 / (1 + c * 2/200) = 0.67 at c = 50.  Use this preset for the
#: Fig. 8-9 predictions; the ideal EDISON is kept for exact model-vs-ledger
#: accounting tests.
EDISON_CALIBRATED = MachineSpec(
    alpha=1.5e-6,
    beta=8.0 / 2.5e9,
    gamma=1.0 / 19.2e9,
    name="edison-calibrated",
    n_half=50.0,
)

#: A deliberately communication-dominated machine, useful in tests to make
#: communication terms visible against tiny local problems.
SLOW_NETWORK = MachineSpec(
    alpha=1.0e-3,
    beta=1.0e-6,
    gamma=1.0 / 19.2e9,
    name="slow-network",
)

#: Unit-cost machine: alpha = beta = gamma = 1.  With this spec the modeled
#: "time" of an operation equals (messages + words + flops), which makes the
#: ledger's accounting directly testable against hand counts.
UNIT = MachineSpec(alpha=1.0, beta=1.0, gamma=1.0, name="unit")
