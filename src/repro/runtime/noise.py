"""Run-to-run measurement noise.

"Individual mappings can have significant variation in performance from
run to run, necessitating multiple executions to obtain reliable
estimates of the performance mean and variance" (paper §1).  On real
clusters this variation comes from network contention, OS jitter, and
clock variation; the simulator reproduces it with multiplicative
lognormal noise so that AutoMap's 7-run averaging (§5) is *necessary* in
this reproduction too, not just faithful set dressing.

Noise draws are a pure function of (seed, context key, run index): the
same mapping re-measured in the same run slot observes the same time,
while different run indices vary — exactly the statistical structure of
repeated benchmarking.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.util.rng import RngStream, derive_seeds

__all__ = ["NoiseModel"]


class NoiseModel:
    """Multiplicative lognormal noise around a deterministic base time.

    Parameters
    ----------
    sigma:
        Log-space standard deviation.  The paper's applications show
        single-digit-percent run-to-run spread; the default 0.04 puts
        ~95 % of samples within ±8 %.
    seed:
        Root seed for the noise stream.
    cache:
        Memoise multiplicative factors per ``(context, run_index)``.
        Factors are pure functions of ``(seed, repr(context),
        run_index)`` — a fresh stream per draw — so caching returns the
        bitwise-identical factor the uncached path would recompute;
        :meth:`samples` and :meth:`mean_factor` then share one draw per
        slot instead of re-deriving the stream each time.

    Every query draws a run of slots in one call (:meth:`_draw`), which
    takes ``repr(context)`` and hashes the seed path's shared prefix
    once for the whole run.
    """

    def __init__(
        self, sigma: float = 0.04, seed: int = 0, cache: bool = False
    ) -> None:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        self.sigma = sigma
        self.seed = seed
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); center the mean.
        self._mu = -0.5 * sigma * sigma
        #: repr(context) -> {run_index: factor}, when caching.
        self._factors: Optional[Dict[str, Dict[int, float]]] = (
            {} if cache else None
        )

    def _draw(self, context: Hashable, start: int, count: int) -> List[float]:
        """The multiplicative factors of run slots ``start`` to
        ``start + count - 1``.

        Slot ``i`` draws from the stream ``RngStream(seed).fork("noise",
        repr(context), str(i))``, its seed derived from one hash of the
        shared ``(seed, "noise", repr)`` prefix.  Keyed by
        ``repr(context)`` — the exact string that names the stream, so
        two contexts draw the same factor iff they would share a stream
        anyway.  repr(), not hash(): Python randomises str hashing per
        process (PYTHONHASHSEED), which would make "seeded" measurements
        differ between runs of the same experiment.
        """
        context_repr = repr(context)
        slots = range(start, start + count)
        if self._factors is None:
            return self._fresh(context_repr, slots)
        known = self._factors.setdefault(context_repr, {})
        missing = [i for i in slots if i not in known]
        if missing:
            known.update(zip(missing, self._fresh(context_repr, missing)))
        return [known[i] for i in slots]

    def _fresh(self, context_repr: str, slots) -> List[float]:
        seeds = derive_seeds(
            self.seed, ("noise", context_repr), (str(i) for i in slots)
        )
        return [RngStream(s).lognormal(self._mu, self.sigma) for s in seeds]

    def sample(self, base: float, context: Hashable, run_index: int) -> float:
        """One noisy measurement of ``base`` seconds."""
        return self.samples(base, context, 1, run_index)[0]

    def samples(
        self, base: float, context: Hashable, count: int, start: int = 0
    ) -> List[float]:
        """``count`` independent noisy measurements of ``base``, from run
        slots ``start`` onward (a later measurement of the same context
        passes the number of slots already drawn)."""
        if count <= 0:
            return []
        if base < 0:
            raise ValueError("base time must be >= 0")
        if self.sigma == 0.0 or base == 0.0:
            return [base] * count
        return [base * factor for factor in self._draw(context, start, count)]

    def mean_factor(self, context: Hashable, count: int) -> float:
        """Mean multiplicative factor over run slots ``0..count-1``.

        ``mean(samples(base, context, count)) == base * mean_factor``
        up to float rounding: the bound-pruning layer uses this to turn
        a makespan lower bound into a lower bound on the *measured*
        mean performance of a candidate without drawing base-dependent
        samples.  Draws the exact per-slot factors :meth:`samples` uses.
        """
        if self.sigma == 0.0 or count <= 0:
            return 1.0
        # Plain left-to-right adds, not sum(): from Python 3.12 sum()
        # compensates float rounding, which would move the last bits.
        total = 0.0
        for factor in self._draw(context, 0, count):
            total += factor
        return total / count
