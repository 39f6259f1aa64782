"""Uniform result record for the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one named suite of exact identity checks.

    ``checks`` counts individual identities tested; ``failures`` holds one
    human-readable counterexample string per failed identity.  ``sample``
    owns the seeded loop of every sampled suite: it counts each trial,
    builds a failure's text only when that trial fails, and flags
    samples=0 as a vacuous pass.
    """

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, describe: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(describe)

    def sample(self, rng, samples: int, trial) -> CheckReport:
        """Run ``trial(rng, i)`` for i in range(samples); each trial draws
        sample i from ``rng`` and returns ``(ok, describe)``, and the
        zero-argument ``describe()`` is called only when ``ok`` is false.
        Returns the report; a negative ``samples`` raises ValueError."""
        if samples < 0:
            raise ValueError(f"{self.name}: samples must be nonnegative, got {samples}")
        if samples == 0:
            self.details["warning"] = "samples=0: vacuous pass"
        for i in range(samples):
            ok, describe = trial(rng, i)
            self.checks += 1
            if not ok:
                self.failures.append(describe())
        return self

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": list(self.failures),
            "details": dict(self.details),
        }
