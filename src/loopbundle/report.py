"""Run configuration and machine-readable verification reports."""

import json
import os
from dataclasses import dataclass, field

from .errors import ReportWriteFailure


def worst_residual(worst, *residuals):
    """The largest of ``worst`` and ``residuals``, NaN if any of them is NaN.

    Builtin ``max(0.0, nan)`` returns 0.0, which would let a non-finite
    residual pass its tolerance; here it stays NaN and fails the case.
    """
    for r in residuals:
        if worst == worst and not r <= worst:
            worst = r
    return worst


@dataclass
class CaseResult:
    name: str
    max_residual: float
    tolerance: float
    samples: int

    @property
    def passed(self):
        return self.max_residual <= self.tolerance

    def as_dict(self):
        return {
            "name": self.name,
            "max_residual": f"{self.max_residual:.15g}",
            "tolerance": f"{self.tolerance:.15g}",
            "pass": self.passed,
            "samples": self.samples,
        }


@dataclass
class VerificationReport:
    suite: str
    cases: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name, residual, tolerance, samples):
        """Fold ``residual`` into the case ``name``, the one residual
        accumulator of every suite.

        The first call for a name appends a case at
        ``worst_residual(0.0, residual)``, with this call's tolerance and
        sample count; a later call keeps the worse residual, NaN if either
        is NaN (:func:`worst_residual`).  Cases keep the order of their
        first call.
        """
        for case in self.cases:
            if case.name == name:
                case.max_residual = float(worst_residual(case.max_residual, residual))
                return
        self.cases.append(CaseResult(name, float(worst_residual(0.0, residual)),
                                     float(tolerance), samples))

    def extend(self, other):
        self.cases.extend(other.cases)

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    @property
    def max_residual(self):
        return worst_residual(0.0, *(c.max_residual for c in self.cases))

    def as_dict(self):
        return {
            "suite": self.suite,
            "pass": self.passed,
            "cases": [c.as_dict() for c in self.cases],
            "wall_time": round(self.wall_time, 6),
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def write(self, path):
        try:
            with open(path, "w") as fh:
                fh.write(self.to_json())
        except OSError as exc:
            raise ReportWriteFailure(str(exc)) from exc


DEFAULT_TOLERANCES = {
    "axioms": 1e-11,
    "structure": 1e-8,
    "jacobi": 1e-6,
    "adform": 1e-8,
    "reconstruct": 1e-6,
    "maurer_cartan": 1e-6,
    "batalin": 1e-10,
    "qsu2": 1e-10,
    "bundle": 1e-9,
    "commutator": 1e-6,
    "omega_d": 1e-8,
    "gauge_two_route": 1e-5,
    "structure_eq": 1e-5,
    "bianchi": 1e-4,
    "maxwell": 1e-12,
    "glue": 1e-8,
}


@dataclass
class RunConfig:
    loop: str = "qc"
    samples: int = 100
    seed: int = 0
    steps: int = 256
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    report_path: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Reject a sample count or tolerance that is not positive (or NaN),
        and a tolerance name that no case reads."""
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ValueError(f"unknown tolerance name: {', '.join(map(repr, unknown))}")
        if not all(t > 0 for t in self.tolerances.values()):
            raise ValueError("tolerances must be positive")

    def tol(self, name):
        return self.tolerances[name]

    @classmethod
    def from_file(cls, path):
        """Flat key=value config file; unknown keys rejected."""
        values = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, raw = line.partition("=")
                values[key.strip()] = raw.strip()
        cfg = cls()
        for key, raw in values.items():
            cfg.apply(key, raw)
        return cfg

    def apply(self, key, raw):
        if key == "loop":
            self.loop = raw
        elif key == "samples":
            self.samples = int(raw)
        elif key == "seed":
            self.seed = int(raw)
        elif key == "steps":
            self.steps = int(raw)
        elif key == "report":
            self.report_path = raw
        elif key.startswith("tol."):
            self.tolerances[key[4:]] = float(raw)
        else:
            raise KeyError(f"unknown config key: {key}")


def default_seed():
    return int(os.environ.get("LOOPBUNDLE_SEED", "0"))
