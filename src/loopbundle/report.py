"""Run configuration and machine-readable verification reports."""

import json
from dataclasses import dataclass, field, fields

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

# The fewest RK4 steps a reconstruction takes.
MIN_STEPS = 16


@dataclass
class RunConfig:
    """Settings of one verification run, validated on construction.

    ``loop``, ``samples``, ``seed`` and ``steps`` feed the suites;
    ``tolerances`` maps each name in ``DEFAULT_TOLERANCES`` to the
    tolerance of the cases that read it; ``report`` is the file the CLI
    writes the JSON report to ("" for none).  As config-file keys and CLI
    flags the settings keep their field names and a tolerance is
    ``tol.<name>``; ``cli.resolve_config`` layers them.
    """

    loop: str = "qc"
    samples: int = 100
    seed: int = 0
    steps: int = 256
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    report: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Reject a sample count or tolerance that is not positive (or NaN),
        a step count below ``MIN_STEPS``, and a tolerance name that no
        case reads."""
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.steps < MIN_STEPS:
            raise ValueError(f"steps must be at least {MIN_STEPS}")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ValueError(f"unknown tolerance name: {', '.join(map(repr, unknown))}")
        if not all(t > 0 for t in self.tolerances.values()):
            raise ValueError("tolerances must be positive")

    def tol(self, name):
        return self.tolerances[name]

    @classmethod
    def keys(cls):
        """The settings a config key or flag names, besides ``tol.<name>``."""
        return [f.name for f in fields(cls) if f.name != "tolerances"]

    @classmethod
    def from_values(cls, values):
        """A config from ``{key: value}``, each key a setting or
        ``tol.<name>``; a value is converted by the setting's type (float
        for a tolerance), so strings from a file are accepted."""
        types = {f.name: f.type for f in fields(cls)}
        tolerances = dict(DEFAULT_TOLERANCES)
        settings = {}
        for key, value in values.items():
            if key.startswith("tol."):
                tolerances[key[4:]] = float(value)
            else:
                settings[key] = types[key](value)
        return cls(tolerances=tolerances, **settings)


def read_config(path):
    """The ``key = value`` lines of a config file, skipping blank and ``#``
    lines; a key that is neither a setting nor ``tol.<name>`` is rejected."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            if not key.startswith("tol.") and key not in RunConfig.keys():
                raise ValueError(f"unknown config key: {key}")
            values[key] = raw.strip()
    return values
