"""Campaign configuration: defaults, validation, YAML round-trip."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import yaml

from . import saddle

SUITES = ("saddle", "blowup", "cones", "volume", "moser", "homogeneous")

DEFAULT_TOLERANCES = {
    "commutation": 1e-7,
    "volume_residual": 1e-10,
    "volume_control_min": 1e-3,
    "density_match": 1e-6,
    "distortion_ratio": 2.0,
    "cone_ratio": 2.0,
    "expansion_deficit": 0.05,
    "jacobian_fd": 1e-5,
    "richardson": 1e-8,
    "time_change_oracle": 1e-7,
    "moser_identity": 1e-10,
    "moser_invariance": 1e-9,
    "moser_transport": 1e-6,
    "moser_commutation": 1e-6,
    "moser_commutator": 1e-8,
    "group_invariant": 1e-10,
    "conj_residual": 1e-9,
    "horocycle_scaling": 1e-10,
    "t_conjugation": 1e-9,
}
# the tolerances a measured value must exceed: lowering one of these loosens it
LOWER_BOUNDS = frozenset({"volume_control_min"})


class ConfigError(ValueError):
    """Malformed campaign configuration; message carries the field path."""


def _integer_at_least(value, low):
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _in(low, high):
    """Predicate: a finite number (never a bool) in the open interval (low, high)."""
    return lambda v: _finite_number(v) and low < v < high


_NUMBER = ("a finite number", _finite_number)
_AUTO = ("a finite number or 'auto'", lambda v: v == "auto" or _finite_number(v))
# an Anosov block model needs a stable and an unstable direction
_RATES = ("a non-empty list of finite numbers",
          lambda v: isinstance(v, list) and bool(v) and all(map(_finite_number, v)))
_COUNT = ("a positive integer", lambda v: _integer_at_least(v, 1))

# every field but `tolerances`: what it must be, and the test of that
_FIELD_RULES = {
    "seed": ("an integer >= 0", lambda v: _integer_at_least(v, 0)),
    "saddle_rates": _RATES,
    "anosov_stable": _RATES,
    "anosov_unstable": _RATES,
    "lam": _NUMBER,
    "mu": _NUMBER,
    "rho0": _AUTO,
    "volume_mode": ("true or false", lambda v: isinstance(v, bool)),
    # the power atlas u -> |u|^alpha u needs alpha in (-1, 0]
    "alpha": ("a number in (-1, 0] or 'auto'",
              lambda v: v == "auto" or (_finite_number(v) and -1 < v <= 0)),
    "omega": ("an aperture in (0, pi/4)", _in(0, math.pi / 4)),
    # the transition shell (delta, 2 delta) must lie inside the unit disk
    "delta": ("a number in (0, 0.5)", _in(0, 0.5)),
    # the shell checks compare a subsample at each later delta with the first, rescaled
    "delta_sweep": ("a list of at least 2 distinct numbers in (0, 0.5)",
                    lambda v: isinstance(v, list) and all(map(_in(0, 0.5), v))
                    and len(set(v)) >= 2),
    "samples": _COUNT,
    "cone_orbits": _COUNT,
    "crossing_entries": _COUNT,
    # n = 1 has no transversal block; an empty list would leave a suite without checks
    "n_values": ("a non-empty list of integers >= 2",
                 lambda v: isinstance(v, list) and bool(v)
                 and all(_integer_at_least(n, 2) for n in v)),
    "step": ("a positive number", _in(0, math.inf)),
    "moser_strength": _NUMBER,
    "moser_radius": ("a positive number", _in(0, math.inf)),
    "moser_steps": _COUNT,
}


@dataclass
class CampaignConfig:
    """Everything a verification run needs, serializable to YAML.

    Defaults mirror the main worked example: a 4-dimensional saddle with
    rates (-1, -1, 1, 1) transverse to a base with rates (-2, 0, 2),
    comparison constants exp(-2) and exp(2), slow-down exponent picked
    automatically (0.5), aperture 0.1, atlas exponent -(k-1)/k.
    """

    seed: int = 42
    saddle_rates: list = field(default_factory=lambda: [-1.0, -1.0, 1.0, 1.0])
    anosov_stable: list = field(default_factory=lambda: [-2.0])
    anosov_unstable: list = field(default_factory=lambda: [2.0])
    lam: float = math.exp(-2.0)
    mu: float = math.exp(2.0)
    rho0: float | str = "auto"
    volume_mode: bool = False
    alpha: float | str = "auto"
    omega: float = 0.1
    delta: float = 0.1
    delta_sweep: list = field(default_factory=lambda: [1e-1, 1e-2, 1e-3])
    samples: int = 1000
    cone_orbits: int = 24
    crossing_entries: int = 1000
    n_values: list = field(default_factory=lambda: [2, 3, 4])
    step: float = 1e-3
    moser_strength: float = 0.1
    moser_radius: float = 0.5
    moser_steps: int = 1000
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.tolerances, dict):
            raise ConfigError(f"tolerances: must be a mapping, got {self.tolerances!r}")
        tol = dict(DEFAULT_TOLERANCES)
        unknown = set(self.tolerances) - set(tol)
        if unknown:
            raise ConfigError(f"tolerances: unknown keys {sorted(unknown)}")
        bad = {key: value for key, value in self.tolerances.items() if not _finite_number(value)}
        if bad:
            raise ConfigError(f"tolerances: values must be finite numbers, got {bad!r}")
        tol.update(self.tolerances)
        self.tolerances = tol
        for name, (what, valid) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not valid(value):
                raise ConfigError(f"{name}: must be {what}, got {value!r}")
        # the model must be buildable.  pick_rho0 checks lam < lam' <= 1 <= mu' < mu,
        # which an explicit rho0 needs too; its value is a measured input.
        for fields, build in (("saddle_rates", self.saddle_spec),
                              ("anosov_stable, anosov_unstable, lam, mu", self.anosov_model),
                              ("lam, mu, saddle_rates", self._picked_rho0)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{fields}: {exc}") from exc

    # derived model objects -------------------------------------------------

    @property
    def k(self):
        return len(self.saddle_rates)

    def saddle_spec(self):
        return saddle.SaddleSpec(rates=tuple(self.saddle_rates))

    def anosov_model(self):
        return saddle.AnosovModel(stable_rates=tuple(self.anosov_stable),
                                  unstable_rates=tuple(self.anosov_unstable),
                                  lam=self.lam, mu=self.mu)

    def resolved_rho0(self):
        return self._picked_rho0() if self.rho0 == "auto" else float(self.rho0)

    def _picked_rho0(self):
        """The automatic rho0; raises InfeasibleRates when the rates admit none."""
        spec = self.saddle_spec()
        return saddle.pick_rho0(self.lam, self.mu, spec.lam_prime, spec.mu_prime,
                                k=self.k, volume_mode=self.volume_mode)

    def resolved_alpha(self):
        if self.alpha != "auto":
            return float(self.alpha)
        return -(self.k - 1) / self.k

    def bump_profile(self):
        return saddle.BumpProfile(delta=self.delta, rho0=self.resolved_rho0())

    # serialization ----------------------------------------------------------

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError(f"top level: expected a mapping, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown fields {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_yaml(self):
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    @classmethod
    def from_yaml(cls, text):
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"YAML parse error: {exc}") from exc
        if data is None:
            data = {}
        return cls.from_dict(data)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_yaml(fh.read())
