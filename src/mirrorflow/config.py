"""Scenario configuration: a flat key = value text format (dotted keys give
structure), validation with actionable messages, and builders that turn a
configuration into runnable system specs.

All randomness flows from the single `seed` entry; manifests written next to
run outputs record everything needed to reproduce a run bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .dynamics import (AVERAGED_KINDS, DETERMINISTIC_KINDS, SYSTEM_KINDS, SystemSpec, md_bundle,
                       nesterov_bundle, noise_for, run_size_error, step_fits_span, step_guard)
from .errors import ParseError, ValidationError
from .maps import make_map
from .objectives import MinimizerCertificate, make_objective, solve_minimizer
from .presets import (
    DEFAULT_BASE_SEED,
    certificate_for,
    default_rank1,
    default_start,
    default_sum_exp,
    face_sum_exp,
)
from .schedules import PowerLaw, RateBundle, check_admissible, optimal_amd_exponents

OBJECTIVE_CHOICES = ("sum-exp", "rank1-quadratic")
OBJECTIVE_SOURCES = ("default", "face", "inline")
MIRROR_CHOICES = ("entropic-simplex", "euclidean")
NOISE_CHOICES = ("zero", "scalar", "diagonal", "state-scaled")
ETA_CHOICES = ("coupled", "explicit")


@dataclass
class ScenarioConfig:
    """Typed view of one scenario file; see `emit` for the canonical keys."""

    system_kind: str = "samd"
    objective_kind: str = "sum-exp"
    objective_source: str = "default"
    objective_dim: int = 3
    objective_c: list[list[float]] | None = None
    mirror_kind: str = "entropic-simplex"
    alpha_r: float | str = "auto"
    alpha_s: float = 0.5
    eta_mode: str = "coupled"
    eta_coef: float = 1.0
    eta_exponent: float = 0.0
    r_coef: float = 1.0
    beta: float = 2.0
    noise_kind: str = "scalar"
    sigma0: float = 0.1
    alpha_sigma: float = 0.0
    t0: float = 1.0
    t_end: float = 200.0
    h: float = 0.01
    record_stride: int = 10
    count: int = 100
    seed: int = DEFAULT_BASE_SEED
    out: str = "outputs"
    sweep_alpha_sigma: list[float] = field(default_factory=lambda: [0.2, 0.0])
    sweep_alpha_s: list[float] = field(default_factory=lambda: [0.5])
    sweep_alpha_r: list[str] = field(default_factory=lambda: ["auto-0.2", "auto", "auto+0.2"])

    def resolved_alpha_r(self) -> float:
        if self.alpha_r == "auto":
            return optimal_amd_exponents(self.alpha_sigma, self.alpha_s)
        return float(self.alpha_r)


def alpha_r_token(token: str) -> tuple[bool, float]:
    """Split a sweep.alpha_r token into (relative to auto, number): `auto` is
    (True, 0.0), `auto+x` / `auto-x` are (True, +-x) and a number x is
    (False, x). Raises ValueError for anything else."""
    if token == "auto":
        return True, 0.0
    if token.startswith(("auto+", "auto-")):
        return True, float(token[4:])
    return False, float(token)


def _parse_matrix(text: str) -> list[list[float]]:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return [[float(v) for v in r.split()] for r in rows]


def _emit_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _emit_matrix(rows: list[list[float]]) -> str:
    return " ; ".join(map(_emit_floats, rows))


class _Codec(NamedTuple):
    """How one key's value reads from and writes to scenario text, and the
    numbers (or numeric text) in it that must be finite."""

    parse: Callable[[str], object]
    emit: Callable[[object], str]
    numbers: Callable[[object], list]


_TEXT = _Codec(str, str, lambda value: [])
_INT = _Codec(int, str, lambda value: [])
_FLOAT = _Codec(float, lambda value: repr(float(value)), lambda value: [value])
_FLOATS = _Codec(lambda text: [float(v) for v in text.split()], _emit_floats, list)
_MATRIX = _Codec(_parse_matrix, _emit_matrix, lambda rows: [v for row in rows or [] for v in row])
_ALPHA_R = _Codec(lambda text: text if text == "auto" else float(text),
                  lambda value: value if value == "auto" else repr(float(value)),
                  lambda value: [value])
_SWEEP_ALPHA_R = _Codec(str.split, " ".join,
                        lambda tokens: [token.removeprefix("auto") for token in tokens])

#: every dotted key with its ScenarioConfig field and codec, in emit order
_KEYS = {
    "system.kind": ("system_kind", _TEXT),
    "objective.kind": ("objective_kind", _TEXT),
    "objective.source": ("objective_source", _TEXT),
    "objective.dim": ("objective_dim", _INT),
    "objective.c": ("objective_c", _MATRIX),
    "mirror.kind": ("mirror_kind", _TEXT),
    "rates.alpha_r": ("alpha_r", _ALPHA_R),
    "rates.alpha_s": ("alpha_s", _FLOAT),
    "rates.eta": ("eta_mode", _TEXT),
    "rates.eta_coef": ("eta_coef", _FLOAT),
    "rates.eta_exponent": ("eta_exponent", _FLOAT),
    "rates.r_coef": ("r_coef", _FLOAT),
    "rates.beta": ("beta", _FLOAT),
    "noise.kind": ("noise_kind", _TEXT),
    "noise.sigma0": ("sigma0", _FLOAT),
    "noise.alpha_sigma": ("alpha_sigma", _FLOAT),
    "run.t0": ("t0", _FLOAT),
    "run.t_end": ("t_end", _FLOAT),
    "run.h": ("h", _FLOAT),
    "run.record_stride": ("record_stride", _INT),
    "ensemble.count": ("count", _INT),
    "seed": ("seed", _INT),
    "out": ("out", _TEXT),
    "sweep.alpha_sigma": ("sweep_alpha_sigma", _FLOATS),
    "sweep.alpha_s": ("sweep_alpha_s", _FLOATS),
    "sweep.alpha_r": ("sweep_alpha_r", _SWEEP_ALPHA_R),
}


def parse_config(source: str | Path) -> ScenarioConfig:
    """Parse a scenario: a `Path` is read from disk, a `str` is the scenario
    text itself. Raises ParseError with the offending line, then
    ValidationError listing every violated constraint."""
    text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
    cfg = ScenarioConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", lineno)
        name, codec = _KEYS[key]
        try:
            setattr(cfg, name, codec.parse(value))
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", lineno) from None
    return _admitted(cfg)


def _admitted(cfg: ScenarioConfig) -> ScenarioConfig:
    violations = validate(cfg)
    if violations:
        raise ValidationError(violations)
    return cfg


def emit_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(emit(cfg)) == cfg."""
    lines = [f"{key} = {codec.emit(value)}" for key, (name, codec) in _KEYS.items()
             if (value := getattr(cfg, name)) is not None]
    return "\n".join(lines) + "\n"


def _nonfinite(value) -> bool:
    """True for a number (or numeric text) that is NaN or infinite."""
    try:
        return not math.isfinite(float(value))
    except ValueError:
        return False


def _nonfinite_keys(cfg: ScenarioConfig) -> list[str]:
    """Keys of every numeric entry holding a NaN or infinity."""
    return [key for key, (name, codec) in _KEYS.items()
            if any(_nonfinite(v) for v in codec.numbers(getattr(cfg, name)))]


def validate(cfg: ScenarioConfig) -> list[str]:
    """All constraint violations, each naming the broken condition. NaN or
    infinite numbers are reported alone: no other check is meaningful on
    them."""
    nonfinite = _nonfinite_keys(cfg)
    if nonfinite:
        return [f"{key} must be finite, not NaN or infinity" for key in nonfinite]
    bad = []
    if cfg.system_kind not in SYSTEM_KINDS:
        bad.append(f"system.kind must be one of {SYSTEM_KINDS}, got {cfg.system_kind!r}")
    if cfg.objective_kind not in OBJECTIVE_CHOICES:
        bad.append(f"objective.kind must be one of {OBJECTIVE_CHOICES}")
    if cfg.objective_source not in OBJECTIVE_SOURCES:
        bad.append(f"objective.source must be one of {OBJECTIVE_SOURCES}")
    if cfg.objective_dim < 1:
        bad.append("objective.dim must be >= 1")
    if cfg.objective_source == "inline" and not cfg.objective_c:
        bad.append("objective.source = inline requires objective.c")
    if cfg.objective_c is not None:
        widths = {len(r) for r in cfg.objective_c}
        if len(widths) != 1:
            bad.append("objective.c rows must share one width")
        elif widths.pop() != cfg.objective_dim:
            bad.append("objective.c width must equal objective.dim")
    if cfg.mirror_kind not in MIRROR_CHOICES:
        bad.append(f"mirror.kind must be one of {MIRROR_CHOICES}")
    if cfg.noise_kind not in NOISE_CHOICES:
        bad.append(f"noise.kind must be one of {NOISE_CHOICES}")
    if cfg.eta_mode not in ETA_CHOICES:
        bad.append(f"rates.eta must be one of {ETA_CHOICES}, got {cfg.eta_mode!r}")
    if cfg.r_coef <= 0:
        bad.append("rates.r_coef must be positive")
    if cfg.eta_mode == "explicit" and cfg.eta_coef <= 0:
        bad.append("rates.eta_coef must be positive")
    if cfg.sigma0 < 0:
        bad.append("noise.sigma0 must be non-negative")
    if cfg.alpha_s < 0:
        bad.append(
            "rates.alpha_s must be >= 0: the inverse sensitivity s(t) has to be "
            "non-decreasing for the noise damping to work"
        )
    if not 0 < cfg.t0 < cfg.t_end:
        bad.append("need 0 < run.t0 < run.t_end")
    if cfg.h > 0 and math.isinf((cfg.t_end - cfg.t0) / cfg.h):
        bad.append(f"run.h = {cfg.h!r} is too small: (run.t_end - run.t0) / run.h overflows")
    elif not step_fits_span(cfg.t0, cfg.t_end, cfg.h):
        bad.append("need 0 < run.h <= t_end - t0")
    elif cfg.record_stride >= 1 and (too_large := run_size_error(
            cfg.t0, cfg.t_end, cfg.h, cfg.record_stride, cfg.objective_dim)):
        bad.append(f"run.h = {cfg.h!r} is too small: {too_large}")
    if cfg.record_stride < 1:
        bad.append("run.record_stride must be >= 1")
    if cfg.count < 1:
        bad.append("ensemble.count must be >= 1")
    if cfg.seed < 0:
        bad.append("seed must be >= 0")
    if "#" in cfg.out or len(cfg.out.splitlines()) > 1:
        bad.append("out must not contain '#' or a line break (the scenario file "
                   "would read it back cut short)")
    elif cfg.out != cfg.out.strip():
        bad.append("out must not start or end with whitespace (the scenario file "
                   "would read it back stripped)")
    for token in cfg.sweep_alpha_r:
        try:
            alpha_r_token(token)
        except ValueError:
            bad.append(f"sweep.alpha_r tokens must be auto, auto+x, auto-x or a number, "
                       f"got {token!r}")
    if cfg.system_kind == "nesterov":
        if cfg.mirror_kind != "euclidean":
            bad.append("system.kind = nesterov requires mirror.kind = euclidean")
        if cfg.beta < 2.0:
            bad.append("rates.beta must be >= 2")
    if cfg.system_kind in DETERMINISTIC_KINDS and cfg.noise_kind != "zero":
        if cfg.sigma0 != 0.0:
            bad.append(
                f"system.kind = {cfg.system_kind} is deterministic; set noise.kind "
                "= zero or noise.sigma0 = 0"
            )
    if cfg.system_kind in AVERAGED_KINDS:
        if cfg.alpha_r == "auto" and cfg.alpha_sigma >= 0.5:
            bad.append(
                "rates.alpha_r = auto requires noise.alpha_sigma < 1/2 "
                "(the optimal-exponent rule alpha_r = alpha_s - alpha_sigma + 1/2)"
            )
        elif cfg.alpha_r != "auto" and cfg.alpha_r <= 0:
            bad.append("rates.alpha_r must be positive")
        # the bundle is built only from an otherwise valid configuration
        if not bad:
            rates = build_rates(cfg)
            bad += check_admissible(rates, horizon=cfg.t_end).failures()
            too_large = step_guard(rates, cfg.h, cfg.t_end)
            if too_large is not None:
                bad.append(too_large)
    return bad


def check_ensemble_size(cfg: ScenarioConfig) -> None:
    """Raise ValidationError naming ensemble.count when cfg.count runs'
    recorded rows together exceed MAX_RECORD_BYTES: an ensemble holds every
    trajectory before it aggregates. `validate` has already capped one run."""
    too_large = run_size_error(cfg.t0, cfg.t_end, cfg.h, cfg.record_stride,
                               cfg.objective_dim, cfg.count)
    if too_large is not None:
        raise ValidationError([f"ensemble.count = {cfg.count} is too large: {too_large}"])


def build_rates(cfg: ScenarioConfig) -> RateBundle:
    if cfg.system_kind == "nesterov":
        return nesterov_bundle(cfg.beta, t0=cfg.t0)
    if cfg.system_kind not in AVERAGED_KINDS:
        return md_bundle(alpha_s=cfg.alpha_s, t0=cfg.t0)
    alpha_r = cfg.resolved_alpha_r()
    if cfg.eta_mode == "coupled":
        eta = PowerLaw(cfg.r_coef * alpha_r, alpha_r - 1.0)
    else:
        eta = PowerLaw(cfg.eta_coef, cfg.eta_exponent)
    return RateBundle(
        eta=eta,
        r=PowerLaw(cfg.r_coef, alpha_r),
        s=PowerLaw(1.0, cfg.alpha_s),
        t0=cfg.t0,
    )


def build_objective(cfg: ScenarioConfig):
    if cfg.objective_source == "inline":
        return make_objective(cfg.objective_kind, cfg.objective_c)
    if cfg.objective_kind == "rank1-quadratic":
        return default_rank1()
    return face_sum_exp() if cfg.objective_source == "face" else default_sum_exp()


def build_spec(cfg: ScenarioConfig) -> tuple[SystemSpec, MinimizerCertificate]:
    """Materialize the configured system and its minimizer certificate."""
    mmap = make_map(cfg.mirror_kind, cfg.objective_dim)
    objective = build_objective(cfg)
    if objective.dim != mmap.dim:
        raise ValidationError(["objective.dim must match the mirror map dimension"])
    if cfg.objective_source == "inline":
        certificate = solve_minimizer(objective, mmap, tol=1e-10)
    else:
        certificate = certificate_for(objective, mmap)
    x0, z0 = default_start(mmap)
    spec = SystemSpec(
        kind=cfg.system_kind,
        mmap=mmap,
        objective=objective,
        rates=build_rates(cfg),
        noise=noise_for(cfg.system_kind, cfg.noise_kind, cfg.sigma0, cfg.alpha_sigma, mmap),
        x0=x0,
        z0=z0,
        beta=cfg.beta if cfg.system_kind == "nesterov" else None,
    )
    return spec, certificate


def with_overrides(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    """A copy of cfg with the given fields replaced, validated like a
    scenario file: raises ValidationError."""
    return _admitted(replace(cfg, **kwargs))


def config_digest(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()


def write_manifest(path, cfg: ScenarioConfig, command: str, extra: dict | None = None,
                   streams: int | None = None) -> None:
    """Flat key = value manifest sufficient to reproduce the run; it lists
    the seeds of the first `streams` trajectories (default cfg.count)."""
    streams = cfg.count if streams is None else streams
    lines = [
        f"tool_version = {__version__}",
        f"command = {command}",
        f"config_sha256 = {config_digest(cfg)}",
        f"base_seed = {cfg.seed}",
        f"trajectory_seeds = {' '.join(f'{cfg.seed}:{i}' for i in range(streams))}",
        f"h = {cfg.h!r}",
        f"t0 = {cfg.t0!r}",
        f"t_end = {cfg.t_end!r}",
        f"record_stride = {cfg.record_stride}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
