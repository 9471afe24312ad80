"""Configuration-driven experiment runner with reproducible outputs.

Every subcommand writes plot-ready CSV or JSON plus a run manifest
recording the config hash, seed, tolerances in effect, and a sha256
digest of every emitted file.  Given the same config and seed the data
files are byte-identical for any --jobs value; wall-clock metadata lives
only in the manifest.

Exit codes: 0 success, 2 config invalid, 3 precondition violated,
4 precision exhausted, 5 tolerance unreachable.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import (
    AmbiguityBudgetExceeded,
    BudgetTooLarge,
    ConfigInvalid,
    Indeterminate,
    PrecisionExhausted,
    SlopeTooSmall,
    TolUnreachable,
)
from .counting import correlation_series, monte_carlo_counting
from .dimension import (
    MtpInput,
    conjectured_dim_hat,
    dim_ball,
    dim_mult,
    dim_onedim,
    dim_rect,
    markov_bounds,
    mtp_dimension,
    unbounded_bounds,
)
from .markov import beta_map, build_markov, entropy_and_dim, is_primitive, power_map
from .measures import ParryYrrapMeasure, ProductMeasure
from .orbits import (
    DiagonalTorusSystem,
    IntegerMatrixSystem,
    as_fraction,
    eigenvalue_moduli,
    is_symbolic,
    orbit_enclosures,
    resolve_scalar,
)
from .targets import (
    AccumulationSet,
    RateFunction,
    Shape,
    TargetSpec,
    hyperboloid_volume,
    lebesgue_volume,
)

STOCHASTIC_COMMANDS = {"count", "mixing"}

TOLERANCES = {
    "measure_truncation_tail": 1e-12,
    "full_cylinder_decision": 2.0 ** -40,
    "eigenvalue_moduli": 1e-12,
    "perron_rayleigh": 1e-12,
    "support_threshold": 1e-9,
    "support_merge_gap": 1e-6,
    "ambiguity_budget": 1e-3,
}


@dataclass
class ExperimentConfig:
    """One experiment: a command plus its parameter mapping.

    Round-trips losslessly through JSON; the canonical serialization is
    what gets hashed into the manifest.
    """

    command: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"command": self.command, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "command" not in data:
            raise ConfigInvalid("config missing 'command'", field="command")
        return cls(command=data["command"], params=dict(data.get("params", {})))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    seed: Optional[int]
    tool_version: str
    started_at: str
    finished_at: str
    wall_time_seconds: float
    tolerances: dict
    outputs: dict  # filename -> sha256

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _parse_scalar(text: str) -> float:
    token = text.strip()
    return float(resolve_scalar(token)) if is_symbolic(token) else float(token)


def parse_system(text: str):
    kind, _, rest = text.partition(":")
    if kind == "diag":
        vals = [v.strip() for v in rest.split(",") if v.strip()]
        betas = []
        for v in vals:
            betas.append(v.lower() if is_symbolic(v) else _number(v))
        degenerate = any(abs(float(resolve_scalar(b))) <= 1 for b in betas)
        if degenerate:
            return DiagonalTorusSystem.with_degenerate(tuple(betas))
        return DiagonalTorusSystem(tuple(betas))
    if kind == "matrix":
        rows = tuple(
            tuple(int(v) for v in row.split(",")) for row in rest.split(";") if row
        )
        return IntegerMatrixSystem(rows)
    raise ConfigInvalid(f"unknown system spec {text!r}", field="system")


def _number(text: str):
    try:
        if "/" in text:
            return as_fraction(text)
        value = float(text)
        return int(value) if value.is_integer() and "." not in text else value
    except ValueError as exc:
        raise ConfigInvalid(f"bad number {text!r}") from exc


def parse_rate(text: str) -> RateFunction:
    kind, _, rest = text.partition(":")
    if kind == "exp":
        return RateFunction.exponential(float(rest))
    if kind == "pow":
        c, kappa = (float(v) for v in rest.split(","))
        return RateFunction.power(c, kappa)
    if kind == "superexp":
        return RateFunction.superexponential()
    if kind == "table":
        parts = rest.split(":")
        vals = [float(v) for v in parts[0].split(",")]
        extend = parts[1] if len(parts) > 1 else "none"
        return RateFunction.table(vals, extend=extend)
    raise ConfigInvalid(f"unknown rate spec {text!r}", field="rate")


def parse_point(text: str) -> tuple:
    """Comma-separated coordinates, each read exactly ("1/3", "0.1", "2")."""
    try:
        return tuple(as_fraction(v) for v in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"bad point {text!r}") from exc


def parse_t_points(text: str) -> AccumulationSet:
    pts = []
    for chunk in text.split(";"):
        pts.append(tuple(math.inf if v.strip() in ("inf", "+inf") else float(v)
                         for v in chunk.split(",")))
    return AccumulationSet(tuple(pts))


def _center(params: dict) -> tuple:
    center = params.get("center", "0")
    return tuple(center) if isinstance(center, (list, tuple)) else parse_point(center)


def _build_target(params: dict) -> TargetSpec:
    shape = Shape(params.get("shape", "ball"))
    center = _center(params)
    if shape == Shape.RECTANGLE:
        rates = tuple(parse_rate(r) for r in params["rates"])
    else:
        rates = (parse_rate(params["rate"]),)
    return TargetSpec(shape, center, rates)


# The parameters each dimension method reads.
_DIMENSION_PARAMS = {
    "ball": ("moduli", "lam"),
    "rect": ("moduli", "t_points"),
    "onedim": ("beta_modulus", "lam"),
    "mult": ("moduli", "lam"),
    "mtp": ("deltas", "u", "v"),
    "markov": ("beta_modulus", "lam"),
    "unbounded": ("moduli", "t_points"),
    "hat": ("moduli", "t_points", "deltas"),
}


def validate(config: ExperimentConfig) -> list[str]:
    """Diagnostics (never raises): each violated module hypothesis named.

    "error:" entries make run() fail fast; "note:" entries are advisory.
    """
    out: list[str] = []
    cmd = config.command
    p = config.params
    if cmd not in ("orbit", "count", "mixing", "volume", "dimension", "markov",
                   "support", "measure"):
        out.append(f"error: unknown command {cmd!r}")
        return out
    if cmd in STOCHASTIC_COMMANDS and p.get("seed") is None:
        out.append("error: a seed is mandatory for stochastic commands")
    if cmd in ("orbit", "count") and "system" in p:
        try:
            system = parse_system(p["system"])
        except (ConfigInvalid, ValueError) as exc:
            out.append(f"error: bad system spec ({exc})")
            return out
        if isinstance(system, DiagonalTorusSystem) and system.degenerate:
            out.append(
                "error: counting requires every |beta_i| > 1; coordinates with "
                "|beta| <= 1 must first go through the degenerate reduction"
            )
        if p.get("measure") == "parry" and not isinstance(system, DiagonalTorusSystem):
            out.append("error: --measure parry needs a diagonal system")
        if isinstance(system, IntegerMatrixSystem):
            try:
                mods = eigenvalue_moduli(system)
            except ArithmeticError as exc:
                out.append(f"error: eigenvalue moduli not certified ({exc})")
                return out
            if min(mods) <= 1:
                out.append(
                    "error: counting experiments require all eigenvalue moduli > 1 "
                    f"(got {mods})"
                )
    if cmd == "markov":
        beta = p.get("beta")
        power = int(p.get("power", 1))
        if beta is not None:
            slope = abs(float(resolve_scalar(str(beta)))) ** power
            if slope <= 8:
                out.append(
                    f"note: slope modulus {slope:.4g} <= 8; the Markov construction "
                    "requires modulus > 8 (raise --power)"
                )
    if cmd == "dimension":
        method = p.get("method", "ball")
        missing = [f"error: dimension --method {method} needs --{k.replace('_', '-')}"
                   for k in _DIMENSION_PARAMS.get(method, ()) if p.get(k) is None]
        if missing:
            return out + missing
        if method == "rect":
            try:
                acc = parse_t_points(p.get("t_points", ""))
                if not acc.bounded:
                    out.append(
                        "note: accumulation set has infinite coordinates; "
                        "use --method unbounded for two-sided bounds"
                    )
            except (ValueError, ConfigInvalid):
                out.append("error: bad t_points")
        if p.get("rate", "").startswith("superexp") and method == "rect":
            out.append(
                "note: a superexponential rate has lower order +inf; "
                "use --method unbounded"
            )
    if cmd == "count" and p.get("shape") == "rectangle":
        if not p.get("rates"):
            out.append("error: a rectangle target needs --rates")
    elif cmd == "count" or (cmd == "volume" and p.get("delta") is None):
        if p.get("rate") is None:
            out.append(f"error: {cmd} needs --rate")
            return out
    if cmd == "count" and p.get("shape") == "hyperboloid":
        rate = parse_rate(p["rate"])
        if rate.psi(1) >= 2.0 ** -len(_center(p)):
            out.append(
                "note: psi(1) >= 2^-d, so the closed-form hyperboloid volume "
                "caps at 1 for early n"
            )
    return out


def _float_str(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, str)) else _float_str(v)
                              for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(config: ExperimentConfig, out_dir: Path, jobs: int = 1,
        manifest_only: bool = False) -> RunManifest:
    """Execute a config; outputs land in out_dir next to the manifest."""
    diagnostics = validate(config)
    errors = [d for d in diagnostics if d.startswith("error:")]
    if errors:
        raise ConfigInvalid("; ".join(errors))
    for note in diagnostics:
        print(note, file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    clock = time.monotonic()
    outputs: dict[str, str] = {}
    if not manifest_only:
        handler = _HANDLERS[config.command]
        for path in handler(config.params, out_dir, jobs):
            outputs[path.name] = _digest(path)
    finished = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest = RunManifest(
        config_hash=config.config_hash,
        seed=config.params.get("seed"),
        tool_version=__version__,
        started_at=started,
        finished_at=finished,
        wall_time_seconds=round(time.monotonic() - clock, 3),
        tolerances=dict(TOLERANCES),
        outputs=outputs,
    )
    _write_json(out_dir / f"{config.command}_manifest.json", manifest.to_dict())
    return manifest


def _cmd_orbit(params: dict, out_dir: Path, jobs: int):
    system = parse_system(params["system"])
    x = parse_point(params["x"])
    steps = int(params["steps"])
    stride = int(params.get("stride", 1))
    bits = params.get("precision_bits")
    rows = [
        (n, i, *iv.outward_floats())
        for n, point in orbit_enclosures(system, x, steps, int(bits) if bits else None)
        if n % stride == 0 or n == steps
        for i, iv in enumerate(point)
    ]
    path = out_dir / "orbit.csv"
    _write_csv(path, ["n", "coord_index", "lo", "hi"], rows)
    return [path]


def _cmd_count(params: dict, out_dir: Path, jobs: int):
    system = parse_system(params["system"])
    target = _build_target(params)
    n_steps = int(params["steps"])
    samples = int(params.get("samples", 1))
    seed = int(params["seed"])
    checkpoints = [int(v) for v in params.get("checkpoints", [n_steps])]
    epsilon = float(params.get("epsilon", 0.5))
    band_tol = float(params.get("band_tol", 0.2))
    measure = None
    if params.get("measure") == "parry":
        measure = ProductMeasure(system.betas)
    summary = monte_carlo_counting(
        system, target, samples, n_steps, seed, checkpoints=checkpoints,
        epsilon=epsilon, band_tol=band_tol, measure=measure, jobs=jobs,
        ambiguity_budget=TOLERANCES["ambiguity_budget"], strict_ambiguity=True,
    )
    rows = []
    for res in summary.results:
        for row in res.checkpoints:
            rows.append((res.sample_id, row.n, row.r_lo, row.r_hi, row.phi, row.e))
    path = out_dir / "count.csv"
    _write_csv(path, ["sample_id", "N", "R_lo", "R_hi", "Phi", "e"], rows)
    summary_path = out_dir / "count_summary.json"
    _write_json(summary_path, {
        "fraction_in_band": summary.fraction_in_band,
        "band_tol": summary.band_tol,
        "max_abs_e": summary.max_abs_e,
        "phi_final": summary.phi_final,
        "samples": samples,
        "seed": seed,
    })
    return [path, summary_path]


def _cmd_mixing(params: dict, out_dir: Path, jobs: int):
    beta = params["beta"]
    e_set = tuple(float(v) for v in params["set_e"])
    f_set = tuple(float(v) for v in params["set_f"])
    lags = params.get("lags", list(range(1, 26)))
    if isinstance(lags, str):
        lo, _, hi = lags.partition(":")
        lags = list(range(int(lo), int(hi or lo) + 1))
    method = params.get("method", "exact")
    samples = params.get("samples")
    series = correlation_series(
        beta if isinstance(beta, str) else float(beta), e_set, f_set, lags,
        num_samples=int(samples) if samples else None,
        seed=int(params["seed"]), method=method,
    )
    path = out_dir / "mixing.csv"
    _write_csv(path, ["n", "phi_hat", "stderr"],
               [(n, v, s) for n, v, s in series.entries])
    fit_path = out_dir / "mixing_fit.json"
    _write_json(fit_path, {
        "kappa_hat": series.kappa_hat,
        "fit_c": series.fit_c,
        "fit_gamma": series.fit_gamma,
        "fit_r2": series.fit_r2,
        "method": method,
    })
    return [path, fit_path]


def _cmd_volume(params: dict, out_dir: Path, jobs: int):
    d = int(params["d"])
    shape = params.get("shape", "hyperboloid")
    path = out_dir / "volume.csv"
    if "delta" in params and params["delta"] is not None:
        delta = float(params["delta"])
        if shape == "hyperboloid":
            vol = hyperboloid_volume(d, delta)
        else:
            vol = min(1.0, 2.0 * delta) ** d
        _write_csv(path, ["n", "volume"], [(0, vol)])
        return [path]
    rate = parse_rate(params["rate"])
    steps = int(params.get("steps", 100))
    target = TargetSpec(Shape(shape), (0.0,) * d, (rate,) * (d if shape == "rectangle" else 1))
    ns = np.arange(1, steps + 1)
    vols = lebesgue_volume(target, ns)
    _write_csv(path, ["n", "volume"], [(int(n), float(v)) for n, v in zip(ns, vols)])
    return [path]


def _cmd_dimension(params: dict, out_dir: Path, jobs: int):
    method = params.get("method", "ball")
    payload: dict
    if method == "ball":
        report = dim_ball(_moduli(params), float(params["lam"]))
        payload = _report_dict(report)
    elif method == "rect":
        report = dim_rect(_moduli(params), parse_t_points(params["t_points"]))
        payload = _report_dict(report)
    elif method == "onedim":
        payload = {"value": dim_onedim(float(params["beta_modulus"]), float(params["lam"])),
                   "method": "onedim"}
    elif method == "mult":
        payload = {"value": dim_mult(_moduli(params), float(params["lam"])),
                   "method": "mult"}
    elif method == "mtp":
        inp = MtpInput(
            deltas=tuple(float(v) for v in params["deltas"]),
            u=tuple(float(v) for v in params["u"]),
            v=tuple(float(v) for v in params["v"]),
        )
        payload = _report_dict(mtp_dimension(inp))
    elif method == "markov":
        lam_lb, dim_lb = markov_bounds(float(params["beta_modulus"]), float(params["lam"]))
        payload = {"value": lam_lb, "dim_lb": dim_lb, "method": "markov_lb"}
    elif method == "unbounded":
        lo, hi = unbounded_bounds(_moduli(params), parse_t_points(params["t_points"]))
        payload = {"lower": lo, "upper": hi, "method": "unbounded_bounds"}
    elif method == "hat":
        report = conjectured_dim_hat(
            _moduli(params), parse_t_points(params["t_points"]),
            tuple(float(v) for v in params["deltas"]),
        )
        payload = _report_dict(report)
        payload["conjectural"] = True
    else:
        raise ConfigInvalid(f"unknown dimension method {method!r}", field="method")
    path = out_dir / "dimension.json"
    _write_json(path, payload)
    return [path]


def _moduli(params: dict) -> list[float]:
    return [abs(_parse_scalar(str(v))) for v in params["moduli"]]


def _report_dict(report) -> dict:
    return {
        "value": report.value,
        "method": report.method,
        "argmin_index": report.argmin_index,
        "attained_t": report.attained_t,
        "partition": report.partition,
        "error_bound": report.error_bound,
        "conjectural": report.conjectural,
    }


def _cmd_markov(params: dict, out_dir: Path, jobs: int):
    beta = params["beta"]
    power = int(params.get("power", 1))
    pl = power_map(str(beta) if isinstance(beta, str) else float(beta), power) \
        if power > 1 else beta_map(str(beta) if isinstance(beta, str) else float(beta))
    subsystem = build_markov(pl)
    primitive, witness = is_primitive(subsystem.matrix)
    h_top, dim_est = entropy_and_dim(subsystem.matrix, subsystem.slope_modulus)
    sparse_rows = [list(range(lo, hi)) for lo, hi in subsystem.rows]
    path = out_dir / "markov.json"
    _write_json(path, {
        "pieces": [list(p) for p in subsystem.pieces],
        "matrix_sparse_rows": sparse_rows,
        "kappa": subsystem.kappa,
        "slope_modulus": subsystem.slope_modulus,
        "certificates": subsystem.certificates,
        "primitive": primitive,
        "primitive_witness_power": witness,
        "entropy_estimate": h_top,
        "dim_estimate": dim_est,
    })
    return [path]


def _cmd_support(params: dict, out_dir: Path, jobs: int):
    beta = params["beta"]
    tol = float(params.get("tol", TOLERANCES["support_threshold"]))
    mu = ParryYrrapMeasure(str(beta) if isinstance(beta, str) else float(beta))
    sup = mu.support(tol=tol)
    path = out_dir / "support.json"
    _write_json(path, {
        "beta": mu.beta,
        "intervals": [list(iv) for iv in sup.intervals],
        "tol": tol,
    })
    return [path]


def _cmd_measure(params: dict, out_dir: Path, jobs: int):
    beta = params["beta"]
    mu = ParryYrrapMeasure(str(beta) if isinstance(beta, str) else float(beta))
    a = float(params.get("a", 0.0))
    b = float(params.get("b", 1.0))
    value = mu.measure_interval(a, b)
    path = out_dir / "measure.json"
    _write_json(path, {
        "beta": mu.beta,
        "a": a,
        "b": b,
        "value": value,
        "tol": 2 * mu.tail_bound,
    })
    return [path]


_HANDLERS = {
    "orbit": _cmd_orbit,
    "count": _cmd_count,
    "mixing": _cmd_mixing,
    "volume": _cmd_volume,
    "dimension": _cmd_dimension,
    "markov": _cmd_markov,
    "support": _cmd_support,
    "measure": _cmd_measure,
}


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its params")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--manifest-only", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinktarget",
        description="shrinking-target experiments on torus dynamics",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("orbit", help="emit an orbit enclosure trace")
    p.add_argument("--system", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--precision-bits", type=int)
    p.add_argument("--stride", type=int, default=1)
    _add_common(p)

    p = subs.add_parser("count", help="hit-counting experiment")
    p.add_argument("--system", required=True)
    p.add_argument("--shape", default="ball", choices=["ball", "rectangle", "hyperboloid"])
    p.add_argument("--center", default="0")
    p.add_argument("--rate")
    p.add_argument("--rates", nargs="*")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoints", default=None)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--band-tol", type=float, default=0.2)
    p.add_argument("--measure", choices=["lebesgue", "parry"], default="lebesgue")
    _add_common(p)

    p = subs.add_parser("mixing", help="correlation decay estimation")
    p.add_argument("--beta", required=True)
    p.add_argument("--set-e", required=True, help="a,b for the interval E")
    p.add_argument("--set-f", required=True, help="a,b for the interval F")
    p.add_argument("--lags", default="1:25")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--method", choices=["exact", "mc", "auto"], default="exact")
    _add_common(p)

    p = subs.add_parser("volume", help="target volume tables")
    p.add_argument("--shape", default="hyperboloid",
                   choices=["ball", "rectangle", "hyperboloid"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--rate")
    p.add_argument("--steps", type=int, default=100)
    _add_common(p)

    p = subs.add_parser("dimension", help="dimension formula calculators")
    p.add_argument("--method", default="ball",
                   choices=["ball", "rect", "onedim", "mult", "mtp", "markov",
                            "unbounded", "hat"])
    p.add_argument("--moduli", default=None, help="comma list, e.g. 2,3")
    p.add_argument("--lam", type=float)
    p.add_argument("--t-points", default=None, help="semicolon list of comma vectors")
    p.add_argument("--beta-modulus", type=float)
    p.add_argument("--deltas", default=None)
    p.add_argument("--u", default=None)
    p.add_argument("--v", default=None)
    _add_common(p)

    p = subs.add_parser("markov", help="build a Markov subsystem")
    p.add_argument("--beta", required=True)
    p.add_argument("--power", type=int, default=1)
    _add_common(p)

    p = subs.add_parser("support", help="support of the invariant measure")
    p.add_argument("--beta", required=True)
    p.add_argument("--tol", type=float)
    _add_common(p)

    p = subs.add_parser("measure", help="invariant measure of an interval")
    p.add_argument("--beta", required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    _add_common(p)
    return parser


_LIST_KEYS = {"moduli", "deltas", "u", "v", "center", "set_e", "set_f", "checkpoints"}


def _namespace_to_config(args: argparse.Namespace) -> ExperimentConfig:
    params: dict = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"cannot read config file: {exc}", field="config") from exc
        cfg = ExperimentConfig.from_dict(data)
        if cfg.command != args.command:
            raise ConfigInvalid(
                f"config file is for {cfg.command!r}, not {args.command!r}",
                field="command",
            )
        params.update(cfg.params)
    skip = {"command", "config", "out", "jobs", "manifest_only"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        if key in _LIST_KEYS and isinstance(value, str):
            params[key] = [v.strip() for v in value.split(",")]
        else:
            params[key] = value
    return ExperimentConfig(command=args.command, params=params)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _namespace_to_config(args)
        run(config, Path(args.out), jobs=args.jobs, manifest_only=args.manifest_only)
    except ConfigInvalid as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return 2
    except (PrecisionExhausted, Indeterminate) as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 4
    except TolUnreachable as exc:
        print(f"tolerance unreachable: {exc}", file=sys.stderr)
        return 5
    except AmbiguityBudgetExceeded as exc:
        print(f"ambiguity budget exceeded: {exc}", file=sys.stderr)
        return 5
    except (ValueError, SlopeTooSmall, BudgetTooLarge) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
