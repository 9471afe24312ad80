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
import operator
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, counting, cylinders, markov, measures, orbits
from .errors import (
    AmbiguityBudgetExceeded,
    ConfigInvalid,
    PrecisionExhausted,
    TolUnreachable,
)
from .counting import correlation_series, exact_cost, monte_carlo_counting
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
from .markov import build_markov, entropy_and_dim, is_primitive, power_map
from .measures import ParryYrrapMeasure
from .orbits import (
    DiagonalTorusSystem,
    IntegerMatrixSystem,
    as_fraction,
    beta_float,
    eigenvalue_moduli,
    orbit_enclosures,
    scalar,
)
from .targets import (
    AccumulationSet,
    RateFunction,
    Shape,
    TargetSpec,
    hyperboloid_volume,
    lebesgue_volume,
)

TOLERANCES = {
    "measure_truncation_tail": measures.TRUNCATION_TOL,
    "eigenvalue_moduli": orbits.EIGENVALUE_TOL,
    "perron_rayleigh": markov.PERRON_TOL,
    "support_threshold": measures.SUPPORT_TOL,
    "support_merge_gap": measures.SUPPORT_MERGE_GAP,
    "ambiguity_budget": counting.AMBIGUITY_BUDGET,
}


def _compact_json(obj) -> str:
    """The one JSON form of configs, data files and manifests: sorted keys,
    no whitespace, one line; a value JSON lacks is written as its str."""
    return json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))


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
        if not isinstance(data, dict) or "command" not in data:
            raise ConfigInvalid("config missing 'command'", field="command")
        if not isinstance(data.get("params", {}), dict):
            raise ConfigInvalid("config 'params' must be an object", field="params")
        return cls(command=data["command"], params=dict(data.get("params", {})))

    def canonical_json(self) -> str:
        return _compact_json(self.to_dict())

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


REQUIRED = object()  # table default of a parameter that must be given


class Command(NamedTuple):
    help: str
    handler: Callable
    # name -> (parser, default); the default is a typed value, REQUIRED, or
    # a function of the parameters parsed before it that returns either
    params: dict


def parse_system(text: str):
    kind, _, rest = text.partition(":")
    if kind == "diag":
        betas = [_scalar(v) for v in rest.split(",") if v.strip()]
        if any(DiagonalTorusSystem.modulus_of(b) <= 1 for b in betas):
            return DiagonalTorusSystem.with_degenerate(betas)
        return DiagonalTorusSystem(betas)
    if kind == "matrix":
        rows = tuple(
            tuple(int(v) for v in row.split(",")) for row in rest.split(";") if row
        )
        return IntegerMatrixSystem(rows)
    raise ConfigInvalid(f"unknown system spec {text!r}", field="system")


def parse_rate(text: str) -> RateFunction:
    kind, _, rest = text.partition(":")
    if kind == "exp":
        return RateFunction.exponential(_finite(rest))
    if kind == "pow":
        c, kappa = (_finite(v) for v in rest.split(","))
        return RateFunction.power(c, kappa)
    if kind == "superexp":
        return RateFunction.superexponential()
    if kind == "table":
        parts = rest.split(":")
        vals = [_finite(v) for v in parts[0].split(",")]
        extend = parts[1] if len(parts) > 1 else "none"
        return RateFunction.table(vals, extend=extend)
    raise ConfigInvalid(f"unknown rate spec {text!r}", field="rate")


def parse_point(value) -> tuple:
    """A comma list or JSON array of coordinates, each read exactly ("1/3", "0.1")."""
    try:
        return tuple(as_fraction(v) for v in _items(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"bad point {value!r}") from exc


def parse_t_points(text: str) -> AccumulationSet:
    pts = []
    for chunk in text.split(";"):
        pts.append(tuple(math.inf if v.strip() in ("inf", "+inf") else _finite(v)
                         for v in chunk.split(",")))
    return AccumulationSet(tuple(pts))


def _items(value):
    return [v.strip() for v in value.split(",")] if isinstance(value, str) else value


def _each(parse):
    """A parser of comma lists (flags) and JSON arrays, item by item."""
    return lambda value: tuple(parse(v) for v in _items(value))


def _finite(value) -> float:
    """A float that is neither nan nor infinite (nor overflows to one)."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _int(value) -> int:
    return int(value) if isinstance(value, str) else operator.index(value)


def _at_least(low, number=_int):
    def parse(value):
        x = number(value)
        if x < low:
            raise ValueError(f"must be >= {low}")
        return x
    return parse


def _choice(*options):
    def parse(value):
        if value not in options:
            raise ValueError(f"choose from {', '.join(options)}")
        return value
    return parse


def _unit_interval(value) -> tuple:
    """An interval [a, b] inside [0, 1]: "a,b" or a JSON pair."""
    a, b = _each(_finite)(value)
    if not 0 <= a <= b <= 1:
        raise ValueError(f"need 0 <= a <= b <= 1, not [{a}, {b}]")
    return a, b


def _lags(value) -> tuple:
    """A range "lo:hi", a single lag "n", or a JSON array of lags, each >= 0."""
    if not isinstance(value, str):
        return _each(_at_least(0))(value)
    lo, _, hi = value.partition(":")
    lags = tuple(range(_at_least(0)(lo), int(hi or lo) + 1))
    if not lags:
        raise ValueError("empty range")
    return lags


def _scalar(value):
    """A beta read by :func:`orbits.scalar`, refused where its float overflows."""
    try:
        beta = scalar(value)
        beta_float(beta)
    except (ValueError, OverflowError) as exc:
        raise ConfigInvalid(str(exc)) from exc
    return beta


def _modulus(value) -> float:
    return abs(beta_float(_scalar(value)))


def parse_params(config: ExperimentConfig) -> dict:
    """The config's parameters, typed and defaulted by its command's table.

    A missing or refused value raises ConfigInvalid naming its flag.
    Parameters the command does not declare are ignored.
    """
    if config.command not in COMMANDS:
        raise ConfigInvalid(f"unknown command {config.command!r}", field="command")
    out: dict = {}
    for name, (parse, default) in COMMANDS[config.command].params.items():
        flag = "--" + name.replace("_", "-")
        value = config.params.get(name)
        if value is None:
            out[name] = default(out) if callable(default) else default
            if out[name] is REQUIRED:
                raise ConfigInvalid(f"{config.command} needs {flag}", field=name)
            continue
        try:
            out[name] = parse(value)
        except (ValueError, TypeError, AttributeError, ArithmeticError) as exc:
            raise ConfigInvalid(f"bad {flag} {value!r}: {exc}", field=name) from exc
    return out


def _diagnostics(command: str, p: dict) -> list[str]:
    """Module hypotheses the parsed parameters violate.

    "error:" entries make run() fail fast; "note:" entries are advisory.
    """
    out: list[str] = []
    system = p.get("system")
    if isinstance(system, DiagonalTorusSystem) and system.degenerate:
        out.append(
            "error: counting requires every |beta_i| > 1; coordinates with "
            "|beta| <= 1 must first go through the degenerate reduction"
        )
    if p.get("measure") == "parry" and not isinstance(system, DiagonalTorusSystem):
        out.append("error: --measure parry needs a diagonal system")
    if command == "count" and isinstance(system, IntegerMatrixSystem):
        try:
            mods = eigenvalue_moduli(system)
        except ArithmeticError as exc:
            return out + [f"error: eigenvalue moduli not certified ({exc})"]
        if min(mods) <= 1:
            out.append(
                "error: counting experiments require all eigenvalue moduli > 1 "
                f"(got {mods})"
            )
    for name in ("x", "center"):
        if name in p and len(p[name]) != system.d:
            out.append(f"error: --{name} has {len(p[name])} coordinates, "
                       f"the system has d = {system.d}")
    if command == "markov" and (modulus := abs(beta_float(p["beta"]))) > 1:
        # power_map builds up to (floor|beta| + 1)^power pieces: compare in logs
        if p["power"] > math.log(cylinders.MAX_EXPLICIT) / math.log(math.floor(modulus) + 1):
            out.append(f"error: --power {p['power']} gives up to (floor|beta| + 1)^power "
                       f"pieces, past the {cylinders.MAX_EXPLICIT} a Markov build can take")
        elif modulus ** p["power"] <= 8:
            out.append(
                f"note: slope modulus {modulus ** p['power']:.4g} <= 8; the Markov "
                "construction requires modulus > 8 (raise --power)"
            )
    if command == "mixing" and abs(beta_float(p["beta"])) > 1:
        lag, cost = exact_cost(p["beta"], p["set_e"], p["lags"], p["method"], p["samples"])
        if cost > cylinders.MAX_EXPLICIT:
            out.append(f"error: the exact method to lag {lag} may read {cost:.4g} cell "
                       f"values, past the {cylinders.MAX_EXPLICIT} it can take "
                       "(lower --lags or use --method mc)")
    if command == "dimension" and p["method"] == "rect" and not p["t_points"].bounded:
        out.append(
            "note: accumulation set has infinite coordinates; "
            "use --method unbounded for two-sided bounds"
        )
    if (command == "count" and p["shape"] is Shape.HYPERBOLOID
            and p["rate"].psi(1) >= 2.0 ** -system.d):
        out.append(
            "note: psi(1) >= 2^-d, so the closed-form hyperboloid volume "
            "caps at 1 for early n"
        )
    return out


def validate(config: ExperimentConfig) -> list[str]:
    """Diagnostics (never raises): the parse's refusal, or each violated
    module hypothesis named."""
    try:
        params = parse_params(config)
    except ConfigInvalid as exc:
        return [f"error: {exc}"]
    return _diagnostics(config.command, params)


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
    path.write_text(_compact_json(payload) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(config: ExperimentConfig, out_dir: Path, jobs: int = 1,
        manifest_only: bool = False) -> RunManifest:
    """Execute a config; outputs land in out_dir next to the manifest."""
    if jobs < 1:
        raise ConfigInvalid(f"bad --jobs {jobs}: need at least 1", field="jobs")
    params = parse_params(config)
    diagnostics = _diagnostics(config.command, params)
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
        for path in COMMANDS[config.command].handler(params, out_dir, jobs):
            outputs[path.name] = _digest(path)
    finished = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest = RunManifest(
        config_hash=config.config_hash,
        seed=params.get("seed"),
        tool_version=__version__,
        started_at=started,
        finished_at=finished,
        wall_time_seconds=round(time.monotonic() - clock, 3),
        tolerances=dict(TOLERANCES),
        outputs=outputs,
    )
    _write_json(out_dir / f"{config.command}_manifest.json", manifest.to_dict())
    return manifest


def _cmd_orbit(p: dict, out_dir: Path, jobs: int):
    steps, stride = p["steps"], p["stride"]
    rows = [
        (n, i, *iv.outward_floats())
        for n, point in orbit_enclosures(p["system"], p["x"], steps, p["precision_bits"])
        if n % stride == 0 or n == steps
        for i, iv in enumerate(point)
    ]
    path = out_dir / "orbit.csv"
    _write_csv(path, ["n", "coord_index", "lo", "hi"], rows)
    return [path]


def _cmd_count(p: dict, out_dir: Path, jobs: int):
    system, shape = p["system"], p["shape"]
    rates = p["rates"] if shape is Shape.RECTANGLE else (p["rate"],)
    summary = monte_carlo_counting(
        system, TargetSpec(shape, p["center"], rates), p["samples"], p["steps"], p["seed"],
        checkpoints=p["checkpoints"], epsilon=p["epsilon"], band_tol=p["band_tol"],
        start="invariant" if p["measure"] == "parry" else "lebesgue", jobs=jobs)
    rows = [(res.sample_id, row.n, row.r_lo, row.r_hi, row.phi, row.e)
            for res in summary.results for row in res.checkpoints]
    path = out_dir / "count.csv"
    _write_csv(path, ["sample_id", "N", "R_lo", "R_hi", "Phi", "e"], rows)
    summary_path = out_dir / "count_summary.json"
    _write_json(summary_path, {
        "fraction_in_band": summary.fraction_in_band,
        "band_tol": summary.band_tol,
        "max_abs_e": summary.max_abs_e,
        "phi_final": summary.phi_final,
        "samples": p["samples"],
        "seed": p["seed"],
    })
    return [path, summary_path]


def _cmd_mixing(p: dict, out_dir: Path, jobs: int):
    series = correlation_series(
        p["beta"], p["set_e"], p["set_f"], p["lags"],
        num_samples=p["samples"], seed=p["seed"], method=p["method"],
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
        "method": p["method"],
    })
    return [path, fit_path]


def _cmd_volume(p: dict, out_dir: Path, jobs: int):
    d, shape, delta = p["d"], p["shape"], p["delta"]
    path = out_dir / "volume.csv"
    if delta is not None:
        if shape is Shape.HYPERBOLOID:
            vol = hyperboloid_volume(d, delta)
        else:
            vol = min(1.0, 2.0 * delta) ** d
        _write_csv(path, ["n", "volume"], [(0, vol)])
        return [path]
    target = TargetSpec(shape, (0.0,) * d, (p["rate"],) * (d if shape is Shape.RECTANGLE else 1))
    ns = np.arange(1, p["steps"] + 1)
    vols = lebesgue_volume(target, ns)
    _write_csv(path, ["n", "volume"], [(int(n), float(v)) for n, v in zip(ns, vols)])
    return [path]


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


# dimension method -> (the parameters it needs, its JSON report)
_METHODS = {
    "ball": (("moduli", "lam"), lambda p: _report_dict(dim_ball(p["moduli"], p["lam"]))),
    "rect": (("moduli", "t_points"),
             lambda p: _report_dict(dim_rect(p["moduli"], p["t_points"]))),
    "onedim": (("beta_modulus", "lam"), lambda p: {
        "value": dim_onedim(p["beta_modulus"], p["lam"]), "method": "onedim"}),
    "mult": (("moduli", "lam"), lambda p: {
        "value": dim_mult(p["moduli"], p["lam"]), "method": "mult"}),
    "mtp": (("deltas", "u", "v"),
            lambda p: _report_dict(mtp_dimension(MtpInput(p["deltas"], p["u"], p["v"])))),
    "markov": (("beta_modulus", "lam"), lambda p: dict(
        zip(("value", "dim_lb"), markov_bounds(p["beta_modulus"], p["lam"])),
        method="markov_lb")),
    "unbounded": (("moduli", "t_points"), lambda p: dict(
        zip(("lower", "upper"), unbounded_bounds(p["moduli"], p["t_points"])),
        method="unbounded_bounds")),
    "hat": (("moduli", "t_points", "deltas"), lambda p: dict(
        _report_dict(conjectured_dim_hat(p["moduli"], p["t_points"], p["deltas"])),
        conjectural=True)),
}


def _method_needs(name: str):
    return lambda p: REQUIRED if name in _METHODS[p["method"]][0] else None


def _cmd_dimension(p: dict, out_dir: Path, jobs: int):
    path = out_dir / "dimension.json"
    _write_json(path, _METHODS[p["method"]][1](p))
    return [path]


def _cmd_markov(p: dict, out_dir: Path, jobs: int):
    subsystem = build_markov(power_map(p["beta"], p["power"]))
    primitive, witness = is_primitive(subsystem.rows)
    h_top, dim_est = entropy_and_dim(subsystem.rows, subsystem.slope_modulus)
    path = out_dir / "markov.json"
    _write_json(path, {
        "pieces": [list(piece) for piece in subsystem.pieces],
        "matrix_sparse_rows": [list(range(lo, hi)) for lo, hi in subsystem.rows],
        "kappa": subsystem.kappa,
        "slope_modulus": subsystem.slope_modulus,
        "certificates": subsystem.certificates,
        "primitive": primitive,
        "primitive_witness_power": witness,
        "entropy_estimate": h_top,
        "dim_estimate": dim_est,
    })
    return [path]


def _cmd_support(p: dict, out_dir: Path, jobs: int):
    mu = ParryYrrapMeasure(p["beta"])
    sup = mu.support(tol=p["tol"])
    path = out_dir / "support.json"
    _write_json(path, {
        "beta": mu.beta,
        "intervals": [list(iv) for iv in sup.intervals],
        "tol": p["tol"],
    })
    return [path]


def _cmd_measure(p: dict, out_dir: Path, jobs: int):
    mu = ParryYrrapMeasure(p["beta"])
    value = mu.measure_interval(p["a"], p["b"])
    path = out_dir / "measure.json"
    _write_json(path, {
        "beta": mu.beta,
        "a": p["a"],
        "b": p["b"],
        "value": value,
        "tol": 2 * mu.tail_bound,
    })
    return [path]


# The one declaration of every command and parameter: the flags, --config
# files, validate and the handlers all read it.
COMMANDS = {
    "orbit": Command("emit an orbit enclosure trace", _cmd_orbit, {
        "system": (parse_system, REQUIRED),
        "x": (parse_point, REQUIRED),
        "steps": (_at_least(0), REQUIRED),
        "precision_bits": (_at_least(1), None),
        "stride": (_at_least(1), 1),
    }),
    "count": Command("hit-counting experiment", _cmd_count, {
        "system": (parse_system, REQUIRED),
        "shape": (Shape, Shape.BALL),
        "center": (parse_point, lambda p: (0,) * p["system"].d),
        "rate": (parse_rate, lambda p: None if p["shape"] is Shape.RECTANGLE else REQUIRED),
        "rates": (_each(parse_rate), lambda p: REQUIRED if p["shape"] is Shape.RECTANGLE else None),
        "samples": (_at_least(1), 1),
        "steps": (_at_least(0), REQUIRED),
        "seed": (_at_least(0), REQUIRED),
        "checkpoints": (_each(_int), None),
        "epsilon": (_finite, 0.5),
        "band_tol": (_finite, 0.2),
        "measure": (_choice("lebesgue", "parry"), "lebesgue"),
    }),
    "mixing": Command("correlation decay estimation", _cmd_mixing, {
        "beta": (_scalar, REQUIRED),
        "set_e": (_unit_interval, REQUIRED),
        "set_f": (_unit_interval, REQUIRED),
        "lags": (_lags, tuple(range(1, 26))),
        "method": (_choice("exact", "mc", "auto"), "exact"),
        "samples": (_at_least(1), lambda p: REQUIRED if p["method"] == "mc" else None),
        "seed": (_at_least(0), REQUIRED),
    }),
    "volume": Command("target volume tables", _cmd_volume, {
        "shape": (Shape, Shape.HYPERBOLOID),
        "d": (_at_least(1), REQUIRED),
        "delta": (_at_least(0, _finite), None),
        "rate": (parse_rate, lambda p: REQUIRED if p["delta"] is None else None),
        "steps": (_at_least(0), 100),
    }),
    "dimension": Command("dimension formula calculators", _cmd_dimension, {
        "method": (_choice(*_METHODS), "ball"),
        "moduli": (_each(_modulus), _method_needs("moduli")),
        "lam": (_finite, _method_needs("lam")),
        "t_points": (parse_t_points, _method_needs("t_points")),
        "beta_modulus": (_modulus, _method_needs("beta_modulus")),
        "deltas": (_each(_finite), _method_needs("deltas")),
        "u": (_each(_finite), _method_needs("u")),
        "v": (_each(_finite), _method_needs("v")),
    }),
    "markov": Command("build a Markov subsystem", _cmd_markov, {
        "beta": (_scalar, REQUIRED),
        "power": (_at_least(1), 1),
    }),
    "support": Command("support of the invariant measure", _cmd_support, {
        "beta": (_scalar, REQUIRED),
        "tol": (_at_least(0, _finite), measures.SUPPORT_TOL),
    }),
    "measure": Command("invariant measure of an interval", _cmd_measure, {
        "beta": (_scalar, REQUIRED),
        "a": (_finite, 0.0),
        "b": (_finite, 1.0),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinktarget",
        description="shrinking-target experiments on torus dynamics",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        sub = subs.add_parser(command, help=spec.help)
        for name in spec.params:
            # a rate spec has commas of its own, so --rates takes one per word
            sub.add_argument("--" + name.replace("_", "-"),
                             nargs="+" if name == "rates" else None)
        sub.add_argument("--config", help="JSON config file; a flag that is given overrides it")
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument("--jobs", type=int, default=1)
        sub.add_argument("--manifest-only", action="store_true")
    return parser


def _namespace_to_config(args: argparse.Namespace) -> ExperimentConfig:
    params: dict = {}
    if args.config:
        try:
            # decimals stay strings, read exactly as the same flag would be
            data = json.loads(Path(args.config).read_text(), parse_float=str)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"cannot read config file: {exc}", field="config") from exc
        cfg = ExperimentConfig.from_dict(data)
        if cfg.command != args.command:
            raise ConfigInvalid(
                f"config file is for {cfg.command!r}, not {args.command!r}",
                field="command",
            )
        params.update(cfg.params)
    declared = COMMANDS[args.command].params
    params.update((k, v) for k, v in vars(args).items() if k in declared and v is not None)
    return ExperimentConfig(command=args.command, params=params)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _namespace_to_config(args)
        run(config, Path(args.out), jobs=args.jobs, manifest_only=args.manifest_only)
    except ConfigInvalid as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 4
    except TolUnreachable as exc:
        print(f"tolerance unreachable: {exc}", file=sys.stderr)
        return 5
    except AmbiguityBudgetExceeded as exc:
        print(f"ambiguity budget exceeded: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
