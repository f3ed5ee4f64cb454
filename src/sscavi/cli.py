"""Command-line interface.

Subcommands: gen-data, run-example, spectral-study, verify, wigner-check.
Every flag may also be given in a config file (key = value per line, keys
matching the long flag names); explicit command-line flags win. Exit status:
0 on success; 1 when a verification check fails, on an I/O failure, or on a
numerical failure (an eigensolver that does not converge, or an overflow in
the stability analysis); 2 on invalid configuration.
"""

from __future__ import annotations

import argparse
import sys

from numpy.linalg import LinAlgError

from . import engines, harness
from .harness import ConfigError, StudyConfig
from .model import Hyperparams

_DEFAULTS = {
    "gen-data": dict(),
    "run-example": dict(),
    "spectral-study": dict(),
    "verify": dict(),
    "wigner-check": dict(n="1000", p="200", reps="20"),
}

_COMMON = dict(
    n="200",
    p="50",
    s="25",
    pi="0.5",
    tau="1.0",
    sigma2="1.0",
    amplitude="1.0",
    scheme="seq",
    init="diagls",
    max_iter="500",
    tol="1e-8",
    seed="0",
    out="out",
    panel="both",
    reps="50",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscavi",
        description="Spike-and-slab CAVI experiments and stability studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _DEFAULTS:
        cp = sub.add_parser(command)
        cp.add_argument("--config", help="config file (key = value per line)")
        cp.add_argument("--n", help="sample size (comma list for study grids)")
        cp.add_argument("--p", help="dimension (comma list for study grids)")
        cp.add_argument("--s", help="active coordinates (comma list for study grids)")
        cp.add_argument("--pi", help="prior inclusion probability")
        cp.add_argument("--tau", help="slab precision")
        cp.add_argument("--sigma2", help="noise variance")
        cp.add_argument("--amplitude", help="signal amplitude")
        cp.add_argument("--scheme", choices=["seq", "par"], help="update scheme")
        cp.add_argument("--init", choices=["zero", "diagls"], help="initialization")
        cp.add_argument("--max-iter", dest="max_iter", help="iteration cap")
        cp.add_argument("--tol", help="sup-norm convergence tolerance")
        cp.add_argument("--reps", help="replications per grid point")
        cp.add_argument("--seed", help="master seed")
        cp.add_argument("--out", help="output directory")
        cp.add_argument("--panel", choices=["left", "right", "both"], help="study panel")
    return parser


def _parse_int_list(text: str, name: str):
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"{name} expects integers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{name} grid must be nonempty")
    return values


def _float(settings, key):
    try:
        return float(settings[key])
    except ValueError as exc:
        raise ConfigError(f"{key} expects a real number, got {settings[key]!r}") from exc


def _int(settings, key):
    try:
        return int(settings[key])
    except ValueError as exc:
        raise ConfigError(f"{key} expects an integer, got {settings[key]!r}") from exc


def _assemble(command: str, args: argparse.Namespace) -> StudyConfig:
    settings = dict(_COMMON)
    settings.update(_DEFAULTS[command])
    known = set(settings)
    explicit = set()
    if args.config:
        for key, value in harness.parse_config_file(args.config).items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            settings[key] = value
            explicit.add(key)
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
            explicit.add(key)

    try:
        hyper = Hyperparams(
            pi=_float(settings, "pi"),
            tau=_float(settings, "tau"),
            sigma2=_float(settings, "sigma2"),
        )
        run_cfg = engines.RunConfig(
            max_iter=_int(settings, "max_iter"),
            tol=_float(settings, "tol"),
            init=settings["init"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scheme = engines.Scheme(
        "sequential" if settings["scheme"] == "seq" else "parallel"
    )
    return StudyConfig(
        out_dir=settings["out"],
        mode=command.replace("-", "_"),
        n=_parse_int_list(settings["n"], "n"),
        p=_parse_int_list(settings["p"], "p"),
        s=_parse_int_list(settings["s"], "s"),
        amplitude=_float(settings, "amplitude"),
        replications=_int(settings, "reps"),
        hyper=hyper,
        run=run_cfg,
        scheme=scheme,
        master_seed=_int(settings, "seed"),
        panel=settings["panel"],
        explicit_grids=frozenset(k for k in ("n", "p", "s") if k in explicit),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _assemble(args.command, args)
        if args.command == "gen-data":
            paths = harness.cmd_gen_data(cfg)
            print("wrote " + ", ".join(paths))
        elif args.command == "run-example":
            trace = harness.cmd_run_example(cfg)
            print(f"status: {trace.status} after {trace.n_iter} iterations")
        elif args.command == "spectral-study":
            harness.cmd_spectral_study(cfg)
            print(f"wrote {cfg.out_dir}/rho.csv")
        elif args.command == "verify":
            return harness.cmd_verify(cfg)
        elif args.command == "wigner-check":
            harness.cmd_wigner_check(cfg)
            print(f"wrote {cfg.out_dir}/wigner.csv")
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 1
    except (LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
