"""Command-line interface.

Subcommands: gen-data, run-example, spectral-study, verify, wigner-check.
Every flag may also be given in a config file (key = value per line, keys
matching the long flag names), whose values are held to the same choices;
explicit command-line flags win. Exit status:
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

# Every flag but --config, in parser order: name -> (default, choices, help).
# The parser and the config-file reader both take defaults and choices from here.
_FLAGS = {
    "n": ("200", None, "sample size (comma list for study grids)"),
    "p": ("50", None, "dimension (comma list for study grids)"),
    "s": ("25", None, "active coordinates (comma list for study grids)"),
    "pi": ("0.5", None, "prior inclusion probability"),
    "tau": ("1.0", None, "slab precision"),
    "sigma2": ("1.0", None, "noise variance"),
    "amplitude": ("1.0", None, "signal amplitude"),
    "scheme": ("seq", ("seq", "par"), "update scheme"),
    "init": ("diagls", ("zero", "diagls"), "initialization"),
    "max_iter": ("500", None, "iteration cap"),
    "tol": ("1e-8", None, "sup-norm convergence tolerance"),
    "reps": ("50", None, "replications per grid point"),
    "seed": ("0", None, "master seed"),
    "out": ("out", None, "output directory"),
    "panel": ("both", ("left", "right", "both"), "study panel"),
}

_COMMANDS = ("gen-data", "run-example", "spectral-study", "verify", "wigner-check")
_COMMAND_OVERRIDES = {"wigner-check": dict(n="1000", p="200", reps="20")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscavi",
        description="Spike-and-slab CAVI experiments and stability studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        cp = sub.add_parser(command)
        cp.add_argument("--config", help="config file (key = value per line)")
        for key, (_, choices, help_text) in _FLAGS.items():
            cp.add_argument("--" + key.replace("_", "-"), dest=key, choices=choices, help=help_text)
    return parser


def _parse_int_list(text: str, name: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"{name} expects integers, got {text!r}") from exc


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
    settings = {key: default for key, (default, _, _) in _FLAGS.items()}
    settings.update(_COMMAND_OVERRIDES.get(command, {}))
    explicit = set()
    if args.config:
        for key, value in harness.parse_config_file(args.config).items():
            if key not in _FLAGS:
                raise ConfigError(f"unknown config key {key!r}")
            settings[key] = value
            explicit.add(key)
    for key in _FLAGS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
            explicit.add(key)
    for key, (_, choices, _) in _FLAGS.items():
        if choices is not None and settings[key] not in choices:
            raise ConfigError(
                f"{key} must be one of {', '.join(choices)}, got {settings[key]!r}"
            )

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
