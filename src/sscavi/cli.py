"""Command-line interface.

Subcommands: gen-data, run-example, spectral-study, verify, wigner-check.
Each takes only the flags it reads (``_COMMANDS``); a flag it does not read
is a usage error, exit 2. Every flag may also be given in a config file (key =
value per line, keys matching the long flag names), whose keys are held to
the same per-command flags and whose values are held to the same choices;
explicit command-line flags win. A value that is given replaces one field of
:class:`harness.StudyConfig`; every value that is not takes that field's
default, except that wigner-check has its own n, p and replication count.
An s given to the left spectral-study panel (whose points set s = p) is
invalid configuration rather than dropped.
BLAS runs on one thread: the module sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before numpy loads,
overriding the caller's values, so the output bytes do not depend on them
(at p = 400 the radii moved by up to 8.5e-16 relative between one thread and
two). A caller who wants more BLAS threads imports :mod:`sscavi.harness` and
sets its own.
Exit status: 0 on success; 1 when a verification check fails, on an I/O
failure, on a numerical failure (an eigensolver that does not converge, or
an overflow in the stability analysis), or when an array does not fit in
memory ("out of memory: ..."); 2 on invalid configuration, which includes a
config file that is not UTF-8 or that gives one key twice.
"""

from __future__ import annotations

import os

# before numpy loads, and outright: a caller's thread count must not change a byte
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

from numpy.linalg import LinAlgError  # noqa: E402

from . import engines, harness  # noqa: E402
from .harness import ConfigError, StudyConfig  # noqa: E402


def _ints(text: str):
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


_SCHEMES = {"seq": engines.Scheme(engines.SEQUENTIAL), "par": engines.Scheme(engines.PARALLEL)}
# What a value that fails to parse was expected to be, by parser.
_EXPECTS = {_ints: "integers", int: "an integer", float: "a real number"}

# Every flag but --config: name -> (StudyConfig field, parser, choices, help).
# "hyper.*" and "run.*" name fields of the nested Hyperparams and RunConfig. The
# parser and the config-file reader both take choices from here.
_FLAGS = {
    "n": ("n", _ints, None, "sample size (comma list for study grids)"),
    "p": ("p", _ints, None, "dimension (comma list for study grids)"),
    "s": ("s", _ints, None, "active coordinates (comma list for study grids)"),
    "pi": ("hyper.pi", float, None, "prior inclusion probability"),
    "tau": ("hyper.tau", float, None, "slab precision"),
    "sigma2": ("hyper.sigma2", float, None, "noise variance"),
    "amplitude": ("amplitude", float, None, "signal amplitude"),
    "scheme": ("scheme", _SCHEMES.get, tuple(_SCHEMES), "update scheme"),
    "init": ("run.init", str, engines.INITS, "initialization"),
    "max_iter": ("run.max_iter", int, None, "iteration cap"),
    "tol": ("run.tol", float, None, "sup-norm convergence tolerance"),
    "reps": ("replications", int, None, "replications per grid point"),
    "seed": ("master_seed", int, None, "master seed"),
    "out": ("out_dir", str, None, "output directory"),
    "panel": ("panel", str, harness.PANELS, "study panel"),
}

# The flags each command reads, in parser order: the parser offers a command no
# other flag, and the config-file reader takes no other key.
_COMMANDS = {
    "gen-data": ("n", "p", "s", "sigma2", "amplitude", "seed", "out"),
    "run-example": ("n", "p", "s", "pi", "tau", "sigma2", "amplitude", "scheme", "init",
                    "max_iter", "tol", "seed", "out"),
    "spectral-study": ("n", "p", "s", "pi", "tau", "sigma2", "amplitude", "init", "max_iter",
                       "tol", "reps", "seed", "out", "panel"),
    "verify": ("seed", "out"),
    "wigner-check": ("n", "p", "tau", "reps", "seed", "out"),
}
_COMMAND_DEFAULTS = {"wigner-check": dict(n=(1000,), p=(200,), replications=20)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscavi",
        description="Spike-and-slab CAVI experiments and stability studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMANDS.items():
        # no abbreviations: --s would otherwise read as --seed where s is not taken
        cp = sub.add_parser(command, allow_abbrev=False)
        cp.add_argument("--config", help="config file (key = value per line)")
        for key in keys:
            _, _, choices, help_text = _FLAGS[key]
            cp.add_argument("--" + key.replace("_", "-"), dest=key, choices=choices, help=help_text)
    return parser


def _assemble(command: str, args: argparse.Namespace) -> StudyConfig:
    given = harness.parse_config_file(args.config) if args.config else {}
    keys = _COMMANDS[command]
    given.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    fields = dict(_COMMAND_DEFAULTS.get(command, {}))
    nested = {"hyper": {}, "run": {}}
    for key, text in given.items():
        if key not in keys:
            raise ConfigError(f"{command} takes no config key {key!r}")
        target, parse, choices, _ = _FLAGS[key]
        if choices is not None and text not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {text!r}")
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key} expects {_EXPECTS[parse]}, got {text!r}") from exc
        owner, _, name = target.rpartition(".")
        (nested[owner] if owner else fields)[name] = value
    base = StudyConfig(out_dir="out", mode=command.replace("-", "_"))
    try:
        hyper = replace(base.hyper, **nested["hyper"])
        run_cfg = replace(base.run, **nested["run"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grids = frozenset(key for key in ("n", "p", "s") if key in given)
    return replace(base, hyper=hyper, run=run_cfg, explicit_grids=grids, **fields)


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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
