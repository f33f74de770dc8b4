"""Command-line interface: one subcommand per sweep mode, plus plots.

Subcommands: phase-diagram, qgt, scaling, collapse, k0, plots.  Each
subcommand but ``plots`` builds a SweepConfig whose mode is the subcommand and
hands it to ``sweep.run``.  Options may also come from a JSON config file
(--config); explicit command-line flags take precedence over file entries,
which take precedence over built-in defaults.  A file whose ``mode`` names
another subcommand is rejected, and so is a file holding anything but an
object of SweepConfig fields (an old ``threads`` entry is ignored) or a value
of the wrong JSON type for its field (numbers must be finite).
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputError, SchemaError
from .plots import emit_plots
from .sweep import SweepConfig, _is_number, read_json, run

# Built-in defaults that differ from SweepConfig's own.
MODE_DEFAULTS = {"qgt": dict(eps_range=(0.95, 1.06, 23))}


# The JSON value each SweepConfig field type takes in a config file.
FILE_VALUES = {
    "float": ("a finite number", _is_number),
    "int": ("a finite number", _is_number),
    "bool": ("true or false", lambda value: isinstance(value, bool)),
    "str": ("a string", lambda value: isinstance(value, str)),
    "tuple": ("a list of finite numbers",
              lambda value: isinstance(value, list) and all(map(_is_number, value))),
}


def parse_range(text: str) -> tuple:
    """Parse 'min:max:steps' into (float, float, int)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"invalid range {text!r}")
    return lo, hi, steps


def parse_pair(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if hi <= lo:
        raise argparse.ArgumentTypeError(f"invalid interval {text!r}")
    return lo, hi


def parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="accepted for old command lines; has no effect")
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--out", dest="out_dir", type=str, default=None,
                        help="output directory")
    common.add_argument("--force", action="store_true", default=None,
                        help="rerun even if a matching manifest exists")

    parser = argparse.ArgumentParser(
        prog="kerrqgt",
        description="Geometric-tensor sweeps for the driven Kerr resonator.")
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("phase-diagram", parents=[common],
                       help="order-parameter grid over (eps, phi)")
    p.add_argument("--L", dest="size", type=float, default=None)
    p.add_argument("--eps", dest="eps_range", type=parse_range, default=None,
                   metavar="MIN:MAX:STEPS")
    p.add_argument("--phi", dest="phi_range", type=parse_range, default=None,
                   metavar="MIN:MAX:STEPS")
    p.add_argument("--ncut", dest="n_cut", type=int, default=None)

    p = sub.add_parser("qgt", parents=[common], help="tensor components on a grid")
    p.add_argument("--L-list", dest="sizes", type=parse_int_list, default=None)
    p.add_argument("--eps", dest="eps_range", type=parse_range, default=None,
                   metavar="MIN:MAX:STEPS")
    p.add_argument("--phi", dest="phi", type=float, default=None)
    p.add_argument("--method", choices=["spectral", "fd", "both"], default=None)
    p.add_argument("--ncut", dest="n_cut", type=int, default=None,
                   help="Fock cutoff cap; each size's row runs at the smallest rung of "
                        "the cutoff ladder that the tail gate certifies (its ncut column)")

    p = sub.add_parser("scaling", parents=[common], help="finite-size-scaling report")
    p.add_argument("--L-list", dest="sizes", type=parse_int_list, default=None)
    p.add_argument("--ncut", dest="n_cut", type=int, default=None)
    p.add_argument("--bracket", dest="peak_bracket", type=parse_pair, default=None,
                   metavar="LO:HI")
    p.add_argument("--eps-window", dest="collapse_window", type=parse_pair,
                   default=None, metavar="LO:HI")
    p.add_argument("--eps-step", dest="collapse_step", type=float, default=None)

    p = sub.add_parser("k0", parents=[common], help="cutoff-scaling study at K=0")
    p.add_argument("--ncut-list", dest="ncut_list", type=parse_int_list, default=None)
    p.add_argument("--L-list", dest="sizes", type=parse_int_list, default=None)
    p.add_argument("--ncut", dest="n_cut", type=int, default=None)
    p.add_argument("--bracket", dest="peak_bracket", type=parse_pair, default=None,
                   metavar="LO:HI",
                   help="peak bracket; a scaling report in --out made with the "
                        "same one is reused")

    p = sub.add_parser("collapse", parents=[common],
                       help="collapse optimization on a stored family")
    p.add_argument("--input", dest="input_path", type=str, default=None,
                   help="scaling_report.json to read (default: <out>/scaling_report.json)")
    p.add_argument("--observable", choices=["g_ee", "f_ep"], default=None)
    p.add_argument("--delta-jk", dest="delta_jk", type=float, default=None)
    p.add_argument("--nu-range", dest="nu_range", type=parse_pair, default=None,
                   metavar="LO:HI")
    p.add_argument("--ec-range", dest="ec_range", type=parse_pair, default=None,
                   metavar="LO:HI")

    sub.add_parser("plots", parents=[common], help="emit plot scripts for existing outputs")
    return parser


def _flag_fields(mode: str) -> dict[str, str]:
    """Flag name (without dashes) -> config field, for one subcommand."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag.lstrip("-"): action.dest for action in sub.choices[mode]._actions
            for flag in action.option_strings}


def _file_settings(path: str, mode: str) -> dict:
    """Entries of a JSON config file; every key must be a SweepConfig field."""
    loaded = read_json(path, "config file")
    if loaded.get("mode", mode) != mode:
        raise SchemaError(f"config file {path} is for mode "
                          f"{loaded['mode']!r}, not for {mode!r}")
    loaded.pop("threads", None)  # the no-op thread count of old files

    fields = set(SweepConfig.__dataclass_fields__)
    unknown = [key for key in loaded if key not in fields]
    if unknown:
        flags = _flag_fields(mode)
        named = [f"{key!r} (the --{key} flag; its field is {flags[key]!r})"
                 if flags.get(key) in fields else repr(key) for key in unknown]
        raise SchemaError(f"config file {path} has unknown keys: {', '.join(named)}")
    for key, value in loaded.items():
        kind, _, optional = SweepConfig.__dataclass_fields__[key].type.partition(" | ")
        what, valid = FILE_VALUES[kind]
        if not (valid(value) or (optional and value is None)):
            raise SchemaError(f"config file {path}: {key!r} must be {what}, got {value!r}")
    return {key: tuple(value) if isinstance(value, list) else value
            for key, value in loaded.items()}


def assemble_config(args: argparse.Namespace) -> SweepConfig:
    settings = dict(mode=args.mode, out_dir="runs")
    settings.update(MODE_DEFAULTS.get(args.mode, {}))
    if args.config:
        settings.update(_file_settings(args.config, args.mode))
    settings.update({k: v for k, v in vars(args).items()
                     if k not in ("config", "threads") and v is not None})
    return SweepConfig(**settings)


def main(argv=None) -> int:
    """Run one subcommand; an InputError exits with status 2 and one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        config = assemble_config(args)
        if config.mode == "plots":
            written = emit_plots(config.out_dir)
            if not written:
                print(f"no plottable outputs found in {config.out_dir}")
        else:
            written = run(config)
            if not written:
                print(f"{config.mode}: outputs in {config.out_dir} are current "
                      f"(manifest verified); use --force to rerun")
    except InputError as exc:
        print(f"kerrqgt {args.mode}: error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
