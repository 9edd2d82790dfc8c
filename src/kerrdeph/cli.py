"""Command-line front end: kernel maps, capacity sweeps, channel application.

Subcommands write CSV (kernel-map, capacity) or JSON (apply, validate).
Numeric CSV fields use 17 significant digits and LF endings, so identical
flags produce byte-identical files.  Exit codes: 0 success, 1 validation
failure, 2 invalid flags or parameter domain, 3 dimension violation,
4 invalid input state.
"""

import argparse
import json
import sys

import numpy as np

from .algebra import ChannelParams
from .capacity import (EnergyConstraint, capacity_sweep, shannon_entropy,
                       von_neumann_entropy, write_capacity_csv)
from .channel import DensityMatrix, _apply, _coherent_input, _gram_spectrum
from .errors import (ConvergenceError, DimensionError, DomainError,
                     InvalidStateError, TruncationError)
from .kernel import kernel_map, write_kernel_map_csv
from .validate import run_validation

__all__ = ["main"]


def _parse_grid(text: str) -> list:
    """Grid spec: 'min:max:steps' or a comma-separated list or one number."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise DomainError(f"grid must be min:max:steps, got {text!r}")
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
            if steps < 1:
                raise DomainError(f"grid needs at least one step, got {steps}")
            return list(np.linspace(lo, hi, steps))
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad grid spec {text!r}: {exc}") from exc
    if not grid:
        raise DomainError(f"grid spec {text!r} holds no value")
    return grid


def _parse_offsets(text: str):
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"offsets must be three integers, got {text!r}") from exc
    if len(parts) != 3:
        raise DomainError(f"offsets must be n,m,l, got {text!r}")
    return tuple(parts)


def _load_state(spec: str, p: ChannelParams, dim):
    """Input state of 'coherent:<alpha>' (cut and renormalized as in
    coherent_input_output) or of a path to a JSON density matrix."""
    if spec.startswith("coherent:"):
        try:
            alpha = complex(spec[len("coherent:"):])
        except ValueError:
            raise InvalidStateError(f"cannot parse coherent amplitude in {spec!r}")
        return _coherent_input(alpha, p, dim)
    try:
        with open(spec, encoding="utf-8") as fh:
            payload = json.load(fh)
        d = int(payload["dim"])
        flat = payload["entries"]
        entries = np.array([complex(re, im) for re, im in flat]).reshape(d, d)
    except InvalidStateError:
        raise
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise InvalidStateError(f"cannot read state from {spec!r}: {exc}")
    return DensityMatrix(entries)


_ENTRIES = "@entries@"
_ENTRY = "      [\n        %r,\n        %r\n      ]"


def _report_text(payload: dict, entries: np.ndarray) -> str:
    """json.dumps(payload, indent=2), with the string _ENTRIES at
    payload["output"]["entries"] standing for the row-major [re, im] pairs
    of `entries`.

    The pairs are written from a template with repr, which is how json
    writes a finite float (a DensityMatrix holds finite entries only); the
    pure-Python indented encoder spent seconds on a d=1001 report.
    """
    head, tail = json.dumps(payload, indent=2).split(json.dumps(_ENTRIES))
    pairs = np.ascontiguousarray(entries, dtype=complex).view(float).ravel()
    block = ",\n".join([_ENTRY] * (pairs.size // 2)) % tuple(pairs.tolist())
    return f"{head}[\n{block}\n    ]{tail}"


def cmd_kernel_map(args) -> int:
    if args.lambda_steps < 1 or args.gamma_steps < 1:
        raise DomainError("each grid needs at least one step")
    if args.n < 0 or args.m < 0:
        raise DomainError(f"Fock indices must be >= 0, got n={args.n}, m={args.m}")
    lambdas = np.linspace(args.lambda_min, args.lambda_max, args.lambda_steps)
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    rows = kernel_map(lambdas, gammas, args.n, args.m, omega=args.omega)
    write_kernel_map_csv(rows, args.out)
    return 0


def cmd_capacity(args) -> int:
    gammas = _parse_grid(args.gamma_grid)
    constraint = None if args.energy is None else EnergyConstraint(args.energy)
    rows = capacity_sweep(args.lam, gammas, [args.N], omega=args.omega,
                          constraint=constraint, convention=args.convention,
                          offsets=_parse_offsets(args.offsets))
    write_capacity_csv(rows, args.out)
    return 0


def cmd_apply(args) -> int:
    p = ChannelParams(gamma=args.gamma, lam=args.lam, omega=args.omega)
    # one kernel matrix serves the output (apply) and its complementary
    # spectrum (complementary_spectrum)
    out, K = _apply(_load_state(args.state, p, args.dim), p)
    diag = np.clip(np.real(np.diag(out.entries)), 0.0, None)
    spectrum = _gram_spectrum(diag / diag.sum(), K)
    del K  # freed before the entropy and the report, where memory peaks
    payload = {
        "params": {"gamma": args.gamma, "lambda": args.lam, "omega": args.omega},
        "output": {"dim": out.dim, "entries": _ENTRIES},
        "entropy_bits": von_neumann_entropy(out),
        "complementary_entropy_bits": shannon_entropy(spectrum),
    }
    text = _report_text(payload, out.entries)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_validate(args) -> int:
    report = run_validation(max_dim=args.max_dim, tol=args.tol)
    print(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kerrdeph",
        description="Deformed dephasing channel: kernel maps, capacities, "
        "channel application, and self-validation.",
        epilog="Physical defaults: omega=1, convention=proof.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    km = sub.add_parser("kernel-map", help="kernel magnitude over a (lambda, gamma) grid")
    km.add_argument("--lambda-min", type=float, default=-1.0)
    km.add_argument("--lambda-max", type=float, default=1.0)
    km.add_argument("--lambda-steps", type=int, default=21)
    km.add_argument("--gamma-min", type=float, default=0.0)
    km.add_argument("--gamma-max", type=float, default=4.0)
    km.add_argument("--gamma-steps", type=int, default=21)
    km.add_argument("--n", type=int, default=0)
    km.add_argument("--m", type=int, default=1)
    km.add_argument("--omega", type=float, default=1.0)
    km.add_argument("--out", required=True)
    km.set_defaults(run=cmd_kernel_map)

    cap = sub.add_parser("capacity", help="optimized coherent information over a gamma grid")
    cap.add_argument("--N", type=int, required=True,
                     help="number of menu levels minus one (input spans N+1 Fock states)")
    cap.add_argument("--lambda", dest="lam", type=float, nargs="+", required=True)
    cap.add_argument("--gamma-grid", required=True,
                     help="min:max:steps or a comma-separated list")
    cap.add_argument("--energy", type=float, default=None,
                     help="average-energy cap (default: unconstrained)")
    cap.add_argument("--convention", choices=("proof", "eq19"), default="proof")
    cap.add_argument("--offsets", default="0,1,1",
                     help="Fock menu offsets n,m,l (default consecutive from 0)")
    cap.add_argument("--omega", type=float, default=1.0)
    cap.add_argument("--out", required=True)
    cap.set_defaults(run=cmd_capacity)

    app = sub.add_parser("apply", help="apply the channel to a state")
    app.add_argument("--state", required=True,
                     help="JSON file {dim, entries:[[re,im],...]} or coherent:<alpha>")
    app.add_argument("--gamma", type=float, required=True)
    app.add_argument("--lambda", dest="lam", type=float, required=True)
    app.add_argument("--omega", type=float, default=1.0)
    app.add_argument("--dim", type=int, default=None,
                     help="truncation for coherent inputs (default: auto)")
    app.add_argument("--out", default=None, help="output JSON path (default stdout)")
    app.set_defaults(run=cmd_apply)

    val = sub.add_parser("validate", help="run the self-check suites")
    val.add_argument("--max-dim", type=int, default=6)
    val.add_argument("--tol", type=float, default=None,
                     help="override every suite tolerance (default: per-suite)")
    val.add_argument("--out", default=None, help="JSON report path")
    val.set_defaults(run=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (TruncationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
