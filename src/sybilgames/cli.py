"""Command-line driver for every experiment in the package.

Each subcommand writes one CSV artifact ('.' decimals, comma separator, a
'#'-prefixed comment line recording the full configuration) as UTF-8 bytes, to
the --out file or to stdout's byte stream, which carry the same bytes.  Only
``cake`` draws from the --seed flag; the other subcommands draw nothing and only
record the seed in that line.  Identical configurations produce byte-identical files.
Exit codes: 0 success, 1 usage, 2 invariant violation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .cake import PiecewiseMeasure, Transcript, measure_value, run_monte_carlo
from .commitment import (
    CommitmentInstance,
    cfmm_commitment_instance,
    cournot_commitment_instance,
    cournot_game,
    exponential_commitment_instance,
    scp_check,
    trivial_commitment_instance,
)
from .core import SybilCost, headcount_reward_game, reward_share_game, verify_sybilproof
from .equilibrium import _anarchy_ratio, grid_welfare_optimum, reward_game_pure_equilibrium
from .errors import ConfigurationError, DomainError, InvariantViolation, NumericError
from .rdm import TentFunction, dominant_strategy_prorata, max_sybilproof_reward, tent_equilibria
from .ring import DISTRIBUTIONS, opt_ring_search

ARTIFACT = f"sybilgames/{__version__}"
#: Monte Carlo runs rendered per body chunk of `cake`; bounds the text held at once and keeps a block in cache.
CAKE_BLOCK_RUNS = 2**11


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_rows(rows) -> list[bytes]:
    """A small table's rows as one newline-terminated bytes chunk, its whole CSV body."""
    return ["".join(",".join(_fmt(v) for v in row) + "\n" for row in rows).encode()]


def _emit_csv(
    out: Optional[str], subcommand: str, params: dict, header: Sequence[str], body: Iterable[bytes]
) -> None:
    """Write the '#' config line and the header, then stream the body to ``out`` or stdout.

    ``body`` yields bytes chunks of whole rows, each row ending in a newline; they
    are written as they come, so a long body (the cake transcript, rendered
    ``CAKE_BLOCK_RUNS`` runs at a time) is never held as one string.  The config
    line and the header are encoded as UTF-8 once.  On stdout, pending text is
    flushed and the bytes go to ``sys.stdout.buffer``; a stdout with no buffer
    (an ``io.StringIO`` under ``contextlib.redirect_stdout``) gets them decoded
    as text.  Opening ``out`` is the last thing that can fail: a handler does
    everything that can raise before it calls this, and its body only renders
    prepared rows or tails.
    """
    config = " ".join(
        [f"artifact={ARTIFACT}", f"subcommand={subcommand}"]
        + [f"{key}={_fmt(val)}" for key, val in sorted(params.items())]
    )
    head = f"# {config}\n{','.join(header)}\n".encode()
    if out is None and not hasattr(sys.stdout, "buffer"):
        sys.stdout.write(head.decode())
        sys.stdout.writelines(chunk.decode() for chunk in body)  # whole rows: no character is split
        return
    if out is None:
        sys.stdout.flush()
    with (open(out, "wb") if out is not None else contextlib.nullcontext(sys.stdout.buffer)) as fh:
        fh.write(head)
        fh.writelines(body)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed of cake's draws; other subcommands only record it")
    parser.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every :func:`main` call:
    callers must not mutate it.  A parse leaves it as it was, since every default is
    immutable or None and ``--foreign`` appends into a fresh list per namespace."""
    parser = _Parser(prog="sybilgames", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND", parser_class=_Parser)

    p = sub.add_parser("verify", help="brute-force identity-splitting check")
    _add_common(p)
    p.add_argument("--game", choices=["headcount", "prorata", "cournot"], default="headcount")
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--c", type=float, default=0.0, help="per-identity cost")
    p.add_argument("--beta", type=float, default=1.0, help="Cournot demand intercept net of cost")
    p.add_argument("--foreign", action="append", default=None, help="comma list, repeatable")
    p.add_argument("--max-identities", type=int, default=2)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--upper", type=float, default=None)

    p = sub.add_parser("rdm", help="reward-distribution welfare table")
    _add_common(p)
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=None, help="tent half-width (default K/100)")
    p.add_argument("--n-max", type=int, default=12)

    p = sub.add_parser("cake", help="cake-cutting Monte Carlo transcript")
    _add_common(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--measures", type=str, default=None, help="file: one measure per line, b0 d0 b1 ... bm")

    p = sub.add_parser("ring", help="bidding-ring share search")
    _add_common(p)
    p.add_argument("--dist", choices=sorted(DISTRIBUTIONS), default="uniform")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--theta-grid", type=int, default=21)
    p.add_argument("--samples", type=int, default=None, help="ignored: welfare is exact, nothing is sampled")

    p = sub.add_parser("commit", help="identity-commitment sweep")
    _add_common(p)
    p.add_argument("--instance", choices=["cournot", "cfmm", "exp", "trivial"], default="cournot")
    p.add_argument("--c", type=float, default=0.0, help="identity cost (pot scale for trivial)")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--c-prod", type=float, default=0.0)
    p.add_argument("--reserve-a", type=float, default=100.0)
    p.add_argument("--reserve-b", type=float, default=100.0)
    p.add_argument("--price", type=float, default=0.5)
    p.add_argument("--x-max", type=int, default=32)

    p = sub.add_parser("poa", help="price-of-anarchy sweep of the reward game")
    _add_common(p)
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--c", type=float, default=1.0, help="unit stake cost")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--grid-step", type=float, default=0.01)

    p = sub.add_parser("fig", help="figure datasets")
    _add_common(p)
    p.add_argument("--which", choices=["fig1", "fig2"], required=True)
    p.add_argument("--R", type=float, default=10.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--reserve-a", type=float, default=100.0)
    p.add_argument("--reserve-b", type=float, default=100.0)
    p.add_argument("--price", type=float, default=0.5)
    return parser


def _parse_profile(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise UsageError(f"bad foreign profile {text!r}") from exc


def _run_verify(args) -> None:
    cost = SybilCost.linear(args.c)
    if args.game == "headcount":
        game = headcount_reward_game(args.R)
        default_profiles = ["1,1,1"]
    elif args.game == "prorata":
        game = reward_share_game(args.R, 1.0, grid_step=0.5 if args.grid_step is None else args.grid_step)
        default_profiles = ["2.5,2.5"]
    else:
        game = cournot_game(args.beta, grid_step=0.05 if args.grid_step is None else args.grid_step)
        default_profiles = [f"{args.beta / 3.0}"]
    profiles = [_parse_profile(t) for t in (args.foreign or default_profiles)]
    rows = []
    for profile in profiles:
        verdict = verify_sybilproof(
            game, cost, args.max_identities, [profile], search_upper=args.upper
        )
        rows.append(
            (
                args.game,
                "|".join(repr(a) for a in profile),
                "proof" if verdict.proof else "counterexample",
                "" if verdict.proof else "|".join(repr(a) for a in verdict.mine.actions),
                0.0 if verdict.proof else verdict.gain,
            )
        )
    params = dict(
        game=args.game, R=args.R, c=args.c, beta=args.beta, max_identities=args.max_identities,
        grid_step=game.space.grid_step, upper=args.upper,
        profiles=";".join("|".join(repr(a) for a in p) for p in profiles), seed=args.seed,
    )
    _emit_csv(
        args.out, "verify", params, ["game", "foreign", "verdict", "mine", "gain"], _format_rows(rows)
    )


def _welfare_rows(args) -> tuple[float, list]:
    """Tent half-width and the (n, r_max, dsic welfare, tent welfare) rows of `rdm` and `fig1`."""
    eps = args.eps if args.eps is not None else args.K / 100.0
    curve = dominant_strategy_prorata(args.R, args.K)
    equilibria = tent_equilibria(TentFunction(args.R, args.K, eps), range(2, args.n_max + 1))
    # a lone player plays the tent's peak and keeps the whole curve value
    tent = [args.R] + [eq.welfare for eq in equilibria]
    rows = [(n, max_sybilproof_reward(n, args.R), curve.welfare(n), tent[n - 1]) for n in range(1, args.n_max + 1)]
    return eps, rows


def _run_rdm(args) -> None:
    eps, rows = _welfare_rows(args)
    params = dict(R=args.R, K=args.K, eps=eps, n_max=args.n_max, seed=args.seed)
    _emit_csv(
        args.out, "rdm", params, ["n", "r_max", "welfare_dsic", "welfare_tent"], _format_rows(rows)
    )


def _load_measures(path: str) -> list[PiecewiseMeasure]:
    try:  # main reports any other OSError as an output error
        with open(path) as fh:
            rows = [line.split() for line in fh]
    except OSError as exc:
        raise ConfigurationError(f"cannot read measures file {path}: {exc.strerror or exc}") from exc
    measures = [PiecewiseMeasure.from_flat([float(tok) for tok in row]) for row in rows if row and row[0][0] != "#"]
    if not measures:
        raise UsageError(f"no measures found in {path}")
    return measures


def _cake_body(tails: np.ndarray, transcript: Transcript) -> Iterator[bytes]:
    """The transcript rows as bytes, ``CAKE_BLOCK_RUNS`` runs per chunk.

    ``tails[i, k]`` is the ",identity,value,coin\\n" end of identity i's row when its code
    is k, as NUL-padded bytes: k is its slice index in a kept run and n in a burned one.
    Each block forms its own codes from the transcript.  A block is one (run, tail)
    record array, its run labels ASCII digits NUL-padded to the last label's width; its
    bytes less every NUL are the block's text, with no string per run or row.
    """
    runs, n = transcript.runs, transcript.n
    width = len(str(runs - 1))
    ends = np.zeros(tails.size, dtype=[("run", f"S{width}"), ("tail", tails.dtype)])
    ends["tail"] = tails.ravel()
    offsets = np.arange(n) * tails.shape[1]
    for start in range(0, runs, CAKE_BLOCK_RUNS):
        rows = slice(start, start + CAKE_BLOCK_RUNS)
        block = np.where(transcript.coins[rows, None], transcript.assignments[rows], n)
        block += offsets
        labels = np.arange(start, start + len(block))
        digits = np.zeros((len(block), width), dtype=np.uint8)
        for k in range(width):  # the 10^k digit; labels run upward, so those below 10^k (NUL there) lead the block
            labels, digit = np.divmod(labels, 10)
            lead = max(0, 10**k - start) if k else 0
            digits[lead:, width - 1 - k] = digit[lead:] + ord("0")
        records = ends.take(block)  # fancy indexing copies records 5x slower
        records["run"] = digits.view(f"S{width}")
        yield records.tobytes().translate(None, b"\0")


def _run_cake(args) -> None:
    if args.measures is not None:
        declared = _load_measures(args.measures)
    else:
        declared = [PiecewiseMeasure.uniform() for _ in range(args.n)]
    n = len(declared)
    transcript = run_monte_carlo(declared, args.samples, args.seed)
    # tails[i, j] ends identity i's row when it holds slice j; column n is the
    # burned row, whose value is 0.0
    tails = np.array(
        [
            [f",{i},{_fmt(measure_value(declared[i], s))},1\n" for s in transcript.partition]
            + [f",{i},{_fmt(0.0)},0\n"]
            for i in range(n)
        ],
        dtype="S",
    )
    params = dict(n=n, samples=args.samples, seed=args.seed, measures=args.measures or "uniform")
    _emit_csv(args.out, "cake", params, ["run", "identity", "value", "coin"], _cake_body(tails, transcript))


def _run_ring(args) -> None:
    dist = DISTRIBUTIONS[args.dist]()
    if args.theta_grid < 1:  # np.linspace would reject a negative count in its own words
        raise DomainError("need at least one theta")
    thetas = np.linspace(0.0, 1.0, args.theta_grid)
    result = opt_ring_search(dist, args.n, thetas)
    rows = [
        (row.theta, row.truthful_ok, row.sybilproof_ok, row.welfare, row.baseline)
        for row in result.rows
    ]
    params = dict(
        dist=args.dist, n=args.n, theta_grid=args.theta_grid, seed=args.seed, best_theta=result.best_theta,
    )
    _emit_csv(
        args.out, "ring", params, ["theta", "truthful_ok", "sybilproof_ok", "welfare", "baseline"],
        _format_rows(rows),
    )


def _commit_instance(args) -> CommitmentInstance:
    if args.instance == "cournot":
        return cournot_commitment_instance(args.alpha, args.c_prod, identity_cost=args.c)
    if args.instance == "cfmm":
        return cfmm_commitment_instance(args.reserve_a, args.reserve_b, args.price, identity_cost=args.c)
    if args.instance == "exp":
        return exponential_commitment_instance()
    if not args.c > 0.0:
        raise UsageError("the trivial instance needs --c > 0")
    return trivial_commitment_instance(args.c)


def _payoff_rows(inst: CommitmentInstance, n_max: int) -> list:
    """The (n, eq_payoff, 2 payoff(n + 1)) rows of `fig2`, which are also `commit`'s first three columns."""
    return [(n, inst.oracle.payoff(n), 2.0 * inst.oracle.payoff(n + 1)) for n in range(1, n_max + 1)]


def _run_commit(args) -> None:
    inst = _commit_instance(args)
    verdict = scp_check(inst, max(args.n_max, 1) - 1, args.x_max)  # row n is foreign count n - 1
    rows = [
        (n, eq_payoff, commit2, f"counterexample(foreign={n - 1};x={verdict.xs[n - 1]})" if bad else "scp")
        for (n, eq_payoff, commit2), bad in zip(_payoff_rows(inst, args.n_max), verdict.gains > verdict.tol)
    ]
    params = dict(
        instance=args.instance, c=args.c, n_max=args.n_max, x_max=args.x_max, seed=args.seed,
        alpha=args.alpha, c_prod=args.c_prod,
        reserve_a=args.reserve_a, reserve_b=args.reserve_b, price=args.price,
    )
    _emit_csv(
        args.out, "commit", params, ["n", "eq_payoff", "commit2_payoff", "scp_verdict"], _format_rows(rows)
    )


def _run_poa(args) -> None:
    game = reward_share_game(args.R, args.c, grid_step=args.grid_step)
    rows = []
    for n in range(2, args.n_max + 1):
        eq = reward_game_pure_equilibrium(args.R, args.c, n)
        w_opt = grid_welfare_optimum(game, n)
        rows.append((n, eq.welfare, w_opt, _anarchy_ratio(w_opt, eq.welfare)))
    params = dict(R=args.R, c=args.c, n_max=args.n_max, grid_step=args.grid_step, seed=args.seed)
    _emit_csv(args.out, "poa", params, ["n", "eq_welfare", "w_opt", "poa"], _format_rows(rows))


def _run_fig(args) -> None:
    if args.which == "fig1":
        eps, rows = _welfare_rows(args)
        params = dict(which="fig1", R=args.R, K=args.K, eps=eps, n_max=args.n_max, seed=args.seed)
        _emit_csv(
            args.out, "fig", params, ["n", "rmax_welfare", "dsic_welfare", "tent_welfare"],
            _format_rows(rows),
        )
        return
    inst = cfmm_commitment_instance(args.reserve_a, args.reserve_b, args.price)
    rows = _payoff_rows(inst, args.n_max)
    params = dict(
        which="fig2", reserve_a=args.reserve_a, reserve_b=args.reserve_b, price=args.price,
        n_max=args.n_max, seed=args.seed,
    )
    _emit_csv(
        args.out, "fig", params, ["n", "eq_payoff", "sybil_commit_payoff"], _format_rows(rows)
    )


_HANDLERS = {
    "verify": _run_verify,
    "rdm": _run_rdm,
    "cake": _run_cake,
    "ring": _run_ring,
    "commit": _run_commit,
    "poa": _run_poa,
    "fig": _run_fig,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise UsageError("a subcommand is required")
        _HANDLERS[args.subcommand](args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ConfigurationError, ValueError) as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
