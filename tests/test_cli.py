import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sybilgames
from sybilgames import cli
from sybilgames.cake import PiecewiseMeasure, measure_value, run_monte_carlo
from sybilgames.commitment import (
    cfmm_commitment_instance,
    cournot_commitment_instance,
    exponential_commitment_instance,
    scp_check,
    trivial_commitment_instance,
)
from sybilgames.core import SybilCost, reward_share_game, verify_sybilproof
from sybilgames.errors import InvariantViolation, NumericError


def run_cli(argv):
    return cli.main(argv)


def read_rows(path):
    """Parse a CSV artifact back: (config line, header, rows of strings)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_rdm_reference_row(tmp_path):
    out = tmp_path / "rdm.csv"
    assert run_cli(["rdm", "--R", "10", "--n-max", "12", "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert header == ["n", "r_max", "welfare_dsic", "welfare_tent"]
    by_n = {int(r[0]): r for r in rows}
    assert float(by_n[3][1]) == pytest.approx(7.5)
    assert float(by_n[1][1]) == 10.0
    assert float(by_n[1][2]) == 10.0
    assert float(by_n[1][3]) == 10.0
    assert float(by_n[2][2]) == pytest.approx(20.0 / math.e)
    # eps = K/100, so n eps <= K on every row: the welfare is the kink's, exactly R
    assert [r[3] for r in rows] == ["10.0"] * 12
    # 2.0 ** (n - 1) overflowed past n = 1024; the cap now underflows to 0.0
    assert run_cli(["rdm", "--R", "10", "--n-max", "1100", "--out", str(out)]) == 0
    assert read_rows(out)[2][-1][:2] == ["1100", "0.0"]


def test_welfare_tables_run_one_batched_validation(tmp_path, monkeypatch):
    from sybilgames import rdm

    calls = []
    real = rdm.grid_best_response
    monkeypatch.setattr(rdm, "grid_best_response", lambda game, y: calls.append(len(y)) or real(game, y))
    assert run_cli(["rdm", "--R", "10", "--n-max", "12", "--out", str(tmp_path / "rdm.csv")]) == 0
    assert run_cli(["fig", "--which", "fig1", "--n-max", "8", "--out", str(tmp_path / "fig1.csv")]) == 0
    assert calls == [11, 7]


def test_fig1_reference_rows(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run_cli(["fig", "--which", "fig1", "--R", "10", "--n-max", "6", "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert header == ["n", "rmax_welfare", "dsic_welfare", "tent_welfare"]
    by_n = {int(r[0]): r for r in rows}
    assert all(float(v) == 10.0 for v in by_n[1][1:])
    assert float(by_n[4][1]) == pytest.approx(5.0)


def test_fig1_rows_are_the_rdm_table(tmp_path):
    argv = ["--R", "7.5", "--K", "2", "--n-max", "5"]
    assert run_cli(["rdm"] + argv + ["--out", str(tmp_path / "rdm.csv")]) == 0
    assert run_cli(["fig", "--which", "fig1"] + argv + ["--out", str(tmp_path / "fig1.csv")]) == 0
    assert read_rows(tmp_path / "fig1.csv")[2] == read_rows(tmp_path / "rdm.csv")[2]


def test_fig2_has_a_profitable_crossing(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run_cli(["fig", "--which", "fig2", "--n-max", "10", "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert header == ["n", "eq_payoff", "sybil_commit_payoff"]
    gains = [float(r[2]) - float(r[1]) for r in rows]
    assert gains[0] < 0.0 < max(gains)


def test_fig2_rows_are_the_first_commit_columns(tmp_path):
    argv = ["--reserve-a", "80", "--reserve-b", "100", "--price", "0.6", "--n-max", "7"]
    assert run_cli(["fig", "--which", "fig2"] + argv + ["--out", str(tmp_path / "fig2.csv")]) == 0
    assert run_cli(["commit", "--instance", "cfmm"] + argv + ["--out", str(tmp_path / "commit.csv")]) == 0
    commit_rows = read_rows(tmp_path / "commit.csv")[2]
    assert read_rows(tmp_path / "fig2.csv")[2] == [row[:3] for row in commit_rows]
    assert len(commit_rows) == 7


def test_cake_allocation_frequency(tmp_path):
    out = tmp_path / "cake.csv"
    assert run_cli(["cake", "--n", "4", "--samples", "20000", "--seed", "7", "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert header == ["run", "identity", "value", "coin"]
    coins = [int(r[3]) for r in rows if r[1] == "0"]
    assert sum(coins) / len(coins) == pytest.approx(0.5, abs=0.015)


def test_cake_measures_file(tmp_path):
    measures = tmp_path / "measures.txt"
    measures.write_text("0 1 1\n0 2 0.5 0 1\n")
    out = tmp_path / "cake.csv"
    assert run_cli(["cake", "--measures", str(measures), "--samples", "50", "--out", str(out)]) == 0
    _, _, rows = read_rows(out)
    assert len(rows) == 100  # 50 runs x 2 identities


# uniform, a two-piece and a three-piece density: kept rows carry distinct float values
THREE_MEASURES = "0 1 1\n0 2 0.5 0 1\n0 0.5 0.3 1.75 0.7 0.5 1\n"


def per_cell_body(declared, transcript):
    """The cake CSV body rendered one cell at a time, the reference for the block renderer."""
    rows = []
    for r in range(transcript.runs):
        kept = bool(transcript.coins[r])
        for i in range(transcript.n):
            slice_ = transcript.partition[transcript.assignments[r, i]]
            value = measure_value(declared[i], slice_) if kept else 0.0
            rows.append((r, i, value, int(kept)))
    assert len({row[2] for row in rows if row[3]}) > 1  # float values, not all exactly 1/n
    return "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)


def first_difference(got: str, expected: str):
    """(line number, got, expected) of the first line that differs, or None; cheap on long bodies."""
    pairs = itertools.zip_longest(got.split("\n"), expected.split("\n"))
    return next(((k, a, b) for k, (a, b) in enumerate(pairs) if a != b), None)


def record_cake_chunks(monkeypatch) -> list:
    """Patch ``cli._cake_body`` to keep every bytes chunk it yields; returns the list they go into."""
    chunks = []
    render = cli._cake_body

    def recording(tails, transcript):
        for chunk in render(tails, transcript):
            assert isinstance(chunk, bytes)
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(cli, "_cake_body", recording)
    return chunks


def test_cake_body_matches_per_cell_rendering(tmp_path):
    measures = tmp_path / "measures.txt"
    measures.write_text(THREE_MEASURES)
    out = tmp_path / "cake.csv"
    argv = ["cake", "--measures", str(measures), "--samples", "40", "--seed", "3", "--out", str(out)]
    assert run_cli(argv) == 0
    declared = cli._load_measures(str(measures))
    transcript = run_monte_carlo(declared, 40, 3)
    assert not transcript.coins.all()
    assert first_difference(out.read_text().split("\n", 2)[2], per_cell_body(declared, transcript)) is None


@pytest.mark.parametrize("measures", [None, THREE_MEASURES], ids=["uniform", "file"])
def test_cake_blocks_match_per_cell_rendering(tmp_path, monkeypatch, measures):
    # two full blocks and a partial third: run labels and tails line up across block edges
    runs = 2 * cli.CAKE_BLOCK_RUNS + 3
    chunks = record_cake_chunks(monkeypatch)
    out = tmp_path / "cake.csv"
    argv = ["cake", "--samples", str(runs), "--seed", "5", "--out", str(out)]
    if measures is None:
        argv += ["--n", "3"]
        declared = [PiecewiseMeasure.uniform() for _ in range(3)]
    else:
        path = tmp_path / "measures.txt"
        path.write_text(measures)
        argv += ["--measures", str(path)]
        declared = cli._load_measures(str(path))
    assert run_cli(argv) == 0
    body = out.read_text().split("\n", 2)[2]
    assert [chunk.count(b"\n") for chunk in chunks] == [3 * cli.CAKE_BLOCK_RUNS] * 2 + [3 * 3]
    assert first_difference(b"".join(chunks).decode("ascii"), body) is None
    assert first_difference(body, per_cell_body(declared, run_monte_carlo(declared, runs, 5))) is None


@pytest.mark.parametrize("runs", [1, 10, 11, 10**4 + 3])
def test_cake_label_widths_match_per_cell_rendering(tmp_path, monkeypatch, runs):
    # labels are NUL-padded to the width of the last one: 1 and 2 digits, and 9,999 -> 10,000 inside a block
    chunks = record_cake_chunks(monkeypatch)
    measures = tmp_path / "measures.txt"
    measures.write_text(THREE_MEASURES)
    out = tmp_path / "cake.csv"
    assert run_cli(["cake", "--measures", str(measures), "--samples", str(runs), "--seed", "3", "--out", str(out)]) == 0
    body = out.read_text().split("\n", 2)[2]
    assert len(chunks) == -(-runs // cli.CAKE_BLOCK_RUNS) and b"".join(chunks).decode("ascii") == body
    assert not any(b"\0" in chunk for chunk in chunks)
    if runs > 10**4:
        assert len(chunks) > 2 and 10**4 % cli.CAKE_BLOCK_RUNS != 0  # the width change is no block edge
    declared = cli._load_measures(str(measures))
    assert first_difference(body, per_cell_body(declared, run_monte_carlo(declared, runs, 3))) is None


@pytest.mark.parametrize(
    "argv",
    [
        # five blocks, the last one partial, with the 9,999 -> 10,000 label width change inside one
        ["cake", "--n", "2", "--samples", "10005", "--seed", "2"],
        ["rdm", "--R", "10", "--n-max", "5"],
        ["verify", "--game", "prorata", "--foreign", "2.5,2.5", "--foreign", "1,3"],
        ["ring", "--dist", "truncexp", "--n", "3", "--theta-grid", "5"],
        ["poa", "--n-max", "4"],
        ["commit", "--instance", "cfmm", "--n-max", "4"],
        ["fig", "--which", "fig1", "--n-max", "4"],
        ["fig", "--which", "fig2", "--n-max", "4"],
    ],
    ids=lambda argv: argv[2] if argv[0] == "fig" else argv[0],
)
def test_stdout_matches_out_file_byte_for_byte(tmp_path, capsysbinary, argv):
    out = tmp_path / "artifact.csv"
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert run_cli(argv) == 0
    printed = capsysbinary.readouterr().out
    assert first_difference(printed.decode(), out.read_text()) is None and printed == out.read_bytes()


def test_non_ascii_measures_path_writes_the_same_utf8_bytes_to_out_and_stdout(tmp_path, capsysbinary):
    measures = tmp_path / "mesures-é.txt"
    measures.write_text(THREE_MEASURES)
    out = tmp_path / "cake.csv"
    argv = ["cake", "--measures", str(measures), "--samples", "50", "--seed", "4"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert run_cli(argv) == 0
    printed = capsysbinary.readouterr().out
    assert printed == out.read_bytes()
    assert f" measures={measures} ".encode("utf-8") in printed.split(b"\n", 1)[0]


@pytest.mark.parametrize("subcommand", ["rdm", "cake"])
def test_a_stdout_without_a_buffer_gets_the_csv_as_text(tmp_path, subcommand):
    # contextlib.redirect_stdout to an io.StringIO: no sys.stdout.buffer to write bytes to
    measures = tmp_path / "mesures-é.txt"
    measures.write_text(THREE_MEASURES)
    argv = {
        "rdm": ["rdm", "--n-max", "3"],
        "cake": ["cake", "--measures", str(measures), "--samples", "30", "--seed", "2"],
    }[subcommand]
    out = tmp_path / "out.csv"
    assert run_cli(argv + ["--out", str(out)]) == 0
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_cli(argv) == 0
    assert printed.getvalue() == out.read_bytes().decode("utf-8")


def test_text_printed_around_a_csv_on_stdout_keeps_its_place(tmp_path):
    # the CSV bytes go to sys.stdout.buffer on a real pipe: text written before them stays before
    out = tmp_path / "cake.csv"
    argv = ["cake", "--n", "3", "--samples", "20", "--seed", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    script = (
        "import sys\n"
        "from sybilgames import cli\n"
        "print('before')\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('after')\n"
        "sys.exit(code)\n"
    )
    src = str(Path(sybilgames.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"before\n" + out.read_bytes() + b"after\n"


def test_failed_cake_writes_nothing(tmp_path, capsys):
    out = tmp_path / "cake.csv"
    assert run_cli(["cake", "--samples", "0", "--out", str(out)]) == 1
    assert not out.exists()
    assert run_cli(["cake", "--samples", "0"]) == 1
    assert capsys.readouterr().out == ""
    missing = tmp_path / "no" / "cake.csv"
    assert run_cli(["cake", "--samples", "10", "--out", str(missing)]) == 1
    assert not missing.parent.exists()
    assert run_cli(["cake", "--samples", "10", "--out", str(tmp_path)]) == 1  # a directory
    assert sorted(tmp_path.iterdir()) == []


def test_commit_cournot_counterexample_column(tmp_path):
    out = tmp_path / "commit.csv"
    assert run_cli(["commit", "--instance", "cournot", "--c", "0", "--n-max", "10", "--out", str(out)]) == 0
    _, header, rows = read_rows(out)
    assert header == ["n", "eq_payoff", "commit2_payoff", "scp_verdict"]
    verdicts = {int(r[0]): r[3] for r in rows}
    assert verdicts[2].startswith("counterexample(foreign=1")
    assert verdicts[1] == "scp"


@pytest.mark.parametrize(
    "argv, inst",
    [
        (["--instance", "cournot"], lambda: cournot_commitment_instance(1.0, 0.0)),
        (["--instance", "cfmm"], lambda: cfmm_commitment_instance(100.0, 100.0, 0.5)),
        (["--instance", "exp"], exponential_commitment_instance),
        (["--instance", "trivial", "--c", "1"], lambda: trivial_commitment_instance(1.0)),
    ],
)
def test_commit_verdict_column_is_scp_checks_per_row_verdict(tmp_path, argv, inst):
    out = tmp_path / "commit.csv"
    assert run_cli(["commit", *argv, "--out", str(out)]) == 0
    column = [row[3] for row in read_rows(out)[2]]
    # a lone player keeps one identity, and each crowd of k >= 2 players' equilibrium is beaten by committing k
    crowds = ["scp"] + [f"counterexample(foreign={k - 1};x={k})" for k in range(2, 11)]
    assert column == {"cournot": crowds, "cfmm": crowds, "exp": ["scp"] * 10, "trivial": ["scp"] * 10}[argv[1]]
    inst = inst()
    full = scp_check(inst, foreign_max=9, x_max=32)
    assert column == [
        f"counterexample(foreign={f};x={full.xs[f]})" if full.gains[f] > full.tol else "scp" for f in range(10)
    ]
    for f in range(10):  # the verdict over foreign counts 0..f is the first f + 1 rows
        verdict = scp_check(inst, foreign_max=f, x_max=32)
        assert verdict.proof == all(v == "scp" for v in column[: f + 1])
        if not verdict.proof:
            assert column[verdict.context] == f"counterexample(foreign={verdict.context};x={verdict.x})"


def test_poa_sweep(tmp_path):
    out = tmp_path / "poa.csv"
    assert run_cli(["poa", "--R", "10", "--c", "1", "--n-max", "6", "--out", str(out)]) == 0
    _, _, rows = read_rows(out)
    for row in rows:
        n = int(row[0])
        assert float(row[1]) == 10.0 / n  # the closed form: 10/5 prints as 2.0, not 1.9999999999999996
        assert float(row[3]) == pytest.approx(n, rel=0.05)


def test_verify_headcount(tmp_path):
    out = tmp_path / "verify.csv"
    assert run_cli(["verify", "--game", "headcount", "--foreign", "1,1,1", "--out", str(out)]) == 0
    _, _, rows = read_rows(out)
    assert rows[0][2] == "counterexample"
    assert float(rows[0][4]) == pytest.approx(1.5)


def test_no_subcommand_loads_scipy(tmp_path):
    # numpy is the only runtime dependency; a fresh interpreter shows whether any subcommand imports scipy
    runs = [
        ["verify", "--game", "headcount", "--foreign", "1,1,1"],
        ["cake", "--n", "3", "--samples", "100"],
        ["ring", "--dist", "beta22", "--n", "3", "--theta-grid", "3"],
        ["rdm", "--n-max", "4"],
        ["fig", "--which", "fig1", "--n-max", "4"],
        ["poa", "--n-max", "3"],
        ["commit", "--instance", "cfmm", "--n-max", "4"],
    ]
    script = (
        "import sys\n"
        "from sybilgames import cli\n"
        f"for i, argv in enumerate({runs!r}):\n"
        "    assert cli.main(argv + ['--out', sys.argv[1] + f'/{i}.csv']) == 0, argv\n"
        "assert 'scipy' not in sys.modules\n"
    )
    assert {argv[0] for argv in runs} == set(cli._HANDLERS)
    src = str(Path(sybilgames.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("game", ["headcount", "prorata", "cournot"])
def test_verify_negative_identity_cost_is_invalid(tmp_path, capsys, game):
    # a negative c must not run at zero cost behind a config line that says c=-1.0
    out = tmp_path / "verify.csv"
    assert run_cli(["verify", "--game", game, "--c", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "invalid parameter: identity cost must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("game", ["prorata", "cournot"])
def test_verify_zero_grid_step_is_invalid(tmp_path, capsys, game):
    out = tmp_path / "verify.csv"
    assert run_cli(["verify", "--game", game, "--grid-step", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("invalid parameter:")
    assert not out.exists()


@pytest.mark.parametrize("upper", ["-0.5", "nan"])
def test_verify_search_bound_below_the_action_space_is_invalid(tmp_path, capsys, upper):
    out = tmp_path / "verify.csv"
    assert run_cli(["verify", "--game", "cournot", "--upper", upper, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("invalid parameter: search upper bound")
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_ring_theta_grid_below_one_is_invalid(tmp_path, capsys, count):
    out = tmp_path / "ring.csv"
    assert run_cli(["ring", "--n", "3", "--theta-grid", count, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "invalid parameter: need at least one theta\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fig", "--which", "fig2", "--price", "nan"],
        ["commit", "--instance", "cfmm", "--reserve-a", "nan"],
        ["fig", "--which", "fig2", "--reserve-b", "inf"],
        ["commit", "--instance", "cfmm", "--reserve-b", "inf"],
        ["verify", "--c", "nan"],
        ["commit", "--c", "nan"],
        ["commit", "--alpha", "nan"],
        ["rdm", "--R", "nan"],
        ["verify", "--c", "inf"],
        ["commit", "--c", "inf"],
        ["commit", "--instance", "trivial", "--c", "inf"],
        ["verify", "--R", "nan"],
        ["verify", "--R", "inf"],
    ],
)
def test_nan_parameters_are_invalid(tmp_path, capsys, argv):
    # argparse reads "nan" and "inf" as floats; they must not run as "no arbitrage" or fail as a numeric error
    out = tmp_path / "out.csv"
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("invalid parameter:")
    assert not out.exists()


def test_unreadable_measures_file_is_named(tmp_path, capsys):
    missing = tmp_path / "does-not-exist.txt"
    out = tmp_path / "cake.csv"
    assert run_cli(["cake", "--measures", str(missing), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid parameter: cannot read measures file {missing}") and "cannot write output" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (["--game", "prorata", "--grid-step", "0.5"], {"grid_step=0.5", "upper=None"}),
        (["--game", "prorata", "--grid-step", "0.25"], {"grid_step=0.25", "upper=None"}),
        (["--game", "prorata", "--grid-step", "0.25", "--upper", "4"], {"grid_step=0.25", "upper=4.0"}),
        (["--game", "headcount", "--grid-step", "0.3"], {"grid_step=1.0"}),  # the {0, 1} search's own step
    ],
)
def test_verify_config_records_grid_step_and_upper(tmp_path, argv, recorded):
    out = tmp_path / "verify.csv"
    assert run_cli(["verify", *argv, "--out", str(out)]) == 0
    assert recorded <= set(read_rows(out)[0].split())


def test_verify_prorata_identity_cost_leaves_stake_cost_alone(tmp_path, monkeypatch):
    # with --c above 1, a stake cost taken from --c would differ from 1.0
    stake_costs = []

    def recording_game(R, stake_cost, **kwargs):
        stake_costs.append(stake_cost)
        return reward_share_game(R, stake_cost, **kwargs)

    monkeypatch.setattr(cli, "reward_share_game", recording_game)
    out = tmp_path / "verify.csv"
    assert run_cli(["verify", "--game", "prorata", "--c", "2", "--out", str(out)]) == 0
    assert stake_costs == [1.0]
    config, _, rows = read_rows(out)
    assert "c=2.0" in config.split()
    game = reward_share_game(10.0, 1.0, grid_step=0.5)
    verdict = verify_sybilproof(game, SybilCost.linear(2.0), 2, [(2.5, 2.5)])
    assert rows[0][2] == ("proof" if verdict.proof else "counterexample")
    assert float(rows[0][4]) == (0.0 if verdict.proof else verdict.gain)


def test_ring_csv_columns(tmp_path):
    out = tmp_path / "ring.csv"
    assert (
        run_cli(
            ["ring", "--dist", "uniform", "--n", "3", "--theta-grid", "5", "--seed", "1", "--out", str(out)]
        )
        == 0
    )
    _, header, rows = read_rows(out)
    assert header == ["theta", "truthful_ok", "sybilproof_ok", "welfare", "baseline"]
    assert rows[0][1] == "true" and rows[0][2] == "true"
    assert rows[-1][2] == "false"
    assert float(rows[0][4]) == pytest.approx(0.25, abs=1e-9)


def test_ring_ignores_the_sample_count(tmp_path):
    # welfare is n times the exact one-identity profit, so --samples is accepted and changes no byte
    few, many = tmp_path / "few.csv", tmp_path / "many.csv"
    argv = ["ring", "--dist", "beta22", "--n", "3", "--theta-grid", "5"]
    assert run_cli(argv + ["--samples", "10", "--out", str(few)]) == 0
    assert run_cli(argv + ["--samples", "100000", "--out", str(many)]) == 0
    assert few.read_bytes() == many.read_bytes()
    assert "samples=" not in read_rows(few)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["rdm", "--R", "10", "--n-max", "9", "--seed", "3"],
        ["cake", "--n", "3", "--samples", "500", "--seed", "11"],
        ["ring", "--n", "3", "--theta-grid", "4", "--seed", "5"],
        ["commit", "--instance", "exp", "--n-max", "8"],
        ["fig", "--which", "fig2", "--n-max", "6"],
        ["fig", "--which", "fig1", "--R", "10", "--n-max", "6"],
        ["verify", "--game", "prorata", "--max-identities", "3"],
        ["verify", "--game", "headcount", "--foreign", "1,1,1", "--max-identities", "3", "--c", "0.1"],
        ["poa", "--n-max", "4"],
    ],
)
def test_reruns_are_byte_identical(tmp_path, argv):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert run_cli(argv + ["--out", str(first)]) == 0
    assert run_cli(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert "np." not in first.read_text()  # numpy 2 writes repr(np.float64(x)) as np.float64(x)


def test_one_parser_carries_no_state_from_one_call_to_the_next(tmp_path, capsys):
    cli.build_parser.cache_clear()
    fresh = tmp_path / "fresh.csv"
    assert run_cli(["verify", "--out", str(fresh)]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert run_cli(["verify", "--grid-step", "x"]) == 1
    assert "usage error" in capsys.readouterr().err
    two = tmp_path / "two.csv"
    assert run_cli(["verify", "--foreign", "1,1,1", "--foreign", "1,1", "--out", str(two)]) == 0
    assert [row[1] for row in read_rows(two)[2]] == ["1.0|1.0|1.0", "1.0|1.0"]
    none = tmp_path / "none.csv"
    assert run_cli(["verify", "--out", str(none)]) == 0
    config, _, rows = read_rows(none)
    assert [row[1] for row in rows] == ["1.0|1.0|1.0"] and " profiles=1.0|1.0|1.0 " in config
    assert none.read_bytes() == fresh.read_bytes()


def test_csv_round_trip_exact(tmp_path):
    out = tmp_path / "poa.csv"
    assert run_cli(["poa", "--R", "10", "--c", "1", "--n-max", "5", "--out", str(out)]) == 0
    config, header, rows = read_rows(out)
    regenerated = [config, ",".join(header)]
    for row in rows:
        cells = [row[0]] + [repr(float(c)) for c in row[1:]]
        regenerated.append(",".join(cells))
    assert "\n".join(regenerated) + "\n" == out.read_text()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run_cli([]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["rdm", "--R", "ten"]) == 1
    assert run_cli(["commit", "--instance", "trivial", "--c", "0"]) == 1
    assert run_cli(["commit", "--instance", "trivial", "--c", "nan"]) == 1
    capsys.readouterr()


def test_invalid_parameter_exits_one(tmp_path):
    # an eps outside (0, K) violates the tent's domain
    assert run_cli(["rdm", "--R", "10", "--eps", "5.0", "--n-max", "3"]) == 1
    # one identity has no deviation to compare against (Cournot pays at x = 2)
    assert run_cli(["commit", "--instance", "cournot", "--x-max", "1"]) == 1
    # an empty theta grid has nothing to search
    assert run_cli(["ring", "--n", "3", "--theta-grid", "0", "--out", str(tmp_path / "r.csv")]) == 1
    # zero stake cost leaves the stake game without its R/c action bound
    assert run_cli(["poa", "--c", "0", "--n-max", "3", "--out", str(tmp_path / "p.csv")]) == 1


def test_poa_with_an_underflowing_equilibrium_welfare_is_an_invalid_parameter(tmp_path, capsys):
    # R/n rounds to 0.0 at n = 2; the row's ratio goes through price_of_anarchy's welfare check, not a bare divide
    assert run_cli(["poa", "--R", "5e-324", "--n-max", "3", "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "invalid parameter: price of anarchy is undefined for nonpositive equilibrium welfare\n"
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("argv", [["fig", "--which", "fig2"], ["commit", "--instance", "cfmm"]])
def test_a_non_finite_arbitrage_payoff_is_a_numeric_failure(tmp_path, capsys, argv):
    # B^2 overflows at b = 1e200: fig2 wrote nan rows with exit 0, and commit named no cause
    out = tmp_path / "out.csv"
    assert run_cli(argv + ["--reserve-b", "1e200", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: batched arbitrage payoff at n = 2 is nan at reserves 100.0, 1e+200 and price 0.5\n"
    assert not out.exists()


def test_unwritable_output_exits_one(tmp_path):
    assert run_cli(["poa", "--n-max", "3", "--out", str(tmp_path / "no" / "dir.csv")]) == 1


def test_exit_code_mapping_for_runtime_failures(monkeypatch, capsys):
    def boom_invariant(args):
        raise InvariantViolation("self-check failed")

    def boom_numeric(args):
        raise NumericError("did not converge")

    monkeypatch.setitem(cli._HANDLERS, "poa", boom_invariant)
    assert run_cli(["poa"]) == 2
    monkeypatch.setitem(cli._HANDLERS, "poa", boom_numeric)
    assert run_cli(["poa"]) == 3
    capsys.readouterr()
