"""CLI smoke tests."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "matrixtranspose" in out
    assert "fig21" in out
    assert "batching" in out


def test_run_command(capsys):
    assert main(["run", "fir", "--scheme", "private", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "execution cycles" in out
    assert "OTP send" in out


def test_run_unsecure_hides_otp_lines(capsys):
    assert main(["run", "fir", "--scheme", "unsecure", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "OTP send" not in out


def test_compare_command(capsys):
    assert main(["compare", "aes", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    for scheme in ("private", "shared", "cached", "dynamic", "batching"):
        assert scheme in out


def test_experiment_command_analytic(capsys, tmp_path, monkeypatch):
    # the CLI archives the table under ./results, so run it outside the tree
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "table1"]) == 0
    assert "Table I" in capsys.readouterr().out
    assert (tmp_path / "results" / "table1.txt").read_text().startswith("Table I")


def test_unknown_workload_fails():
    with pytest.raises(KeyError):
        main(["run", "not-a-workload"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "fir", "--fleet", "x:1"],
        ["fleet", "coordinator"],
        ["serve"],
        ["submit", "fir"],
        ["status"],
        ["cancel", "j000001"],
    ],
    ids=[
        "run-fleet-flag",
        "fleet-subcommand",
        "serve-subcommand",
        "submit-subcommand",
        "status-subcommand",
        "cancel-subcommand",
    ],
)
def test_removed_fleet_inputs_rejected(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
