"""Tests for the leaps-bench CLI."""

from types import SimpleNamespace

import pytest

from repro.core import cli
from repro.core.experiments import common


def test_help_returns_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "leaps-bench" in capsys.readouterr().out


def test_no_args_prints_usage(capsys):
    assert cli.main([]) == 0
    assert "fig1" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert cli.main(["fig9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_dispatch_runs_experiment(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(common, "PBC_QUICK", ["gemm"])
    monkeypatch.setattr(common, "SPEC_QUICK", [])
    assert cli.main(["fig1", "--size", "mini"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1" in out
    assert (tmp_path / "fig1.json").exists()


def _figure(derive=lambda swept, **settings: [], **declared):
    """A figure declaration that measures nothing."""
    attrs = dict(
        __doc__="A test figure.", ISAS=(), ISA="x86_64", FULL=True,
        STEM="test-figure", specs=lambda isa, size, quick: [],
        derive=derive, render=lambda payload: "rendered",
    )
    attrs.update(declared)
    return SimpleNamespace(**attrs)


def _raising(exc):
    def derive(swept, **settings):
        raise exc

    return derive


class TestExitCodes:
    """Every failure mode must surface as a non-zero exit status."""

    @pytest.fixture(autouse=True)
    def results_in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DEBUG", raising=False)

    def test_crashing_experiment_returns_one(self, monkeypatch, capsys):
        boom = _figure(_raising(RuntimeError("measurement backend fell over")))
        monkeypatch.setitem(cli._EXPERIMENTS, "fig1", boom)
        assert cli.main(["fig1"]) == 1
        err = capsys.readouterr().err
        assert "fig1: error: measurement backend fell over" in err

    def test_repro_debug_reraises(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        boom = _figure(_raising(RuntimeError("boom")))
        monkeypatch.setitem(cli._EXPERIMENTS, "fig1", boom)
        with pytest.raises(RuntimeError, match="boom"):
            cli.main(["fig1"])

    def test_argparse_error_propagates_its_code(self, capsys):
        assert cli.main(["fig1", "--bogus-flag"]) == 2
        assert "--bogus-flag" in capsys.readouterr().err

    def test_system_exit_none_is_success(self, monkeypatch):
        def done(argv):
            raise SystemExit

        monkeypatch.setitem(cli._TOOLS, "trace", done)
        assert cli.main(["trace"]) == 0

    def test_system_exit_message_maps_to_one(self, monkeypatch, capsys):
        bail = _figure(_raising(SystemExit("could not write results")))
        monkeypatch.setitem(cli._EXPERIMENTS, "fig1", bail)
        assert cli.main(["fig1"]) == 1

    def test_all_reports_worst_failure(self, monkeypatch, tmp_path, capsys):
        calls = []

        def ok(swept, **settings):
            calls.append("ok")
            return []

        def boom(swept, **settings):
            calls.append("boom")
            raise RuntimeError("nope")

        monkeypatch.setattr(
            cli, "_EXPERIMENTS",
            {"bad": _figure(boom, STEM="bad"), "good": _figure(ok, STEM="good")},
        )
        assert cli.main(["all"]) == 1
        # The crash must not stop the remaining figures.
        assert calls == ["boom", "ok"]
        assert [path.name for path in tmp_path.iterdir()] == ["good.json"]
        assert "bad: error: nope" in capsys.readouterr().err

    def test_all_green_returns_zero(self, monkeypatch):
        monkeypatch.setattr(
            cli, "_EXPERIMENTS",
            {"a": _figure(STEM="a"), "b": _figure(STEM="b")},
        )
        assert cli.main(["all"]) == 0


class TestAllFlags:
    """``all`` parses its flags once and runs each figure at its
    default ``--isa``; ``--full`` reaches only the figures that take it."""

    def test_full_reaches_only_the_figures_that_take_it(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        seen = {}

        def recording(name):
            def derive(swept, **settings):
                seen[name] = settings
                return []

            return derive

        monkeypatch.setattr(
            cli, "_EXPERIMENTS",
            {
                "subset": _figure(
                    recording("subset"), ISAS=("x86_64", "armv8"),
                    ISA="armv8", STEM="subset-{isa}",
                ),
                "fixed": _figure(recording("fixed"), FULL=False, STEM="fixed"),
            },
        )
        assert cli.main(["all", "--full", "--size", "mini"]) == 0
        assert seen == {
            "subset": dict(isa="armv8", size="mini", quick=False),
            "fixed": dict(isa="x86_64", size="mini", quick=True),
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fixed.json", "subset-armv8.json"
        ]

    def test_figures_without_full_reject_it_alone(self, capsys):
        for name in ("fig-cage", "fig-wasi"):
            assert cli.main([name, "--full"]) == 2
        assert cli.main(["all", "--isa", "x86_64"]) == 2
