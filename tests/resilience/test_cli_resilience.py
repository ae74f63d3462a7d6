"""CLI-level fault tolerance: ``--resume``, ``--checkpoint-every``, and
the KeyboardInterrupt exit protocol."""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.cli import main

TUNE = [
    "tune",
    "--app",
    "stencil",
    "--input",
    "500x500",
    "--max-suggestions",
    "120",
]


class TestInterruptExitCode:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        class InterruptedSession:
            def __init__(self, *args, **kwargs):
                pass

            @property
            def prepared(self):
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "AutoMapSession", InterruptedSession)
        assert main(TUNE) == 130
        err = capsys.readouterr().err
        assert "--resume" in err


class TestResumeFlag:
    def test_resume_conflicts_with_other_workdir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                TUNE
                + [
                    "--workdir",
                    str(tmp_path / "a"),
                    "--resume",
                    str(tmp_path / "b"),
                ]
            )

    def test_resume_without_checkpoint_fails(self, tmp_path):
        workdir = tmp_path / "fresh"
        workdir.mkdir()
        with pytest.raises(FileNotFoundError):
            main(TUNE + ["--resume", str(workdir)])

    def test_tune_then_resume_end_to_end(self, tmp_path, capsys):
        workdir = tmp_path / "run"
        assert (
            main(
                TUNE
                + ["--workdir", str(workdir), "--checkpoint-every", "10"]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert (workdir / "checkpoint.json").exists()
        assert (workdir / "best_mapping.json").exists()

        assert main(TUNE + ["--resume", str(workdir)]) == 0
        second = capsys.readouterr().out
        assert "evaluations replayed from checkpoint" in second

        def best_line(text):
            return next(
                line
                for line in text.splitlines()
                if "best mean time" in line
            )

        assert best_line(first) == best_line(second)
