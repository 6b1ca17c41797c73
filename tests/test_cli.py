"""Tests for the command-line interface (``python -m repro``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main


@pytest.fixture
def c_file(tmp_path):
    f = tmp_path / "prog.c"
    f.write_text(
        """
        struct S { int *s1; int *s2; } s;
        int x, y, *p;
        void main(void) { s.s1 = &x; s.s2 = &y; p = s.s1; }
        """
    )
    return str(f)


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


class TestCLI:
    def test_default_dump(self, c_file, capsys):
        rc, out = run_cli([c_file], capsys)
        assert rc == 0
        assert "strategy: Common Initial Sequence" in out
        assert "p -> {x}" in out

    def test_query(self, c_file, capsys):
        rc, out = run_cli([c_file, "-q", "p", "-q", "s.s2"], capsys)
        assert rc == 0
        assert "p -> ['x']" in out
        assert "s.s2 -> ['y']" in out

    def test_query_unknown_name(self, c_file, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([c_file, "-q", "zzz"])
        assert str(exc_info.value.code).startswith(
            "error: no object named 'zzz'")

    def test_strategy_choice(self, c_file, capsys):
        rc, out = run_cli([c_file, "-s", "collapse_always", "-q", "p"], capsys)
        assert rc == 0
        assert "'x'" in out and "'y'" in out  # collapsed result

    def test_offsets_abi(self, c_file, capsys):
        rc32, out32 = run_cli([c_file, "-s", "offsets", "-q", "s.s2"], capsys)
        rc64, out64 = run_cli(
            [c_file, "-s", "offsets", "--abi", "lp64", "-q", "s.s2"], capsys
        )
        assert rc32 == rc64 == 0
        assert "y+0" in out32 and "y+0" in out64

    def test_derefs_mode(self, tmp_path, capsys):
        f = tmp_path / "d.c"
        f.write_text("int *p, x; void main(void) { x = *p; p = &x; x = *p; }")
        rc, out = run_cli([str(f), "--derefs"], capsys)
        assert rc == 0
        assert "sites" in out

    def test_compare_mode(self, c_file, capsys):
        rc, out = run_cli([c_file, "--compare"], capsys)
        assert rc == 0
        for name in ("Collapse Always", "Collapse on Cast",
                     "Common Initial Sequence", "Offsets"):
            assert name in out

    def test_pessimistic_mode(self, tmp_path, capsys):
        f = tmp_path / "bad.c"
        f.write_text(
            """
            struct G { int *a; int *b; } g;
            int x, out;
            int **q;
            void main(void) {
                g.a = &x;
                q = (int **)((char *)&g + 4);
                out = **q;
            }
            """
        )
        rc, out = run_cli([str(f), "--no-assumption-1"], capsys)
        assert rc == 0
        assert "possibly-corrupted" in out

    def test_local_name_resolution(self, tmp_path, capsys):
        f = tmp_path / "loc.c"
        f.write_text("int x; void main(void) { int *lp = &x; }")
        rc, out = run_cli([str(f), "-q", "lp"], capsys)
        assert rc == 0
        assert "lp -> ['x']" in out

    def test_parser_help_strategies(self):
        parser = build_parser()
        # All five registered strategies (4 paper + strided) accepted.
        ns = parser.parse_args(["f.c", "-s", "strided_offsets"])
        assert ns.strategy == "strided_offsets"

    def test_help_epilog_cross_links_docs(self):
        # --help names both subcommands and points at their docs.
        text = build_parser().format_help()
        assert "serve" in text
        assert "docs/service.md" in text
        assert "explain" in text
        assert "docs/observability.md" in text

    @pytest.mark.parametrize("flag", ["--demand", "--modular"])
    def test_retired_answer_flags_are_usage_errors(self, c_file, flag,
                                                   capsys):
        # A plain run answers every query; these flags are gone.
        with pytest.raises(SystemExit) as exc_info:
            main([c_file, "-q", "p", flag])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_query_ambiguous_local_name(self, tmp_path):
        f = tmp_path / "amb.c"
        f.write_text("int a, b;\n"
                     "void f(void) { int *x; x = &a; }\n"
                     "void g(void) { int *x; x = &b; }\n")
        with pytest.raises(SystemExit) as exc_info:
            main([str(f), "-q", "x"])
        assert "ambiguous object name 'x'" in str(exc_info.value.code)

    def test_profile_counter_line(self, c_file, capsys):
        rc = main([c_file, "-q", "p", "--profile"])
        err = capsys.readouterr().err
        assert rc == 0
        line = next(ln for ln in err.splitlines()
                    if ln.startswith("# backend:"))
        assert "store_hits: 0" in line
        for retired in ("summaries_computed", "demanded_facts",
                        "demand_widenings"):
            assert retired not in line


class TestStrictAndLenientCLI:
    """Front-end failures never escape as tracebacks (see ISSUE PR 5)."""

    BAD = """
        struct S { int x; };
        struct S s; int g; int *p;
        void main(void) { p = &s.x; g = g.field; }
        """

    @pytest.fixture
    def bad_file(self, tmp_path):
        f = tmp_path / "bad.c"
        f.write_text(self.BAD)
        return str(f)

    def test_strict_failure_is_one_line_and_nonzero(self, bad_file, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([bad_file])
        # SystemExit with a message string means a nonzero exit status.
        msg = str(exc_info.value.code)
        assert "bad.c:4" in msg
        assert "error:" in msg
        assert "member access .field on non-struct" in msg
        assert "\n" not in msg
        assert "Traceback" not in capsys.readouterr().err

    def test_lenient_flag_analyzes_and_reports(self, bad_file, capsys):
        rc = main([bad_file, "--lenient", "-q", "p"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "p -> ['s.x']" in captured.out
        assert "degraded in lenient mode" in captured.err
        assert "member access .field on non-struct" in captured.err

    def test_parse_error_exits_nonzero_even_lenient(self, tmp_path, capsys):
        f = tmp_path / "broken.c"
        f.write_text("int g = ;")
        for args in ([str(f)], [str(f), "--lenient"]):
            with pytest.raises(SystemExit) as exc_info:
                main(args)
            msg = str(exc_info.value.code)
            assert "broken.c" in msg
            assert "\n" not in msg

    def test_missing_file_is_clean_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["/no/such/file.c"])
        assert "cannot read" in str(exc_info.value.code)


class TestCompareRelease:
    def test_compare_releases_each_strategy(self, c_file, monkeypatch, capsys):
        """Each row's engine and result leave the session before the
        next strategy is solved."""
        from repro.session import AnalysisSession

        sizes = []
        solve = AnalysisSession.solve

        def spy(self, strategy, *args, **kwargs):
            sizes.append((len(self._engines), len(self._results)))
            return solve(self, strategy, *args, **kwargs)

        monkeypatch.setattr(AnalysisSession, "solve", spy)
        rc, _out = run_cli([c_file, "--compare"], capsys)
        assert rc == 0
        assert sizes == [(0, 0)] * 4

    def test_compare_with_store_warm_starts(self, c_file, tmp_path,
                                            monkeypatch, capsys):
        store = str(tmp_path / "store")
        rc, cold = run_cli([c_file, "--compare", "--store", store], capsys)
        assert rc == 0

        def no_engine(*args, **kwargs):
            raise AssertionError("a warm --compare constructed an engine")

        monkeypatch.setattr("repro.session.Engine", no_engine)
        rc, warm = run_cli([c_file, "--compare", "--store", store], capsys)
        assert rc == 0
        assert warm == cold


def _python_m_repro(*args, **popen):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-m", "repro", *args],
                            env=env, **popen)


class TestProcessExit:
    """``python -m repro`` flushes and leaves without interpreter
    teardown, with the exit status ``sys.exit(main())`` would give."""

    def run(self, *args):
        proc = _python_m_repro(*args, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=120)
        return proc.returncode, out, err

    def test_success_output_is_flushed(self, c_file):
        rc, out, err = self.run(c_file, "--compare")
        assert rc == 0 and err == ""
        assert out.count("\n") == 5 and "Offsets" in out

    def test_error_message_and_status(self, tmp_path):
        rc, out, err = self.run(str(tmp_path / "missing.c"))
        assert rc == 1 and out == ""
        assert err.startswith("error: cannot read")

    def test_usage_error_status(self):
        rc, _out, err = self.run("--no-such-flag")
        assert rc == 2 and "usage:" in err

    def test_closed_stdout_pipe_exits_quietly(self):
        from repro.suite.registry import by_name, program_dir

        path = program_dir() / by_name("bc").filename
        proc = _python_m_repro(str(path), "--temps", "-s", "offsets",
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err


def test_import_loads_only_what_the_cli_runs():
    """``python -m repro`` imports neither the codegen backends nor the
    clients ``--compare`` does not use."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, repro.__main__\n"
             "print(sorted(m for m in ('repro.core.codegen',"
             " 'repro.clients.modref', 'repro.clients.derefstats')"
             " if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True).stdout
    assert out.strip() == "['repro.clients.derefstats']"
