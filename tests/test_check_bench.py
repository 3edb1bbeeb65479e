"""The benchmark regression gate (``benchmarks/check_bench.py``)."""

import importlib.util
import json
import pathlib
import sys

_PATH = pathlib.Path(__file__).parents[1] / "benchmarks" / "check_bench.py"
_SPEC = importlib.util.spec_from_file_location("check_bench", _PATH)
check_bench = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_bench", check_bench)  # dataclasses look it up
_SPEC.loader.exec_module(check_bench)

_BASE_HOST = {"cores": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}


def _write(path, data):
    path.write_text(json.dumps(data))
    return path


def test_host_record_is_printed_not_gated(tmp_path, capsys):
    baseline = {
        "test_layout1_full_solve": {"mean": 0.8},
        check_bench.HOST_KEY: _BASE_HOST,
    }
    # A different host, and a record with no "mean" at all: neither is a
    # timing, so neither may crash or fail the gate.
    fresh = {
        "test_layout1_full_solve": {"mean": 0.9},
        check_bench.HOST_KEY: {"cores": 8, "python": "3.12.1"},
    }
    code = check_bench.main([
        "--fresh", str(_write(tmp_path / "fresh.json", fresh)),
        "--baseline", str(_write(tmp_path / "base.json", baseline)),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cores" in out and "(differs)" in out
    assert "[new ] _host" not in out
    assert "bench-check passed." in out


def test_gated_solve_regression_still_fails():
    baseline = {"test_layout1_full_solve": {"mean": 0.8}, check_bench.HOST_KEY: _BASE_HOST}
    fresh = {"test_layout1_full_solve": {"mean": 2.0}, check_bench.HOST_KEY: _BASE_HOST}
    failures = check_bench.check(fresh, baseline, 2.0)
    assert len(failures) == 1 and "test_layout1_full_solve" in failures[0]
