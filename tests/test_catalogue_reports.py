"""tools/catalogue_reports.py on a one-variant catalogue: its
``--blas-threads`` option and the file it writes."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "catalogue_reports", os.path.join(ROOT, "tools", "catalogue_reports.py"))
catalogue_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(catalogue_reports)


@pytest.fixture
def one_variant(monkeypatch):
    """The catalogue cut to its smallest hinge_affine variant, and every
    BLAS thread variable restored after the test."""
    monkeypatch.syspath_prepend(catalogue_reports.PERFBENCH)
    import workloads

    variant = workloads.smallest_spec("hinge_affine")
    monkeypatch.setattr(workloads, "CATALOGUE", {"hinge_affine": [[variant]]})
    for var in catalogue_reports.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "7")
    return variant[0]


@pytest.mark.parametrize("args, threads", [([], "1"), (["--blas-threads", "2"], "2")])
def test_blas_threads_sets_every_thread_variable(one_variant, tmp_path, args, threads):
    out = tmp_path / "reports.json"
    catalogue_reports.main([str(out), *args])
    assert {os.environ[v] for v in catalogue_reports.BLAS_THREAD_VARS} == {threads}
    reports = json.loads(out.read_text())
    assert list(reports) == [one_variant]
    report = reports[one_variant]
    assert (report["exit"], report["stderr"]) == (0, "")
    assert report["deterministic"]["certified"] is True
    assert "flips" in report["deterministic"]


def test_blas_threads_below_one_is_rejected(one_variant, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        catalogue_reports.main([str(tmp_path / "reports.json"), "--blas-threads", "0"])
    assert exc.value.code == 2
    assert "--blas-threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "reports.json").exists()
