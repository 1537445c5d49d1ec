"""Every function the benchmark tracer wraps must exist in guekit.

perfbench/tracer.py fails a traced job when a name in its SPAN_GROUPS is
missing; checking the names here turns such a deletion or rename into a
test failure instead of a failed benchmark run.  The traced runs below do
the same for a module the tracer cannot find or a function it cannot wrap.
"""

import array
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _span_groups():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPAN_GROUPS


def test_every_traced_function_exists():
    missing = [
        f"{module_name}.{func}"
        for module_name, table in _span_groups().items()
        for func in table
        if not callable(getattr(importlib.import_module(module_name), func, None))
    ]
    assert missing == []


def _called_spans(tmp_path, argv):
    """Names of the spans a traced guekit run recorded."""
    spans = tmp_path / "spans"
    src = str(TRACER.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(TRACER), str(spans), "0.0", "--", *argv],
                            env=env, cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    with open(spans, "rb") as fh:
        header = json.loads(fh.readline())
        fh.seek(2 * 8 * header["count"], os.SEEK_CUR)  # starts and ends
        name_of = array.array("i")
        name_of.fromfile(fh, header["count"])
    return {header["names"][i] for i in name_of}


def test_tracer_runs_a_table_command(tmp_path):
    called = _called_spans(tmp_path, ["rosettes", "--l", "5"])
    assert "cli.self:cmd_rosettes" in called
    assert "rosettes.closed_form:rosette_count_formula" in called
    called = _called_spans(tmp_path, ["harer-zagier", "--N", "3", "--p-max", "7"])
    assert "rosettes.closed_form:harer_zagier_closed" in called
    called = _called_spans(tmp_path, ["moments", "--N", "4", "--l-max", "8"])
    assert "observables.moment:moment_exact" in called


def test_tracer_wraps_the_lazily_imported_sampler(tmp_path):
    called = _called_spans(tmp_path, ["sample", "--N", "2", "--samples", "100", "--t", "1.0"])
    assert "montecarlo.estimate:estimate_wilson" in called


def test_tracer_follows_the_array_integrands(tmp_path):
    # integrate_real hands its integrand arrays of nodes; the tracer's
    # counting wrapper passes them through
    called = _called_spans(tmp_path, ["verify", "--suite", "density"])
    assert "exact.simpson:integrate_real" in called
    assert "observables.eval:density_eval" in called


def test_tracer_follows_the_enumeration_oracles(tmp_path):
    called = _called_spans(tmp_path, ["verify", "--suite", "wick"])
    assert "rosettes.census:rosette_census" in called
    called = _called_spans(tmp_path, ["verify", "--suite", "initial"])
    assert "multigraph.oracle:trace_derivative_value" in called
    assert "multigraph.eulerian:eulerian_count_rooted" in called
    called = _called_spans(tmp_path, ["verify", "--suite", "best"])
    for span in ["bijection.maps:enumerate_maps", "bijection.trees:spanning_trees",
                 "bijection.forward:best_forward", "bijection.inverse:best_inverse",
                 "multigraph.eulerian:eulerian_count_rooted"]:
        assert span in called, span
