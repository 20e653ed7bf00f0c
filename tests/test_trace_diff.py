"""Manifest readers on bad input, and ``repro trace --diff``.

``validate_manifest`` reports every malformed document as problems and
never raises; ``repro trace`` and ``repro metrics`` turn an unreadable or
invalid manifest into exit status 1 and one line on stderr naming the
path.  ``trace --diff`` aligns two span trees by their paths of names.
"""

import json

import pytest

from repro.cli import main
from repro.obs import RunManifest, validate_manifest
from repro.obs.trace import UNATTRIBUTED, diff_span_trees, render_span_diff


def _span(name, duration, *children, **extra):
    record = {"name": name, "started": 1.0, "duration": duration, "status": "ok"}
    if children:
        record["children"] = list(children)
    record.update(extra)
    return record


def _document(spans=None, metrics=None):
    return RunManifest(
        study={"key": "k" * 32, "code": "c" * 16, "config": {"seed": "1"}},
        outcome={"sessions": 5, "alerts": 3, "events": 3, "kept_cves": 2},
        execution={"workers": 1, "from_cache": True, "checkpoint_stages": []},
        spans=spans if spans is not None else [
            _span("run_study", 2.0, _span("datasets", 1.5))
        ],
        metrics=metrics or {"counters": {"c": 1}, "gauges": {}, "histograms": {}},
    ).as_dict()


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


# -- validate_manifest never raises -------------------------------------------

def test_valid_document_has_no_problems():
    assert validate_manifest(_document()) == []


def test_non_list_children_is_a_problem_not_a_type_error():
    document = _document(spans=[_span("run_study", 1.0, children=5)])
    assert validate_manifest(document) == [
        "spans[0]: span 'children' is not a list"
    ]


@pytest.mark.parametrize("key", ["started", "duration"])
def test_boolean_times_are_rejected(key):
    span = _span("run_study", 1.0)
    span[key] = True
    document = _document(spans=[span])
    assert validate_manifest(document) == [
        f"spans[0]: span missing numeric {key!r}"
    ]


def test_non_object_attributes_are_rejected():
    nested = _span("run_study", 1.0, _span("scan", 0.5, attributes=[1, 2]))
    assert validate_manifest(_document(spans=[nested])) == [
        "spans[0].children[0]: span 'attributes' is not an object"
    ]


def test_deep_nesting_is_reported_not_a_recursion_error():
    span = {"name": "leaf", "started": 0.0, "duration": 0.0, "status": "bad"}
    for _ in range(5000):
        span = _span("level", 1.0, span)
    problems = validate_manifest(_document(spans=[span]))
    assert len(problems) == 1 and problems[0].endswith(
        "span status must be 'ok' or 'error'"
    )


def test_mistyped_metrics_are_rejected():
    metrics = {
        "counters": {"c": "many"},
        "gauges": {"g": True},
        "histograms": {"h": [1]},
    }
    assert validate_manifest(_document(metrics=metrics)) == [
        "metrics counters['c'] is not an integer",
        "metrics gauges['g'] is not a number",
        "metrics histograms['h'] is not an object of numbers",
    ]


def test_boolean_outcome_counts_are_rejected():
    document = _document()
    document["outcome"]["alerts"] = True
    assert validate_manifest(document) == [
        "outcome section missing integer 'alerts'"
    ]


# -- the CLI exits 1 with one line --------------------------------------------

def _bad_manifests(tmp_path):
    text = json.dumps(_document(), indent=2)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[: len(text) // 2])
    not_json = tmp_path / "not-json.json"
    not_json.write_text("this is not a manifest\n")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00garbage")
    invalid = _write(tmp_path, "invalid.json", {"schema": 1})
    bad_children = _write(
        tmp_path, "children.json",
        _document(spans=[_span("run_study", 1.0, children=5)]),
    )
    bad_attributes = _write(
        tmp_path, "attributes.json",
        _document(spans=[_span("run_study", 1.0, attributes=[1, 2])]),
    )
    bad_counter = _write(
        tmp_path, "counter.json",
        _document(metrics={
            "counters": {"c": "many"}, "gauges": {}, "histograms": {},
        }),
    )
    return [
        truncated, not_json, binary, invalid,
        bad_children, bad_attributes, bad_counter,
    ]


@pytest.mark.parametrize("command", ["trace", "metrics"])
def test_cli_rejects_bad_manifests_in_one_line(tmp_path, capsys, command):
    for path in _bad_manifests(tmp_path):
        assert main([command, str(path)]) == 1, path.name
        captured = capsys.readouterr()
        assert captured.out == "", path.name
        lines = captured.err.splitlines()
        assert len(lines) == 1, (path.name, lines)
        assert lines[0].startswith(f"error: {path}: "), lines[0]
        assert "Traceback" not in captured.err


def test_cli_names_the_problem(tmp_path, capsys):
    paths = {path.name: path for path in _bad_manifests(tmp_path)}
    expected = {
        "truncated.json": "not valid JSON",
        "binary.json": "not UTF-8 text",
        "invalid.json": "missing or mistyped top-level 'run'",
        "children.json": "span 'children' is not a list",
        "attributes.json": "span 'attributes' is not an object",
    }
    for name, fragment in expected.items():
        assert main(["trace", str(paths[name])]) == 1
        assert fragment in capsys.readouterr().err, name


# -- trace --diff --------------------------------------------------------------

BEFORE = [
    _span(
        "run_study", 0.200,
        _span("datasets", 0.100, _span("nvd", 0.080)),
        _span("cache.load", 0.050),
        _span("retired", 0.010),
    )
]
AFTER = [
    _span(
        "run_study", 0.120,
        _span("datasets", 0.030, _span("nvd", 0.010)),
        _span("cache.load", 0.050),
        _span("shard", 0.020, status="error", error="ValueError: torn"),
    )
]


def _rows_by_path(before, after):
    return {row["path"]: row for row in diff_span_trees(before, after)}


def test_matched_spans_carry_both_sides_and_the_change():
    rows = _rows_by_path(BEFORE, AFTER)
    datasets = rows[("run_study", "datasets")]
    assert datasets["before"] == {"duration": 0.100, "self": pytest.approx(0.020)}
    assert datasets["after"] == {"duration": 0.030, "self": pytest.approx(0.020)}
    assert datasets["delta_duration"] == pytest.approx(-0.070)
    assert datasets["delta_self"] == pytest.approx(0.0)
    nvd = rows[("run_study", "datasets", "nvd")]
    assert nvd["delta_self"] == pytest.approx(-0.070)
    assert rows[("run_study", "cache.load")]["delta_duration"] == 0.0


def test_spans_on_one_side_only():
    rows = _rows_by_path(BEFORE, AFTER)
    retired = rows[("run_study", "retired")]
    assert retired["after"] is None
    assert retired["delta_duration"] == pytest.approx(-0.010)
    shard = rows[("run_study", "shard")]
    assert shard["before"] is None
    assert shard["delta_duration"] == pytest.approx(0.020)
    order = [row["path"] for row in diff_span_trees(BEFORE, AFTER)]
    # Pre-order, A's spans first, then spans only B has, then the
    # root's unattributed row.
    assert order == [
        ("run_study",),
        ("run_study", "datasets"),
        ("run_study", "datasets", "nvd"),
        ("run_study", "cache.load"),
        ("run_study", "retired"),
        ("run_study", "shard"),
        ("run_study", UNATTRIBUTED),
    ]
    text = render_span_diff(BEFORE, AFTER)
    assert "(only in A)" in text.splitlines()[5]
    assert "(only in B)" in text.splitlines()[6]


def test_error_status_is_shown():
    rows = _rows_by_path(BEFORE, AFTER)
    assert rows[("run_study", "shard")]["errors"] == ["B: ValueError: torn"]
    assert rows[("run_study", "datasets")]["errors"] == []
    line = next(
        line for line in render_span_diff(BEFORE, AFTER).splitlines()
        if line.lstrip().startswith("shard")
    )
    assert line.endswith("!! B: ValueError: torn")


def test_unattributed_row_is_root_minus_children():
    row = _rows_by_path(BEFORE, AFTER)[("run_study", UNATTRIBUTED)]
    assert row["before"]["duration"] == pytest.approx(0.040)
    assert row["after"]["duration"] == pytest.approx(0.020)
    assert row["delta_duration"] == pytest.approx(-0.020)


def test_repeated_sibling_names_align_by_occurrence():
    before = [_span("run", 3.0, _span("chunk", 1.0), _span("chunk", 2.0))]
    after = [_span("run", 3.0, _span("chunk", 1.5))]
    rows = _rows_by_path(before, after)
    assert rows[("run", "chunk")]["delta_duration"] == pytest.approx(0.5)
    assert rows[("run", "chunk [2]")]["after"] is None


def test_cli_diff(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _document(spans=BEFORE))
    b = _write(tmp_path, "b.json", _document(spans=AFTER))
    assert main(["trace", "--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert f"A: {a}" in out and f"B: {b}" in out
    datasets = next(
        line for line in out.splitlines() if line.lstrip().startswith("datasets")
    )
    assert datasets.split() == [
        "datasets", "100.0", "20.0", "30.0", "20.0", "-70.0", "+0.0",
    ]
    assert main(["trace", "--diff", str(a), str(b), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["path"] == ["run_study"]
    assert rows[-1]["path"] == ["run_study", UNATTRIBUTED]


def test_cli_diff_rejects_a_bad_side(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _document())
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["trace", "--diff", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid JSON")
    assert main(["trace", "--diff", str(good), str(tmp_path / "missing")]) == 1
    assert "missing" in capsys.readouterr().err
