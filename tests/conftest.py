"""Fixtures shared by the test modules."""

import json
import os

import pytest

from reviewstream.cli import EXIT_OK, main

SPEC = {
    "n_apps": 10,
    "n_reviewers": 200,
    "ticks": 15,
    "background_rate": 1.5,
    "seed": 21,
    "injections": [
        {"app_id": "a003", "tick": 12, "n_edges": 60,
         "n_reviewers_used": 4, "score_mode": "boost"},
    ],
}


@pytest.fixture
def synth_files(tmp_path):
    """The stream of ``SPEC`` as files: (reviews, truth, catalog)."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    reviews = tmp_path / "reviews.jsonl"
    truth = tmp_path / "truth.jsonl"
    catalog = tmp_path / "apps.csv"
    code = main([
        "synth", "--spec", str(spec_path), "--out", str(reviews),
        "--truth", str(truth), "--catalog", str(catalog),
    ])
    assert code == EXIT_OK
    return reviews, truth, catalog


@pytest.fixture(autouse=True)
def no_child_process_left():
    """No test leaves a child process behind, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
