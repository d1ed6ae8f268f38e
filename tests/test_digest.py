"""A fixed subset of `scripts/digest.py`'s byte-identity corpus reproduces its
committed output digests and engine counts: every MAC under ARQ and Seda past
a battery depletion, `fixed_contention` runs, runs without a Synch slot, IAMAC
Super Frames of several Time Frames, the fixtures, all six transfers, the
saturated star, with 10 s frames and with 30 s frames under Seda, the `desk` seed-4 runs of every MAC and recovery, and the
routing bootstrap trees.

The CLI's own files are pinned in `tests/test_harness.py` instead
(`PINNED_ANALYTICS_CSV` and the `tree.txt` and `trace.txt` hashes): a corpus
digest covers what a run computes, never the files the CLI writes from it."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"
DEATHS = [f"desk-deaths-{p}-{r}@1" for p in ("iamac", "smac", "adaptive-smac")
          for r in ("arq", "seda")]
SUBSET = DEATHS + [
    "fig6", "contention-iamac", "contention-smac", "contention-adaptive-smac",
    "desk-nosynch-iamac-arq@1", "desk-nosynch-smac-seda@1", "desk-nosynch-adaptive-smac-arq@1",
    "fig2-iamac", "fig2-adaptive-smac",
    "star-iamac-seda@1", "desk-preset-iamac-seda@1", "desk-payload400-smac-arq@1",
    # Seda transfers that wait for a later Time Frame's window
    "star-frame30-iamac-seda@1",
    # IAMAC Super Frames of three Time Frames: the mid-cycle Synch slots
    "desk-frame30-iamac-arq@1", "desk-frame30-iamac-seda@1",
    "desk60-frame20-iamac-arq@4", "desk120-iamac-arq@4", "desk120-iamac-seda@4",
    "bootstrap-paper@1", "bootstrap-paper@3", "bootstrap-desk@4", "bootstrap-desk-cap3@4",
] + [f"transfer-{r}-{ber}" for r in ("arq", "seda") for ber in ("0", "0.0001", "0.001")] + [
    f"desk60-{p}-{r}@4" for p in ("iamac", "smac", "adaptive-smac") for r in ("arq", "seda")]


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recorded(digest):
    return json.loads(digest.DIGESTS.read_text())


@pytest.mark.parametrize("name", SUBSET)
def test_run_reproduces_its_recorded_digest(digest, recorded, name):
    entry, result = digest.run(name)
    assert entry["outputs"] == recorded[name]["outputs"]
    assert entry["engine"] == recorded[name]["engine"]
    if name in DEATHS:
        # the run went on past a node's `_deplete`
        assert not result["lifetime_censored"] and result["conserved"]


def test_corpus_names_match_the_recorded_file(digest, recorded):
    assert sorted(digest.corpus()) == sorted(recorded)
