"""The mutation census's survivor file (`scripts/mutants.json`) stays current
with the source: every survivor it lists still names a mutant that
`scripts/mutants.py` finds in the modules as they are, so a change to a
surviving site's source text fails here rather than leaving the file stale,
and every survivor carries a kind and a reason. No mutant runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_survivor_names_a_current_mutant_and_has_a_kind(mutants):
    recorded = json.loads(mutants.SURVIVORS.read_text())
    assert recorded["modules"] == list(mutants.MODULES)
    current = {mutants.key_id(key) for key, _, _ in mutants.mutants()}
    survivors = recorded["survivors"]
    assert [s for s in survivors if mutants.key_id(s) not in current] == []
    assert [s for s in survivors if s["kind"] not in mutants.KINDS or not s["why"]] == []
    assert len({mutants.key_id(s) for s in survivors}) == len(survivors)


def test_only_lists_the_mutants_of_the_named_functions(mutants, capsys):
    """`list --only` prints, in order, exactly the mutants whose enclosing
    function it names, and refuses a name that encloses none."""
    only = ["Simulation.inject", "seda_capacity"]
    assert mutants.main(["list", "--only", *only]) == 0
    printed = capsys.readouterr().out.splitlines()
    want = [key for key, _, _ in mutants.mutants() if key["where"] in only]
    assert {key["where"] for key in want} == set(only)
    assert printed == [f"{key['module']} {key['where']} `{key['text']}` {key['mutation']}"
                       for key in want]
    with pytest.raises(SystemExit):
        mutants.main(["list", "--only", "Simulation.no_such_function"])
