"""The mutation catalog of `tests/mutants.py` stays attached to the code.

Each mutant's source text occurs exactly once in its module, so a refactor
that moves or rewrites the code must move or rewrite its mutants, and each
test the catalog names is still defined.  Running the mutants is
`python tests/mutants.py`, a separate CI step.
"""

import re

from mutants import MUTANTS, PACKAGE, ROOT


def test_the_catalog_mutates_every_module():
    assert {module for module, *_ in MUTANTS} == {path.stem for path in PACKAGE.glob("*.py")}
    assert all(text != replacement for _, text, replacement, *_ in MUTANTS)


def test_each_source_text_occurs_once_in_its_module():
    counts = [
        (index, module, (PACKAGE / f"{module}.py").read_text().count(text))
        for index, (module, text, *_) in enumerate(MUTANTS)
    ]
    assert [entry for entry in counts if entry[2] != 1] == []


def test_each_named_test_is_defined():
    missing = []
    for *_, tests, _ in MUTANTS:
        assert tests
        for test in tests:
            path, name = test.split("::")
            name = re.sub(r"\[.*", "", name)
            if f"\ndef {name}(" not in (ROOT / path).read_text():
                missing.append(test)
    assert missing == []
