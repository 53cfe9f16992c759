"""The mutant list of tests/mutants.py stays applicable to the source it mutates."""

from mutants import MUTANTS, ROOT


def test_each_mutant_names_a_string_found_once_in_its_file():
    # a source edit that strands a mutant fails here, not only in the minutes-long probe
    counts = {m.name: (ROOT / "src" / "dairypv" / m.file).read_text().count(m.old)
              for m in MUTANTS}
    assert len(counts) == len(MUTANTS)  # names are unique
    assert {name: count for name, count in counts.items() if count != 1} == {}
