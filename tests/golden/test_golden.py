"""Every result recorded in golden.json is reproduced exactly, and no call prints a raw warning it did not print then."""

import json

import golden_corpus as corpus

RECORDED = json.loads(corpus.GOLDEN.read_text(encoding="utf-8"))


def _differences(recorded: list[dict], current: list[dict]) -> list[str]:
    """Entries whose results differ, or whose raw warnings are not among those recorded."""
    assert len(current) == len(recorded)
    bad = []
    for k, (old, new) in enumerate(zip(recorded, current)):
        old_warnings, new_warnings = set(old.get("raw_warnings", ())), set(new.pop("raw_warnings", ()))
        old = {key: value for key, value in old.items() if key != "raw_warnings"}
        if new != old:
            changed = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
            bad.append(f"entry {k}: {changed} differ: {[old.get(key) for key in changed]} -> {[new.get(key) for key in changed]}")
        elif not new_warnings <= old_warnings:
            bad.append(f"entry {k}: new raw warnings {sorted(new_warnings - old_warnings)}")
    return bad


def test_the_corpus_is_small():
    assert corpus.GOLDEN.stat().st_size <= 1_000_000
    assert len(RECORDED["library"]) >= 1000  # at least 500 matrices at each zero_tol


def test_library_results_are_unchanged():
    current = [corpus.library_entry(M, zt) for M in corpus.corpus_matrices() for zt in corpus.ZERO_TOLS]
    bad = _differences(RECORDED["library"], current)
    assert not bad, "\n".join(bad[:10])


def test_kernel_results_are_unchanged():
    current = [corpus.kernel_entry(*case) for case in corpus.kernel_cases()]
    bad = _differences(RECORDED["kernels"], current)
    assert not bad, "\n".join(bad[:10])


def test_cli_output_is_unchanged():
    with corpus.cli_directory():
        current = [corpus.cli_entry(argv) for argv in corpus.cli_cases()]
    bad = _differences(RECORDED["cli"], current)
    assert not bad, "\n".join(bad[:10])

