"""The report of `tests/output_identity.py` on outputs that print
several JSON documents one after another."""

import json

from output_identity import MAX_PATHS, _json_report


def _docs(*docs) -> str:
    return "\n".join(json.dumps(doc, indent=2) for doc in docs)


def test_report_names_each_differing_document():
    # Docs 1 and 3 of three differ.  Doc 3 moves 31 paths, one of them a
    # count, past the cap of listed paths; that cap is per document, so
    # it hides neither document.
    parent = _docs({"p": 0.25, "n": 7}, {"p": 0.5},
                   {"series": [float(k) for k in range(30)], "counts": 90332})
    change = _docs({"p": 0.25 + 1e-12, "n": 7}, {"p": 0.5},
                   {"series": [k + 0.5 for k in range(30)], "counts": 90333})
    lines = _json_report(parent, change)
    heads = [line for line in lines if line.lstrip().startswith("doc ")]
    assert heads == [
        "    doc 1: 1 paths differ, 0 integer leaves;"
        " largest difference 1e-12 absolute, 4e-12 relative",
        "    doc 3: 31 paths differ, 1 integer leaves;"
        " largest difference 1 absolute, 1 relative",
    ]
    doc3 = lines[lines.index(heads[1]) + 1:]
    assert doc3[:MAX_PATHS] == [f"      /series/{k}: {float(k)!r} -> {k + 0.5!r}"
                                for k in range(MAX_PATHS)]
    assert doc3[MAX_PATHS:] == [f"      ... and {31 - MAX_PATHS} more paths"]
    assert lines[1] == f"      /p: 0.25 -> {0.25 + 1e-12!r}"
    assert _json_report(parent, parent) == []
    assert _json_report("error: bad\n", "error: worse\n") == []
