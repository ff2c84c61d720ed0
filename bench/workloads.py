"""The benchmark's workloads.

A workload is a list of ``codebounds`` command lines, run in order by one
fresh interpreter; command ``i`` runs in its own directory ``cNN`` of the
iteration's work directory, so every file it writes is attributed to it.
``inputs`` are copied from the checkout into ``inputs/`` before timing
starts.  The paper instances are fixed, so the seed changes nothing.
Why each workload was chosen is in NOTES.md.
"""
from __future__ import annotations

WORKLOADS = {
    "enum-k15-t2": {
        "inputs": {},
        "commands": [
            ["enumerate", "5", "7", "6", "15", "--threads", "2", "--out", "."],
        ],
    },
    "verify-a4": {
        "inputs": {"gh8_klein4.gh": "src/codebounds/data/gh8_klein4.gh"},
        "commands": [
            ["bound", "5", "8", "6"],
            ["bound", "4", "11", "8"],
            ["net", "gh-expand", "../inputs/gh8_klein4.gh", "--out", "gh8_klein4.net"],
            ["net", "check", "../c02/gh8_klein4.net"],
            ["net", "to-code", "../c02/gh8_klein4.net", "--out", "gh8_klein4.code"],
            ["verify", "a3_16_11", "--threads", "1", "--out", "."],
            ["verify", "divisibility_family", "--threads", "1", "--out", "."],
            ["verify", "a4_9_6", "--threads", "1", "--out", "."],
        ],
    },
}
