"""Golden CLI reports: stdout bytes and exit codes pinned against captures.

Each case in ``golden/cases.json`` names an argv and the exit code it must
return; ``golden/<name>.out`` holds the exact stdout.  To recapture after
an intended change of the report format, run

    PYTHONPATH=src python tests/test_golden_cli.py --update

and review the diff of ``tests/golden/``.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hakensum.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _argv(case):
    # Scenario paths in the manifest are relative to the golden directory.
    return [str(GOLDEN / a) if a.endswith(".json") else a
            for a in case["argv"]]


def _run(case):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(_argv(case))
    return code, buf.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_capture(case):
    code, out = _run(case)
    assert code == case["exit"]
    capture = GOLDEN / (case["name"] + ".out")
    assert out == capture.read_text(encoding="utf-8")


# Every JSON golden case, and two long reports too large to capture: a
# resolve with 1,002 components in runs and a 201-row sweep.
ROUND_TRIP = [pytest.param(_argv(c), id=c["name"])
              for c in CASES if "json" in c["argv"]] + [
    pytest.param(["resolve", "--scenario", str(GOLDEN / "seeded_6538.json"),
                  "--n", "1000", "--format", "json"],
                 id="resolve-seeded-6538-n1000-json"),
    pytest.param(["sweep", "--scenario", "doubled-handlebody", "--from", "0",
                  "--to", "200", "--format", "json"],
                 id="sweep-doubled-handlebody-0-200-json"),
]


@pytest.mark.parametrize("argv", ROUND_TRIP)
def test_json_report_is_the_indented_encoding(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv)
    out = buf.getvalue()
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    for case in CASES:
        code, out = _run(case)
        case["exit"] = code
        (GOLDEN / (case["name"] + ".out")).write_text(out, encoding="utf-8")
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n",
                                     encoding="utf-8")
