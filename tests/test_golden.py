"""Golden CLI reports: each command's whole report and exit code.

Each command of COMMANDS runs in process through `cli.main`, in a folder
holding a copy of `golden/inputs/`, so its report names relative files.
Its report, less `timing_seconds` and `version`, and its exit code must
equal `golden/<name>.json`.  A change that means to change a report
re-records only that file, and says which and why:

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

With no NAME every golden is re-recorded.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from chaincodes.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

CONSTRUCT_T6 = ("construct", "superregular", "--matrix", "t6_z11.json",
                "--n", "3", "--k", "1", "--L", "1")
BINOMIAL_731 = ("construct", "binomial", "--n", "3", "--k", "1",
                "--delta", "1", "--p", "7")

# name: (argv, the input file read as standard input or None)
COMMANDS = {
    # the README's commands
    "ring-gr-11-2-5": (("ring", "--ring", "gr(11,2,5)"), None),
    "construct-binomial": (BINOMIAL_731, None),
    "construct-superregular-z121": ((*CONSTRUCT_T6, "--ring", "z121"),
                                    None),
    "check-mdp-both": (("check", "mdp", "--code", "code.json", "--method",
                        "both"), None),
    "check-reverse-mdp-stdin": (("check", "reverse-mdp", "--code", "-"),
                                "code.json"),
    "distances": (("distances", "--code", "code.json", "--max-j", "1"),
                  None),
    "bounds": (("bounds", "--n", "3", "--k", "2", "--delta", "2", "--nu",
                "2"), None),
    "blockcode-standard-form": (("blockcode", "standard-form", "--matrix",
                                 "m.json"), None),
    "search-random-z11": (("search", "superregular", "--ell", "3", "--ring",
                           "z11", "--strategy", "random", "--seed", "1",
                           "--budget", "60", "--reverse"), None),
    # the benchmark's cli-session, with a fixed seed; `ring gr(11,2,5)`
    # and `bounds` are the README's
    "session-ring-tp-4-2": (("ring", "--ring", "tp(4,2)"), None),
    "session-construct-superregular": (
        ("construct", "superregular", "--matrix", "-", "--n", "3", "--k",
         "1", "--L", "1", "--ring", "z121"), "t6_z11.json"),
    "session-check-mdp": (("check", "mdp", "--code", "-", "--method",
                           "both"), "code.json"),
    "session-blockcode-mindist": (("blockcode", "mindist", "--matrix", "-"),
                                  "m.json"),
    "session-check-reverse-mdp": (("check", "reverse-mdp", "--code", "-",
                                   "--method", "both"), "code.json"),
    "session-construct-binomial-z49": ((*BINOMIAL_731, "--ring", "z49"),
                                       None),
    "session-distances": (("distances", "--code", "-", "--max-j", "1"),
                          "code.json"),
    "session-blockcode-standard-form": (("blockcode", "standard-form",
                                         "--matrix", "-"), "m.json"),
    "session-search": (("search", "superregular", "--ell", "5", "--ring",
                        "z13", "--strategy", "random", "--seed", "1",
                        "--budget", "200", "--reverse", "--max-hits",
                        "200"), None),
    # each construct kind with and without --ring (lift requires it)
    "construct-lift-z121": (("construct", "lift", "--field-code",
                             "field311.json", "--ring", "z121"), None),
    "construct-lift-without-ring": (("construct", "lift", "--field-code",
                                     "field311.json"), None),
    "construct-superregular": (CONSTRUCT_T6, None),
    # the other checks and reports, and the warning paths
    "check-gamma-basis": (("check", "gamma-basis", "--code", "code.json"),
                          None),
    "check-delay-free": (("check", "delay-free", "--code", "code.json"),
                         None),
    "check-reduced": (("check", "reduced", "--code", "code.json"), None),
    "check-delay-free-fails": (("check", "delay-free", "--code",
                                "z4_not_delay_free.json"), None),
    "blockcode-shape": (("blockcode", "shape", "--matrix", "m.json"), None),
    "blockcode-params": (("blockcode", "params", "--matrix", "m.json"),
                         None),
    "distances-nu-not-dividing-k": (("distances", "--code", "z4_k1.json",
                                     "--max-j", "3"), None),
    "search-exhaustive-max-hits": (("search", "superregular", "--ell", "3",
                                    "--ring", "z11", "--max-hits", "2"),
                                   None),
    # a field encoder whose rows are dependent, given to construct lift
    "construct-lift-dependent-f7": (("construct", "lift", "--field-code",
                                     "f7_dependent.json", "--ring", "z49"),
                                    None),
    # a 1 x 2 coefficient, then a 3 x 1 zero block, and no k or n
    "check-mdp-trailing-zero-block": (("check", "mdp", "--code",
                                       "z5_trailing_block.json"), None),
    # one of each refusal
    "usage-error": (("--threads", "4", "ring", "--ring", "z8"), None),
    "invalid-params": (("ring", "--ring", "garbage"), None),
    "invalid-params-residue-field": ((*BINOMIAL_731, "--ring", "z5"), None),
    "invalid-params-lift-nu-above-1": (("construct", "lift", "--field-code",
                                        "code.json", "--ring", "z1331"),
                                       None),
    "budget-exceeded": (("search", "superregular", "--ell", "3", "--ring",
                         "z11", "--budget", "10"), None),
    "code-load-error": (("check", "mdp", "--code", "f7_dependent.json"),
                        None),
    "not-reduced": (("construct", "lift", "--field-code",
                     "f7_not_reduced.json", "--ring", "z49"), None),
    "precondition-violated": (("check", "mdp", "--code",
                               "z4_not_delay_free.json"), None),
    "not-superregular": (("construct", "superregular", "--matrix",
                          "t6_z11_not_superregular.json", "--n", "3", "--k",
                          "1", "--L", "1"), None),
    "rejected-modulus": (("ring", "--ring", '{"family": "galois", "p": 3, '
                          '"r": 1, "s": 2, "modulus": []}'), None),
    "json-decode-error": (("ring", "--ring",
                           '{"family": "truncated", "q": 4, "nu": }'), None),
    "missing-file": (("check", "mdp", "--code", "missing.json"), None),
}


def run_command(name, monkeypatch, folder):
    """{"exit_code", "report"} of COMMANDS[name] run in `folder`, which
    gets a copy of the inputs; the report less its timing and version."""
    argv, stdin = COMMANDS[name]
    shutil.copytree(INPUTS, folder, dirs_exist_ok=True)
    monkeypatch.chdir(folder)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            (INPUTS / stdin).read_text()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        exit_code = main(list(argv))
    report = json.loads(out.getvalue())
    del report["timing_seconds"], report["version"]
    return {"exit_code": exit_code, "report": report}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_its_golden(name, monkeypatch, tmp_path):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert run_command(name, monkeypatch, tmp_path) == golden


def test_every_golden_has_its_command():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == \
        sorted(COMMANDS)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as folder, \
                pytest.MonkeyPatch.context() as mp:
            recorded = run_command(name, mp, folder)
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(recorded, indent=2) + "\n")
