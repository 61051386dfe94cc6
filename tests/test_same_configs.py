import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import same_configs  # noqa: E402  (a script, importable from scripts/)

CSV = "n,r,m,success_rate,seconds\n10,1,60,{rate},{seconds}\n"


def write_run(out_dir, rate=1.0, seconds=0.5, rel_err=1e-7, optspace=None, nonconv=0):
    """A synthetic bench output directory: one cell of two trials, one
    trial record; ``nonconv`` of the trials that did not succeed did not
    converge."""
    out_dir.mkdir(parents=True)
    (out_dir / "phase-transition.csv").write_text(CSV.format(rate=rate, seconds=seconds))
    successes = round(2 * rate)
    payload = {
        "config": {"trials": 1, "optspace": optspace or {"max_iters": 500},
                   "cells": [{"n": 10}]},
        "cells": [{"n": 10, "success_rate": rate, "successes": successes,
                   "failures": 2 - successes - nonconv, "non_convergences": nonconv,
                   "seconds": seconds}],
        "trials": [[{"rel_err": rel_err, "seconds": seconds}]],
    }
    (out_dir / "phase-transition.json").write_text(json.dumps(payload))
    return same_configs.load_outputs(out_dir)


def test_timing_is_ignored_and_identical_runs_agree(tmp_path):
    a = write_run(tmp_path / "a", seconds=0.5)
    b = write_run(tmp_path / "b", seconds=9.0)
    assert "seconds" not in a["csv"][0] and "seconds" not in a["cells"][0]
    assert same_configs.compare((0, a), (0, b)) == ([], [])


def test_result_and_exit_code_differences_are_reported(tmp_path):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", rate=0.5)
    c = write_run(tmp_path / "c", rel_err=2e-7)
    assert same_configs.compare((0, a), (0, b))[0] == ["csv differ", "cells differ"]
    assert same_configs.compare((0, a), (0, c))[0] == ["trials differ"]
    assert same_configs.compare((0, a), (1, a))[0] == ["exit code 0 -> 1"]


def test_gates_separate_rounding_from_count_differences(tmp_path):
    a = write_run(tmp_path / "a")
    rounding = write_run(tmp_path / "b", rel_err=1e-7 * (1 + 1e-12))
    assert same_configs.compare((0, a), (0, rounding))[0] == ["trials differ"]
    assert same_configs.gates((0, a), (0, rounding)) == "same"
    counts = write_run(tmp_path / "c", rate=0.5)
    assert same_configs.gates((0, a), (0, counts)) == "differ"
    assert same_configs.gates((0, a), (1, a)) == "differ"
    assert same_configs.gates((2, {}), (2, {})) == "same"


def test_successes_separate_convergence_moves_from_success_moves(tmp_path):
    # one trial moves from non-converged to a converged failure, with the
    # same successes in every cell (phase_transition in CONFIGS_18.json)
    parent = (1, write_run(tmp_path / "a", rate=0.5, nonconv=1))
    change = (1, write_run(tmp_path / "b", rate=0.5))
    assert same_configs.gates(parent, change) == "differ"
    assert same_configs.gates(parent, change, ("successes",)) == "same"
    fewer = (1, write_run(tmp_path / "c", rate=0.0))
    assert same_configs.gates(change, fewer, ("successes",)) == "differ"
    assert same_configs.gates(change, (0, change[1]), ("successes",)) == "differ"


def test_config_echo_differences_are_notes(tmp_path):
    a = write_run(tmp_path / "a", optspace={"max_iters": 500, "ls_shrink": 0.5})
    b = write_run(tmp_path / "b", optspace={"max_iters": 500})
    diffs, echo = same_configs.compare((0, a), (0, b))
    assert diffs == []
    assert echo == ["optspace.ls_shrink"]


def test_a_run_that_wrote_nothing(tmp_path):
    nothing = same_configs.load_outputs(tmp_path / "missing")
    assert nothing == {}
    assert same_configs.compare((2, nothing), (2, nothing)) == ([], [])
    diffs, _ = same_configs.compare((2, nothing), (0, write_run(tmp_path / "a")))
    assert diffs == ["exit code 2 -> 0", "csv differ", "cells differ", "trials differ"]


def test_out_writes_a_ledger_of_wall_times_and_verdicts(tmp_path, monkeypatch):
    # both trees stubbed: the parent side of the second config reports a
    # lower success rate, so that config differs and the run exits 1
    def fake_run(tree, config, out_dir, jobs):
        side_is_parent = tree != same_configs.ROOT
        rate = 0.5 if side_is_parent and config.name == "b.cfg" else 1.0
        write_run(out_dir, rate=rate)
        return 0, 2.0 if side_is_parent else 1.0

    monkeypatch.setattr(same_configs, "extract", lambda rev, dest: "f" * 40)
    monkeypatch.setattr(same_configs, "run_bench", fake_run)
    out = tmp_path / "CONFIGS.json"
    code = same_configs.main(["--jobs", "2", "--out", str(out),
                              str(tmp_path / "a.cfg"), str(tmp_path / "b.cfg")])
    ledger = json.loads(out.read_text())
    assert code == 1
    assert ledger["parent"] == "f" * 40 and ledger["jobs"] == 2
    assert [c["config"] for c in ledger["configs"]] == ["a.cfg", "b.cfg"]
    assert [c["verdict"] for c in ledger["configs"]] == ["identical", "differ"]
    assert [c["gates"] for c in ledger["configs"]] == ["same", "differ"]
    assert [c["successes"] for c in ledger["configs"]] == ["same", "differ"]
    assert ledger["configs"][1]["differences"] == ["csv differ", "cells differ"]
    assert all(c["wall_s"] == {"parent": 2.0, "change": 1.0} for c in ledger["configs"])
    assert all(c["exit"] == {"parent": 0, "change": 0} for c in ledger["configs"])
