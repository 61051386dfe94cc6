import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import same_answers  # noqa: E402  (a script, importable from scripts/)


def record(kind, seed, nuclear=2.0, rel_err=0.1, ok=True, digest="d",
           prox_steps=10, capped=False, iter_capped=False, unconverged=False,
           workload="w", equality_residual=0.5, dual_residual=0.25, flags=()):
    return {"workload": workload, "kind": kind, "seed": seed, "pass": 0,
            "valid": True, "ok": ok, "nuclear": nuclear, "rel_err": rel_err,
            "digest": digest, "iterations": prox_steps - 1,
            "prox_steps": prox_steps, "capped": capped,
            "iter_capped": iter_capped, "unconverged": unconverged,
            "objective": nuclear, "equality_residual": equality_residual,
            "dual_residual": dual_residual, "flags": list(flags)}


def block(lines, kind):
    """The lines of one (workload, kind) block, joined."""
    start = next(i for i, line in enumerate(lines) if line.startswith(f"w {kind}: "))
    return "\n".join(lines[start:start + 6])


def group(lines, kind, label):
    """The line of one (workload, kind) block for its ``label`` operations."""
    return next(line for line in block(lines, kind).splitlines()
                if line.split()[0] == label)


def test_parse_seeds_ranges_and_singles():
    assert same_answers.parse_seeds("1-3,424242") == [1, 2, 3, 424242]
    assert same_answers.parse_seeds("5") == [5]


def test_identical_records_are_the_same_answers():
    recs = [record("a", 1), record("a", 2), record("b", 1), record("b", 2)]
    lines, ok = same_answers.compare(recs, [dict(r) for r in recs])
    assert ok
    text = block(lines, "a")
    assert "outcomes differ in 0" in text
    assert "bit-identical in 2/2" in text
    assert "max rel nuclear-norm diff 0;" in text
    assert ("max rel diff objective 0; equality_residual 0; dual_residual 0; "
            "flags differ in 0") in text
    assert "iterations 18 -> 18 (differs in 0)" in text
    assert "prox steps 20 -> 20 (differs in 0)" in text
    assert "converged=False 0 -> 0 (differs in 0)" in text


def test_differences_are_measured_but_only_gates_fail():
    parent = [record("a", 1, nuclear=2.0, rel_err=0.1, prox_steps=100, capped=True,
                     unconverged=True),
              record("a", 2, nuclear=4.0, rel_err=0.2, prox_steps=50)]
    change = [record("a", 1, nuclear=2.0 * (1 + 3e-7), rel_err=0.1 + 5e-5,
                     digest="e", prox_steps=30),
              record("a", 2, nuclear=4.0, rel_err=0.2, prox_steps=20,
                     iter_capped=True, unconverged=True)]
    lines, ok = same_answers.compare(parent, change)
    assert ok
    text = block(lines, "a")
    assert "bit-identical in 1/2" in text
    assert "max rel nuclear-norm diff 3e-07" in text
    assert "max |d rel_err| 5e-05" in text
    assert "objective 3e-07; equality_residual 0; dual_residual 0;" in text
    assert "prox steps 150 -> 50 (differs in 2)" in text
    assert "stage-iteration-cap 1 -> 0" in text
    assert "iteration-cap 0 -> 1" in text.split("stage-iteration-cap 1 -> 0")[1]
    # equal totals on each side still show the two flips
    assert "converged=False 1 -> 1 (differs in 2)" in text


def test_a_changed_gate_outcome_fails():
    parent = [record("a", 1), record("a", 2)]
    change = [record("a", 1), record("a", 2, ok=False)]
    lines, ok = same_answers.compare(parent, change)
    assert not ok
    assert "outcomes differ in 1" in block(lines, "a")
    assert "passed 1/2" in block(lines, "a")


def test_operations_on_one_side_only_fail():
    parent = [record("a", 1), record("a", 2), record("a", 3)]
    change = [record("a", 1), record("a", 2)]
    lines, ok = same_answers.compare(parent, change)
    assert not ok
    assert lines[0].startswith("1 operations ran on one side only")
    assert "outcomes differ in 0" in block(lines, "a")


def test_report_scalars_and_flags_are_compared():
    parent = [record("a", 1, equality_residual=1.0, flags=("iteration-cap",)),
              record("a", 2, dual_residual=0.0)]
    change = [record("a", 1, equality_residual=1.0 + 2e-15),
              record("a", 2, dual_residual=1e-9)]
    lines, ok = same_answers.compare(parent, change)
    assert ok   # report differences are measured, not gated
    text = block(lines, "a")
    assert "equality_residual 2e-15;" in text
    assert "dual_residual inf;" in text
    assert "flags differ in 1" in text


def test_identical_and_changed_estimates_are_reported_apart():
    # one changed estimate with a large report difference must not hide
    # that the bit-identical operations differ only by rounding
    parent = [record("a", 1, rel_err=0.1, dual_residual=1.0),
              record("a", 2, rel_err=0.097, dual_residual=1.0),
              record("a", 3, rel_err=0.2, dual_residual=1.0)]
    change = [record("a", 1, rel_err=0.1, dual_residual=1.0 + 2e-15),
              record("a", 2, rel_err=0.007, digest="e", dual_residual=0.5),
              record("a", 3, rel_err=0.2, dual_residual=1.0)]
    for recs in (parent, change):
        recs.append(record("b", 1))
    lines, ok = same_answers.compare(parent, change)
    assert ok
    assert "bit-identical in 2/3" in block(lines, "a")
    same, changed = group(lines, "a", "identical"), group(lines, "a", "changed")
    assert same.startswith("    identical  2: max rel nuclear-norm diff 0;")
    assert "max |d rel_err| 0;" in same and "max rel_err 0.2 -> 0.2;" in same
    assert "dual_residual 2e-15;" in same
    assert changed.startswith("    changed    1:")
    assert "max |d rel_err| 0.09;" in changed
    assert "max rel_err 0.097 -> 0.007;" in changed
    assert "dual_residual 0.5;" in changed
    # a kind whose estimates are all bit-identical has no changed line to read
    assert group(lines, "b", "changed") == "    changed    0"


def test_per_operation_work_differences_are_counted():
    # +1 in one operation and -1 in another sum the same, but both differ
    parent = [record("a", 1, prox_steps=10), record("a", 2, prox_steps=20),
              record("a", 3, prox_steps=30)]
    change = [record("a", 1, prox_steps=11), record("a", 2, prox_steps=19),
              record("a", 3, prox_steps=30)]
    change[2]["iterations"] += 2    # iterations move without the prox steps
    lines, ok = same_answers.compare(parent, change)
    assert ok
    text = block(lines, "a")
    assert "iterations 57 -> 59 (differs in 3)" in text
    assert "prox steps 60 -> 60 (differs in 2)" in text
