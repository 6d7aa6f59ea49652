from refalign import tensor as T
from refalign.gradcheck import (CHECKS, TOLERANCE, corrupted_backward_error,
                                format_report, run_checks,
                                stop_gradient_contracts)


def test_full_suite_passes():
    results = run_checks(trials=2, seed=0)
    assert len(results) == len(CHECKS)
    assert all(r.passed for r in results), format_report(results)
    assert max(r.max_err for r in results) < TOLERANCE


def test_name_filter():
    results = run_checks(trials=1, names=["matmul", "row_softmax"])
    assert sorted(r.name for r in results) == ["matmul", "row_softmax"]


def test_detached_losses_have_bitwise_zero_gradients():
    results = stop_gradient_contracts(trials=3)
    names = {r.name for r in results}
    assert names == {"fuse_loss_detaches_features",
                     "guide_loss_detaches_bank"}
    for r in results:
        assert r.max_err == 0.0
        assert r.passed


def test_negative_control_catches_a_broken_rule():
    # a deliberately corrupted vjp must land far above tolerance
    assert corrupted_backward_error(seed=0) > 0.1


def test_report_formatting():
    results = run_checks(trials=1, names=["log"])
    text = format_report(results)
    assert "log" in text and "ok" in text
    failing = run_checks(trials=1, names=["log"], tolerance=0.0)
    assert "FAIL" in format_report(failing)


def test_every_op_has_a_check(monkeypatch):
    # every differentiable op the tensor module exports must build a node
    # somewhere in the suite, so each one is finite-difference checked
    not_ops = {"parameter", "backward", "stop_gradient", "lr_at",
               "finite_difference_check"}
    ops = {name for name in T.__all__ if name[0].islower() and name not in not_ops}
    seen = set()
    build = T.Tensor._result.__func__

    def recording(cls, op, data, parents, vjps):
        seen.add(op)
        return build(cls, op, data, parents, vjps)

    monkeypatch.setattr(T.Tensor, "_result", classmethod(recording))
    run_checks(trials=1)
    assert ops <= seen, f"ops without a gradcheck entry: {sorted(ops - seen)}"
