"""The working set: a training step frees each op's buffers as backward
passes it, and evaluation runs in the training batch size, so neither
builds more than the step's own memory. Peaks are numpy's allocations as
tracemalloc sees them, measured on the benchmark's 12-24-48 teacher at
batch 32 and 16x16 inputs."""

import platform
import resource
import statistics
import sys
import tracemalloc

import numpy as np
import pytest

import cdkd.train
from cdkd.data import iterate_batches, make_synthetic, normalize
from cdkd.gradcheck import composite_grad_reports
from cdkd.losses import ce_loss
from cdkd.models import NetworkSpec, build_network, forward_with_taps
from cdkd.optim import LrSchedule, SgdConfig
from cdkd.tensor import Tensor, backward, no_grad
from cdkd.train import evaluate, train_teacher

TEACHER = NetworkSpec.from_channels([12, 24, 48], num_classes=8)
BATCH = 32


@pytest.fixture(scope="module")
def val():
    return make_synthetic(8, 100, 16, seed=0, split="val")     # 800 rows


@pytest.fixture(scope="module")
def trained(tmp_path_factory, val):
    """A 12-24-48 teacher after two epochs on 320 rows, and its stats."""
    train = make_synthetic(8, 40, 16, seed=0, split="train")
    res = train_teacher(TEACHER, train, val, SgdConfig(lr0=0.02), LrSchedule((10,), 0.2),
                        epochs=2, seed=1, out_dir=tmp_path_factory.mktemp("teacher"),
                        batch_size=BATCH)
    net, records = cdkd.train.load_model_checkpoint(res.final_ckpt)
    return net, records["normalize"].means, records["normalize"].stds


def step_memory(val):
    """(bytes held after the forward, peak bytes of forward + backward) of
    one CE step of a fresh 12-24-48 net at batch 32."""
    net = build_network(TEACHER, seed=0)
    x = Tensor(val.images[:BATCH])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits, _ = forward_with_taps(net, x)
        loss = ce_loss(logits, val.labels[:BATCH])
        held = tracemalloc.get_traced_memory()[0] - base
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return held, peak


def test_evaluation_batch_size_moves_no_bit(trained, val):
    """Each row's logits are the same bits at batch 32 as at batch 256, so
    evaluating in the run's batch size gives the same Metrics."""
    net, means, stds = trained
    m, s = np.asarray(means, np.float32), np.asarray(stds, np.float32)

    def logits(batch_size):
        with no_grad():
            return np.concatenate([
                forward_with_taps(net, Tensor(normalize(imgs, m, s)))[0].data
                for _, imgs, _ in iterate_batches(val, batch_size)])

    small, large = logits(BATCH), logits(256)
    assert small.shape == (800, 8)
    for row in range(len(val)):
        assert small[row].tobytes() == large[row].tobytes(), row
    assert evaluate(net, val, means, stds, BATCH) == evaluate(net, val, means, stds, 256)


def test_backward_frees_the_step_as_it_goes(val):
    """With each conv's columns released once its kernel gradient is made,
    the step peaks 11% above what its forward holds (66% when backward kept
    every buffer to the end)."""
    held, peak = step_memory(val)
    assert peak < 1.25 * held, (held, peak)


def test_evaluation_peaks_below_a_training_step(tmp_path, val, monkeypatch):
    """Evaluation as the fit loop runs it, on 800 rows, allocates no more
    than one training step of the same net (at batch 256 it took 2.7x)."""
    _, step_peak = step_memory(val)
    peaks = []
    real = cdkd.train.evaluate

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return real(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cdkd.train, "evaluate", measured)
    train = make_synthetic(8, 4, 16, seed=0, split="train")
    train_teacher(TEACHER, train, val, SgdConfig(lr0=0.02), LrSchedule((10,), 0.2),
                  epochs=1, seed=1, out_dir=tmp_path, batch_size=BATCH)
    assert len(peaks) == 1 and peaks[0] <= step_peak, (peaks, step_peak)


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="measures glibc's heap trimming through Linux page-fault counts")
def test_teacher_steps_fault_no_pages_back_in(tmp_path, val, monkeypatch):
    """The benchmark's teacher workload for two epochs: after the first, a
    step takes (in the median) no minor page faults. Freed before backward,
    the student taps let glibc trim the heap top after each step, and the
    next step faults ~3,430 pages back in."""
    faults = []
    real = cdkd.train.backward

    def counted(loss):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return real(loss)

    monkeypatch.setattr(cdkd.train, "backward", counted)
    train = make_synthetic(8, 200, 16, seed=0, split="train")     # 50 steps an epoch
    train_teacher(TEACHER, train, val, SgdConfig(lr0=0.02, momentum=0.9, weight_decay=5e-4),
                  LrSchedule((12,), 0.2), epochs=2, seed=1, out_dir=tmp_path,
                  batch_size=BATCH)
    assert len(faults) == 100
    deltas = [b - a for a, b in zip(faults[50:], faults[51:])]
    assert statistics.median(deltas) < 100, deltas


def test_composite_gradcheck_runs_the_training_objective(monkeypatch):
    """The full-objective finite-difference check differentiates the
    objective the fit loop trains on: its CD and GKD terms are the ones
    ``train`` looks up."""
    calls = []

    def spy(name):
        real = getattr(cdkd.train, name)

        def called(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return called

    for name in ("cd_loss", "gkd_loss"):
        monkeypatch.setattr(cdkd.train, name, spy(name))
    reports = composite_grad_reports(0)
    assert all(r.passed for r in reports)
    assert calls.count("cd_loss") == calls.count("gkd_loss") > 0
