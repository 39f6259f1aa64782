"""The sampled-suite driver, ``CheckReport.sample``, and the draw stream of
the seven suites that run through it."""

import hashlib
import random

import pytest

import tcdo
from tcdo import modespace, p1tcdo
from tcdo.affine import check_affine_relations, check_sugawara_centrality
from tcdo.modespace import GEN_A, engine_property_suite
from tcdo.p1tcdo import check_gluing_morphism, check_involution
from tcdo.reports import CheckReport

from references import ref_check_gluing_morphism, ref_check_involution, ref_engine_property_suite

VACUOUS = "samples=0: vacuous pass"


def _sampled_reports(samples, seed):
    return [
        *engine_property_suite(samples, seed),
        check_gluing_morphism(None, samples, seed),
        check_gluing_morphism(3, samples, seed),
        check_affine_relations(samples, seed),
        check_sugawara_centrality(samples, seed),
    ]


def _never():
    raise AssertionError("describe called on a passing trial")


def test_sample_counts_every_trial_and_describes_only_the_failures():
    def trial(rng, i):
        draw = rng.random()
        return (False, lambda: f"sample {i}: {draw}") if i == 3 else (True, _never)

    rep = CheckReport("driver", details={"samples": 7})
    assert rep.sample(random.Random(5), 7, trial) is rep
    draws = random.Random(5)
    want = [draws.random() for _ in range(7)][3]
    assert rep.checks == 7
    assert rep.failures == [f"sample 3: {want}"]
    assert rep.details == {"samples": 7}


def test_zero_samples_runs_no_trial_and_flags_a_vacuous_pass():
    rep = CheckReport("driver", details={"samples": 0}).sample(random.Random(5), 0, lambda rng, i: _never())
    assert (rep.checks, rep.failures, rep.details) == (0, [], {"samples": 0, "warning": VACUOUS})


def test_zero_samples_flags_each_sampled_report_with_the_one_warning():
    reports = _sampled_reports(0, 42)
    assert len({rep.name for rep in reports}) == 7
    for rep in reports:
        assert rep.passed, rep.name
        assert rep.details["warning"] == VACUOUS
        assert list(rep.details)[-1] == "warning"
        # the gluing suite's 18 generator checks are not sampled
        assert rep.checks == (18 if rep.name == "gluing-morphism" else 0)


def test_negative_samples_raise_in_every_sampled_suite(monkeypatch):
    for run in (
        lambda: engine_property_suite(-3, 1),
        lambda: check_gluing_morphism(None, samples=-2),
        lambda: check_affine_relations(-1),
        lambda: check_sugawara_centrality(-1),
    ):
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            run()
    # each suite reaches the driver with its own negative count: let the
    # suites go on past the refusal so that all seven are seen
    refused = []
    sample = CheckReport.sample

    def refuse(self, rng, samples, trial):
        with pytest.raises(ValueError, match=f"{self.name}: samples must be nonnegative, got -1"):
            sample(self, rng, samples, lambda rng, i: _never())
        refused.append(self.name)
        return self

    monkeypatch.setattr(CheckReport, "sample", refuse)
    reports = _sampled_reports(-1, 42)
    assert refused == [rep.name for rep in reports]
    assert len(set(refused)) == 7


# sha256 of repr([(report name, text), ...]) over the text of every check,
# generator and sampled, for seeds 1 and 42 at 20 samples.  Passing payloads
# hold no sample content, so only these texts show a reordered or extra draw
DRAW_STREAM_SHA256 = "7cb6ce720e2a3027fc80f74910cea671302a7d0bf8e42ef3edcfc7bd574e46d8"


def test_the_draw_stream_of_every_sampled_suite_is_pinned(monkeypatch):
    sample = CheckReport.sample

    def record_all(self, ok, describe):
        self.checks += 1
        self.failures.append(describe)

    def fail_all(self, rng, samples, trial):
        return sample(self, rng, samples, lambda rng, i: (False, trial(rng, i)[1]))

    monkeypatch.setattr(CheckReport, "record", record_all)
    monkeypatch.setattr(CheckReport, "sample", fail_all)
    pairs = [(rep.name, text) for seed in (1, 42) for rep in _sampled_reports(20, seed) for text in rep.failures]
    assert len(pairs) == 392
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == DRAW_STREAM_SHA256


# -- the integer core against the state path ------------------------------------
#
# Every sampled trial of engine_property_suite and check_gluing_morphism
# decides on integer dicts; tests/references.py keeps the same trials decided
# on states.  A failure text names its sample, so equal failure lists say the
# two paths failed the same samples; the verdicts are compared one by one too


def _verdicts(monkeypatch, run):
    """(report dicts, [(report name, [ok of each sampled trial]), ...]) of
    ``run()``, read through ``CheckReport.sample``."""
    seen = []
    sample = CheckReport.sample

    def traced(self, rng, samples, trial):
        oks = []
        seen.append((self.name, oks))

        def one(rng, i):
            ok, describe = trial(rng, i)
            oks.append(ok)
            return ok, describe

        return sample(self, rng, samples, one)

    with monkeypatch.context() as patch:
        patch.setattr(CheckReport, "sample", traced)
        reports = run()
    return [rep.as_dict() for rep in (reports if isinstance(reports, list) else [reports])], seen


@pytest.mark.parametrize("seed", [42, 7])
def test_engine_suite_verdicts_match_the_state_path(monkeypatch, seed):
    got = _verdicts(monkeypatch, lambda: engine_property_suite(seed=seed))
    want = _verdicts(monkeypatch, lambda: ref_engine_property_suite(seed=seed))
    assert got == want
    assert [(name, len(oks), all(oks)) for name, oks in got[1]] == [(name, 200, True) for name, _ in want[1]]


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("twist", [None, -2, 0, 3])
def test_gluing_verdicts_match_the_state_path(monkeypatch, twist, seed):
    got = _verdicts(monkeypatch, lambda: check_gluing_morphism(twist, seed=seed))
    want = _verdicts(monkeypatch, lambda: ref_check_gluing_morphism(twist, seed=seed))
    assert got == want
    (report,), [(_, oks)] = got
    assert report["passed"] and report["checks"] == 18 + 100 and len(oks) == 100


def _with_mutant(monkeypatch, module, name, mutant, runs):
    """``_verdicts`` of each run, with ``module.name`` replaced by
    ``mutant`` behind empty caches; the caches are emptied again after."""
    tcdo.clear_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutant)
            return [_verdicts(monkeypatch, run) for run in runs]
    finally:
        tcdo.clear_caches()


@pytest.mark.parametrize("twist", [None, 3])
def test_a_wrong_glue_image_fails_the_same_samples_on_both_paths(monkeypatch, twist):
    # d_y -> -a_(-1)x^2 - 3 d(x) + x_(-1) l*: one coefficient off
    images = dict(p1tcdo._SYMBOLIC_IMAGES)
    (a_x2, c0), (dx, c1), rest = images[GEN_A]
    images[GEN_A] = ((a_x2, c0), (dx, c1 - 1), rest)
    got, want, *involution = _with_mutant(monkeypatch, p1tcdo, "_SYMBOLIC_IMAGES", images, [
        lambda: check_gluing_morphism(twist, seed=7),
        lambda: ref_check_gluing_morphism(twist, seed=7),
        lambda: check_involution(twist, weight_max=2),
        lambda: ref_check_involution(twist, weight_max=2),
    ])
    assert got == want and involution[0] == involution[1]
    (report,), [(_, oks)] = got
    failed = len(oks) - sum(oks)
    assert 0 < failed < len(oks) and sum(text.startswith("sample") for text in report["failures"]) == failed
    assert involution[0][0][0]["failures"]


def test_a_wrong_structure_constant_fails_the_same_samples_on_both_paths(monkeypatch):
    # A_(0) x^k = k x^(k-1) read as (k + 1) x^(k-1) at k = 2, met by the
    # Borcherds and diagonality samples that reach the A_(0) contraction
    # with x^2
    contractions = modespace._contractions

    def mutant(gen, u, ls):
        out = contractions(gen, u, ls)
        if gen == GEN_A and out and out[0][0] == 0 and out[0][2] == 2:
            out = ((0, out[0][1], 3), *out[1:])
        return out

    got, want = _with_mutant(monkeypatch, modespace, "_contractions", mutant, [
        lambda: engine_property_suite(60, 7),
        lambda: ref_engine_property_suite(60, 7),
    ])
    assert got == want
    failed = {name: len(oks) - sum(oks) for name, oks in got[1]}
    assert failed["borcherds-identity"] and failed["h0-diagonality"], failed


# -- the pass path builds no state -------------------------------------------------


def test_a_passing_sample_builds_no_state(monkeypatch):
    # the draws build states, and so do the 18 generator checks of the gluing
    # suite, but no sampled trial crosses modespace._state: the count of its
    # calls does not grow with the number of samples
    calls = []
    state = modespace._state
    monkeypatch.setattr(modespace, "_state", lambda *args: calls.append(None) or state(*args))

    def count(run, samples):
        calls.clear()
        assert all(rep.passed for rep in run(samples))
        return len(calls)

    for run in (
        lambda s: engine_property_suite(s, 1),
        lambda s: [check_gluing_morphism(None, s, 1)],
        lambda s: [check_gluing_morphism(3, s, 1)],
    ):
        assert count(run, 0) == count(run, 20)
    assert count(lambda s: engine_property_suite(s, 1), 20) == 0
