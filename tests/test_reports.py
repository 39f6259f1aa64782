"""The sampled-suite driver, ``CheckReport.sample``, and the draw stream of
the seven suites that run through it."""

import hashlib
import random

import pytest

from tcdo.affine import check_affine_relations, check_sugawara_centrality
from tcdo.modespace import engine_property_suite
from tcdo.p1tcdo import check_gluing_morphism
from tcdo.reports import CheckReport

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
