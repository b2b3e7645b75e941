import bisect
import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_synth
from oracle import (
    infer_quotas_from_observed, programs_of, records, replicate_assignment, same_panel,
)
from polyadmit import matching, scoring, synth
from polyadmit.errors import InvalidConfig
from polyadmit.model import ApplicationBlock, validate_panel
from polyadmit.synth import SynthConfig, calibration_report, generate_panel


class TestDeterminism:
    def test_same_seed_identical(self):
        cfg = SynthConfig(n_applicants=200, n_programs=8, n_fields=4, seats_total=60, seed=5)
        assert same_panel(generate_panel(cfg), generate_panel(cfg))

    def test_different_seeds_differ(self):
        cfg1 = SynthConfig(n_applicants=200, n_programs=8, n_fields=4, seats_total=60, seed=5)
        cfg2 = SynthConfig(n_applicants=200, n_programs=8, n_fields=4, seats_total=60, seed=6)
        assert not same_panel(generate_panel(cfg1), generate_panel(cfg2))


@st.composite
def small_configs(draw):
    """Small configs over the shapes the generator branches on: 1-4
    fields, fewer programs than the longest list, list lengths that
    never occur, exam probabilities for fewer or more than 4 ranks, and
    no seats at all."""
    n_fields = draw(st.integers(1, 4))
    n_applicants = draw(st.integers(1, 60))
    weights = draw(
        st.lists(st.sampled_from((0.0, 1.0, 2.0, 5.0)), min_size=1, max_size=4).filter(any)
    )
    return SynthConfig(
        n_applicants=n_applicants,
        n_programs=draw(st.integers(n_fields, 7)),
        n_fields=n_fields,
        seats_total=draw(st.one_of(st.just(0), st.integers(0, n_applicants))),
        list_length_probs=tuple(w / sum(weights) for w in weights),
        exam_prob_by_rank=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))),
        seed=draw(st.integers(0, 2**32)),
    )


def assert_same_bytes(panel, other):
    """``same_panel``, and every column of the applicants, the application
    block and the observed assignment equal in dtype and bytes."""
    assert same_panel(panel, other)
    block_columns = [f.name for f in dataclasses.fields(ApplicationBlock)[2:]]
    for x, y, columns in (
        (panel, other, ["grades", "cohort_year"]),
        (panel.applications, other.applications, block_columns),
        (panel.observed_assignment, other.observed_assignment, ["seat", "accept"]),
    ):
        for vocabulary in ("applicant_ids", "program_keys"):
            assert getattr(x, vocabulary, None) == getattr(y, vocabulary, None)
        for name in columns:
            a, b = getattr(x, name), getattr(y, name)
            assert (name, a.dtype, a.tobytes()) == (name, b.dtype, b.tobytes())


class TestReferenceGenerator:
    """``generate_panel`` draws the row-by-row reference's panel from the
    same random stream."""

    @settings(max_examples=60, deadline=None)
    @given(small_configs())
    def test_matches_row_by_row_reference(self, cfg):
        assert_same_bytes(generate_panel(cfg), reference_synth.generate_panel(cfg))

    def test_default_config_matches_reference(self, default_panel):
        assert_same_bytes(default_panel, reference_synth.generate_panel(SynthConfig()))


class TestRounded:
    """``synth._rounded`` equals the builtin ``round(v, 4)`` bit for bit."""

    @staticmethod
    def assert_builtin(values):
        expected = np.array([round(v, 4) for v in values.ravel().tolist()])
        got = synth._rounded(values)
        assert got.shape == values.shape
        assert got.tobytes() == expected.tobytes()

    def test_random_values(self):
        rng = np.random.default_rng(0)
        for values in (rng.uniform(0, 60, 3 * synth.ROUND_CHUNK + 5), rng.normal(4, 3, (701, 7))):
            self.assert_builtin(values)

    def test_planted_ties_and_their_neighbours(self):
        ties = (np.random.default_rng(1).integers(0, 10**6, 20_000) + 0.5) / 1e4
        for values in (ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), -ties):
            self.assert_builtin(values)

    def test_signed_zeros_and_values_past_the_fast_path(self):
        self.assert_builtin(np.array([0.0, -0.0, 1e-5, -1e-5, 2.0**33 / 1e4, 1e12 + 5e-5, 1e300]))


class TestValidity:
    def test_panel_validates(self, small_panel):
        assert validate_panel(small_panel) == small_panel

    def test_three_years_present(self, small_panel):
        years = {a.year for a in records(small_panel.applications)}
        assert years == set(small_panel.years)

    def test_self_replication_exact(self, small_panel):
        from polyadmit.scoring import compute_score_table

        table = compute_score_table(small_panel, small_panel.base_applications)
        instance = matching.build_instance(table.applications, table, small_panel.quota)
        computed = matching.deferred_acceptance(instance, matching.PROPOSING_PROGRAMS)
        assert replicate_assignment(small_panel, computed) == 1.0

    def test_match_is_gone_when_the_panel_is_validated(self, monkeypatch):
        """The score table and instance that drew the observed assignment
        are freed before ``validate_panel`` allocates."""
        built, alive_at_validation = [], []

        def recorded(fn):
            def wrapper(*args):
                result = fn(*args)
                built.append(weakref.ref(result))
                return result

            return wrapper

        def validate(panel):
            alive_at_validation.append(sum(ref() is not None for ref in built))
            return validate_panel(panel)

        monkeypatch.setattr(scoring, "compute_score_table", recorded(scoring.compute_score_table))
        monkeypatch.setattr(matching, "build_instance", recorded(matching.build_instance))
        monkeypatch.setattr(synth, "validate_panel", validate)
        generate_panel(SynthConfig(n_applicants=60, n_programs=6, n_fields=2, seats_total=20))
        assert len(built) == 2  # the base-year table and its instance
        assert alive_at_validation == [0]

    def test_quota_proxy_matches_generator_quotas_for_filled_programs(self, small_panel):
        inferred = infer_quotas_from_observed(small_panel)
        for key, program in programs_of(small_panel).items():
            assert inferred[key] <= program.quota


class TestCalibration:
    def test_default_panel_hits_targets(self, default_panel):
        rows = {r.name: r for r in calibration_report(default_panel)}
        for rank in range(1, 5):
            assert rows[f"exam_share_rank{rank}"].abs_deviation <= 0.03
        assert rows["assigned_share"].abs_deviation <= 0.03
        assert rows["mean_list_length"].abs_deviation <= 0.15

    def test_report_renders(self, small_panel, tmp_path):
        from polyadmit.reports import write_calibration_report

        path = tmp_path / "calibration.csv"
        write_calibration_report(path, calibration_report(small_panel))
        lines = path.read_text().splitlines()
        assert lines[0] == "name,target,actual,abs_deviation"
        assert len(lines) == 7


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(reapply_unassigned=1.5).validate()

    def test_seats_exceed_applicants(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_applicants=10, seats_total=11).validate()

    def test_more_fields_than_programs(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_programs=4, n_fields=8).validate()

    def test_list_length_probs_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(list_length_probs=(0.5, 0.5, 0.5, 0.5)).validate()

    def test_nan_probability(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(accept_base=float("nan")).validate()

    def test_nan_in_list_length_probs(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(list_length_probs=(0.5, float("nan"), 0.25, 0.25)).validate()

    def test_infinite_value(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(first_choice_bonus=float("inf")).validate()

    def test_negative_home_field_weight(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(home_field_weight=-1.0).validate()

    def test_zero_home_field_weight(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(home_field_weight=0.0).validate()


def _weight_vectors():
    """Normalised program weights as the generator builds them: one
    home-field weight against 1.0 for every other program."""
    cases = [(6.0, 44, 8), (40.0, 9, 3), (1.0, 5, 1), (2.5, 12, 4), (0.1, 7, 2)]
    vectors = []
    for home_weight, n_programs, n_fields in cases:
        w = np.array([home_weight if i % n_fields == 0 else 1.0 for i in range(n_programs)])
        w /= w.sum()
        vectors.append(w)
    return vectors


class TestSamplers:
    """The CDF samplers draw exactly what Generator.choice draws and leave
    the random stream where it leaves it."""

    SEEDS = range(250)

    def test_scalar_choice_matches_numpy(self):
        probs = synth.LIST_LENGTH_PROBS
        cdf = synth._cdf(np.array(probs, dtype=float)).tolist()
        for seed in self.SEEDS:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                assert synth._choice(ours, cdf) == int(theirs.choice(len(probs), p=probs))
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("p", _weight_vectors(), ids=lambda p: f"{len(p)}programs")
    def test_distinct_choice_matches_numpy(self, p):
        cdf = synth._cdf(p).tolist()
        for seed in self.SEEDS:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(1, min(len(p), 6) + 1):
                got = synth._choice_distinct(ours, p, cdf, k)
                assert got == theirs.choice(len(p), size=k, replace=False, p=p).tolist()
            assert ours.random() == theirs.random()

    def test_heavy_home_field_forces_redraws(self):
        # Weight 40 on three of nine programs: four draws at once often
        # repeat a program, so the shortfall redraw is exercised above.
        p = _weight_vectors()[1]
        cdf = synth._cdf(p).tolist()
        repeats = 0
        for seed in self.SEEDS:
            draws = np.random.default_rng(seed).random(4).tolist()
            first = [bisect.bisect_right(cdf, u) for u in draws]
            repeats += len(set(first)) < 4
        assert repeats > len(self.SEEDS) // 2
