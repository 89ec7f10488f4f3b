import json
from dataclasses import replace

import pytest

from qcrack.backends import (BackendProfile, builtin_profiles,
                             estimate_runtime, load_profile)
from qcrack.errors import FormatError


class TestProfiles:
    def test_builtin_names(self):
        assert builtin_profiles() == ["ibmq_ehningen", "ibmq_kolkata",
                                      "ibmq_lima"]

    @pytest.mark.parametrize("name,clops", [
        ("ibmq_kolkata", 2000), ("ibmq_ehningen", 1900), ("ibmq_lima", 2700),
    ])
    def test_published_clops(self, name, clops):
        assert load_profile(name).clops == clops

    def test_custom_profile_file(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps({"name": "mine", "clops": 500, "qv": 4}))
        p = load_profile(str(path))  # "qv" is read by nothing, and ignored
        assert p == BackendProfile("mine", 500)

    def test_unknown_profile(self):
        with pytest.raises(FileNotFoundError, match="ibmq_kolkata"):
            load_profile("ibmq_nowhere")

    def test_overhead_override(self):
        # one path for an override: replace() on the loaded profile
        p = replace(load_profile("ibmq_lima"), overhead_factor=3.0)
        assert p.overhead_factor == 3.0 and p.clops == 2700
        with pytest.raises(ValueError):
            replace(load_profile("ibmq_lima"), overhead_factor=0.5)

    def test_validation(self):
        for clops in (0, -5, 2.5, True, "100"):
            with pytest.raises(ValueError):
                BackendProfile("x", clops=clops)
        for factor in (0.5, float("nan"), float("inf"), True, "2"):
            with pytest.raises(ValueError):
                BackendProfile("x", clops=100, overhead_factor=factor)
        with pytest.raises(ValueError):
            BackendProfile(None, clops=100)

    @pytest.mark.parametrize("text", [
        '{"clops": 500}',
        '{"name": "mine"}',
        '{"name": "mine", "clops": "fast"}',
        '{"name": "mine", "clops": 500.5}',
        '{"name": "mine", "clops": 500, "overhead_factor": 0.5}',
        '["mine", 500]',
        '{not json',
    ])
    def test_malformed_file_names_it(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="bad.json"):
            load_profile(str(path))


class TestEstimate:
    def test_ten_epoch_paramshift_run(self):
        profile = BackendProfile("ehningen-ish", clops=1900)
        device_s, wall_s = estimate_runtime(profile, n_calls=8820,
                                            shots=1000, layers=2)
        assert device_s == pytest.approx(8820 * 1000 * 2 / 1900)
        assert device_s == pytest.approx(9284.2, abs=0.1)
        assert wall_s == device_s

    def test_huge_clops_limit(self):
        profile = BackendProfile("fast", clops=10 ** 9)
        device_s, _ = estimate_runtime(profile, 8820, 1000, 2)
        assert device_s < 0.02

    def test_overhead_scales_wall_clock(self):
        profile = BackendProfile("queued", clops=1900,
                                 overhead_factor=6.5)
        device_s, wall_s = estimate_runtime(profile, 8820, 1000, 2)
        assert wall_s == pytest.approx(6.5 * device_s)
        assert 50_000 <= wall_s <= 70_000  # same order as ~17 h wall clock

    def test_positive_inputs_required(self):
        profile = BackendProfile("x", clops=100)
        with pytest.raises(ValueError):
            estimate_runtime(profile, 0, 1000, 2)
        # counts are integers: bools and floats are rejected too
        for args in ((2.5, 1000, 2), (True, 1000, 2), (10, True, 1),
                     (10, 1000, 2.0), (10, 1000, 0)):
            with pytest.raises(ValueError, match="must be an integer >= 1"):
                estimate_runtime(profile, *args)
