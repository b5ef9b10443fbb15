"""Unit tests for small helpers across the package."""

import math

import numpy as np
import pytest

from repro import bitops
from repro.sim.result import SimResult, reports_equal, reports_to_array
from repro.workloads.registry import (
    _anchored_width,
    _pattern_lengths,
    _tokens,
    _width_for_depth,
)


class TestSimResult:
    def _result(self):
        return SimResult(
            n_states=10,
            n_symbols=5,
            cycles=5,
            reports=reports_to_array([(1, 3), (0, 2)]),
            ever_enabled=bitops.from_indices([0, 2, 3], 10),
        )

    def test_hot_accessors(self):
        result = self._result()
        assert result.hot_indices().tolist() == [0, 2, 3]
        assert result.hot_count() == 3
        assert result.hot_fraction() == pytest.approx(0.3)
        mask = result.hot_mask()
        assert mask.sum() == 3 and mask[2]

    def test_report_tuples_sorted(self):
        assert self._result().report_tuples() == [(0, 2), (1, 3)]

    def test_zero_states_fraction(self):
        result = SimResult(0, 0, 0, reports_to_array([]), bitops.empty(1))
        assert result.hot_fraction() == 0.0


class TestReportsHelpers:
    def test_equal_ignores_order(self):
        assert reports_equal([(2, 1), (0, 5)], [(0, 5), (2, 1)])

    def test_multiplicity_matters(self):
        assert not reports_equal([(0, 1), (0, 1)], [(0, 1)])

    def test_different_content(self):
        assert not reports_equal([(0, 1)], [(0, 2)])

    def test_empty(self):
        assert reports_equal([], np.empty((0, 2), dtype=np.int64))


class TestWidthCalibration:
    def test_depth_one_is_exact_byte(self):
        assert _width_for_depth(1.0) == 1
        assert _width_for_depth(0.5) == 1

    def test_deeper_targets_wider_classes(self):
        widths = [_width_for_depth(d) for d in (2.0, 4.0, 8.0, 16.0)]
        assert widths == sorted(widths)
        assert widths[-1] > widths[0]

    def test_alphabet_scaling(self):
        wide = _width_for_depth(6.0, 256)
        narrow = _width_for_depth(6.0, 4)
        assert narrow <= 4
        # Same match probability implies proportional width.
        assert abs(wide / 256 - narrow / 4) < 0.2

    def test_width_solves_penetration_equation(self):
        """n * q^(d-1) = 1 at the returned width (within rounding)."""
        for depth in (3.0, 6.0, 12.0):
            width = _width_for_depth(depth, 256, input_len=4096)
            q = width / 256
            predicted = 1 + math.log(4096) / math.log(1 / q)
            assert predicted == pytest.approx(depth, rel=0.15)

    def test_anchored_width_hits_target(self):
        for target in (0.3, 0.6, 0.9):
            width = _anchored_width(target, 20)
            q = width / 256
            hot = (1 - q ** 20) / (20 * (1 - q))
            assert hot == pytest.approx(target, abs=0.05)


class TestRegistryHelpers:
    def test_pattern_lengths_clipped(self):
        rng = np.random.default_rng(0)
        lengths = _pattern_lengths(rng, 500, mean=50.0, sigma=0.6, low=10, high=120)
        assert all(10 <= l <= 120 for l in lengths)
        assert 30 <= np.mean(lengths) <= 75

    def test_tokens_shape(self):
        rng = np.random.default_rng(0)
        tokens = _tokens(rng, 10, 4, b"abc")
        assert len(tokens) == 10
        assert all(len(t) == 4 for t in tokens)
        assert all(set(t) <= set(b"abc") for t in tokens)


class TestReportDecoding:
    def _net(self):
        from repro.nfa.automaton import Network
        from repro.nfa.build import literal_chain

        network = Network("n")
        network.add(literal_chain(b"ab", name="alpha", report_code="A"))
        network.add(literal_chain(b"cd", name="beta", report_code="B"))
        return network

    def test_decode(self):
        from repro.sim import decode_reports, run, subset_core

        network = self._net()
        result = run(subset_core(network), b"abcd")
        decoded = decode_reports(network, result.reports)
        assert [(d.position, d.automaton, d.code) for d in decoded] == [
            (1, "alpha", "A"),
            (3, "beta", "B"),
        ]
        assert str(decoded[0]) == "A @ 1"

    def test_group_by_code(self):
        from repro.sim import reports_by_code, run, subset_core

        network = self._net()
        result = run(subset_core(network), b"abab")
        assert reports_by_code(network, result.reports) == {"A": [1, 3]}

    def test_empty(self):
        from repro.sim import decode_reports
        import numpy as np

        assert decode_reports(self._net(), np.empty((0, 2))) == []


class TestEventValidation:
    def test_out_of_range_target_rejected(self):
        from repro.nfa.automaton import Network
        from repro.nfa.build import literal_chain
        from repro.sim import run_events, subset_core

        network = Network("t")
        network.add(literal_chain(b"ab"))
        compiled = subset_core(network)
        with pytest.raises(ValueError):
            run_events(compiled, b"abab", [(0, 99)])
        with pytest.raises(ValueError):
            run_events(compiled, b"abab", [(-1, 0)])
