"""Per-application structural-signature regression tests.

Each workload's documented signature (hot-fraction band, family structure)
is what makes the paper's figures come out right; these tests pin those
signatures at a reduced scale so generator changes that would silently
distort an experiment fail loudly here.  Bands are deliberately wide — the
point is catching structural regressions, not exact percentages.
"""

import pytest

from repro.experiments import ExperimentConfig
from repro.nfa.analysis import analyze_network
from repro.sim import run, subset_core
from repro.workloads import get_app

CFG = ExperimentConfig(scale=32, input_len=4096)

#: (app, expected hot-fraction band at 1/32 scale with 2 KB test input).
HOT_BANDS = [
    ("CAV4k", 0.00, 0.10),
    ("CAV", 0.00, 0.15),
    ("DS", 0.02, 0.30),
    ("Snort_L", 0.05, 0.40),
    ("Snort", 0.10, 0.55),
    ("HM1500", 0.10, 0.50),
    ("Pro", 0.15, 0.65),
    ("Brill", 0.25, 0.75),
    ("SPM", 0.60, 1.00),
    ("Fermi", 0.35, 0.90),
    ("RF1", 0.80, 1.00),
    ("RF2", 0.80, 1.00),
    ("LV", 0.80, 1.00),
]


def _hot_fraction(abbr):
    spec = get_app(abbr)
    network = spec.build(CFG.scale)
    data = spec.make_input(network, CFG.input_len)
    result = run(subset_core(network), data[len(data) // 2 :])
    return result.hot_fraction()


@pytest.mark.parametrize("abbr,low,high", HOT_BANDS)
def test_hot_fraction_band(abbr, low, high):
    hot = _hot_fraction(abbr)
    assert low <= hot <= high, f"{abbr}: hot fraction {hot:.2%} outside [{low}, {high}]"


class TestFamilyStructure:
    def test_clamav_is_pure_chains(self):
        from repro.nfa.transforms import is_chain

        network = get_app("CAV").build(CFG.scale)
        assert all(is_chain(a) for a in network.automata)

    def test_hamming_grid_degree(self):
        """BMIA interior states fan out to at most 2 successors."""
        network = get_app("HM500").build(CFG.scale)
        for automaton in network.automata:
            for sid in range(automaton.n_states):
                assert len(automaton.successors(sid)) <= 2

    def test_spm_gaps_self_loop(self):
        network = get_app("SPM").build(CFG.scale)
        for automaton in network.automata:
            loops = [s for s, d in automaton.edges() if s == d]
            assert loops, "SPM machines must contain self-looping gap states"
            for sid in loops:
                assert automaton.state(sid).symbol_set.is_universal()

    def test_pen_group_sharing(self):
        """PEN NFAs in a group share prefix and body symbol-sets."""
        network = get_app("PEN").build(CFG.scale)
        first, second = network.automata[0], network.automata[1]
        shared = sum(
            first.state(i).symbol_set == second.state(i).symbol_set
            for i in range(min(first.n_states, second.n_states))
        )
        assert shared >= first.n_states - 1

    def test_dotstar_fraction_ordering(self):
        """DS03 < DS06 < DS09 in self-loop (dotstar) density."""
        def star_fraction(abbr):
            network = get_app(abbr).build(CFG.scale)
            stars = sum(
                1 for a in network.automata if any(s == d for s, d in a.edges())
            )
            return stars / network.n_automata

        assert star_fraction("DS03") < star_fraction("DS06") < star_fraction("DS09")

    def test_snort_has_deep_counting_rules(self):
        network = get_app("Snort_L").build(CFG.scale)
        topology = analyze_network(network)
        depths = [t.max_order for t in topology.per_automaton]
        assert max(depths) >= 4 * (sum(depths) / len(depths))

    def test_fermi_spm_anchored(self):
        for abbr in ("Fermi", "SPM"):
            network = get_app(abbr).build(CFG.scale)
            from repro.nfa.automaton import StartKind

            kinds = {s.start for _g, _a, s in network.global_states() if s.is_start}
            assert kinds == {StartKind.START_OF_DATA}, abbr
