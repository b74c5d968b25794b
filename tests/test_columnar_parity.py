"""Suite-wide backend parity: the 18-kernel differential gate.

The tentpole guarantee of :mod:`repro.columnar`: the ``numpy`` backend
may never silently drift from ``reference``.  This suite runs the full
workload table at scale 0.25 and asserts

* byte-identical per-figure outputs (rows *and* rendered tables) for the
  backend-aware experiments (Figures 2, 5, 7 — locality histograms, DDT
  sweep fractions, coverage numbers), and
* identical detected-dependence pair sets per workload for the infinite
  and 128-entry DDTs (stronger than the aggregate fractions: every
  (kind, source, sink, word) tuple must match).

Scale 0.25 keeps the suite a few minutes while exercising millions of
instructions — large enough that any systematic kernel error (off-by-one
stack distance, wrong eviction boundary, forward-fill leak) has
astronomically many chances to surface.
"""

import pytest

pytest.importorskip("numpy")

from repro.columnar.diff import diff_workload
from repro.columnar.backend import get_backend
from repro.experiments import fig2, fig5, fig7
from repro.workloads import all_workloads, get_workload

SCALE = 0.25
ABBREVS = [w.abbrev for w in all_workloads()]
FIGURES = {"fig2": fig2, "fig5": fig5, "fig7": fig7}


def test_suite_covers_all_18_kernels():
    assert len(ABBREVS) == 18


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_outputs_byte_identical(figure):
    module = FIGURES[figure]
    reference_rows = module.run(scale=SCALE)
    numpy_rows = module.run(scale=SCALE, backend="numpy")
    assert numpy_rows == reference_rows
    assert module.render(numpy_rows) == module.render(reference_rows)


@pytest.mark.parametrize("abbrev", ABBREVS)
def test_workload_parity(abbrev):
    """Stage-by-stage diff (profiles, pair sets, locality histograms)."""
    report = diff_workload(get_workload(abbrev), SCALE,
                           get_backend("numpy"), check_trace=False)
    assert report.ok, str(report)


# -- the non-default-DDT fallback path -----------------------------------
#
# Configurations outside the vectorizable shape (split tables, ways,
# record_all_loads, ...) run the reference query NumPyBackend inherits
# from ReferenceBackend.  It must (a) actually be the code path taken,
# and (b) agree with the reference backend exactly — for pair sets and
# for the Figure 7 locality breakdowns.

from repro.columnar.kernels import _is_default_config
from repro.dependence.ddt import DDTConfig

FALLBACK_SCALE = 0.1
FALLBACK_ABBREVS = ["go", "com", "swm"]   # int loop, int pointer, fp array
FALLBACK_CONFIGS = {
    "ways4": DDTConfig(size=128, ways=4),
    "split": DDTConfig(size=128, split=True),
    "stores_only": DDTConfig(size=128, record_loads=False),
    "all_loads": DDTConfig(size=128, record_all_loads=True),
    "no_touch": DDTConfig(size=128, touch_on_hit=False),
}


@pytest.mark.parametrize("label", sorted(FALLBACK_CONFIGS))
def test_fallback_configs_are_not_vectorizable(label):
    """Guard: each config really exercises the fallback, and the paper
    default really takes the vectorized path."""
    assert not _is_default_config(FALLBACK_CONFIGS[label])
    assert _is_default_config(DDTConfig(size=128))


@pytest.mark.parametrize("label", sorted(FALLBACK_CONFIGS))
@pytest.mark.parametrize("abbrev", FALLBACK_ABBREVS)
def test_fallback_pair_parity(abbrev, label):
    config = FALLBACK_CONFIGS[label]
    workload = get_workload(abbrev)
    reference = get_backend("reference").dependence_pairs(
        workload, FALLBACK_SCALE, config)
    numpy_pairs = get_backend("numpy").dependence_pairs(
        workload, FALLBACK_SCALE, config)
    assert numpy_pairs == reference


@pytest.mark.parametrize("label", sorted(FALLBACK_CONFIGS))
@pytest.mark.parametrize("abbrev", FALLBACK_ABBREVS)
def test_fallback_locality_parity(abbrev, label):
    config = FALLBACK_CONFIGS[label]
    workload = get_workload(abbrev)
    reference = get_backend("reference").address_value_locality(
        workload, FALLBACK_SCALE, ddt_config=config)
    vectorized = get_backend("numpy").address_value_locality(
        workload, FALLBACK_SCALE, ddt_config=config)
    assert vectorized.address == reference.address
    assert vectorized.value == reference.value
