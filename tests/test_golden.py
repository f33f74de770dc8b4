"""The default scaling and k0 reports against the committed golden files.

tests/golden/regenerate.py wrote the files, and recomputes the reports here.
Every number must lie within a relative tolerance of its field (a key path
with list indices left out); strings, booleans and the fields themselves,
list lengths included, must match exactly.  Each tolerance is about 10x
(rounded up) the largest relative move measured when the reports were
rerun in child processes (`regenerate.py --spread`) under the native kernel
and 18 OpenBLAS kernels set by OPENBLAS_CORETYPE, each with numpy's
AVX-512 loops and with its AVX2 loops (NPY_DISABLE_CPU_FEATURES set to
regenerate.AVX2_DISPATCH): 38 runs on x86-64 with AVX-512.  SkylakeX,
Cooperlake and SapphireRapids ran the native bytes; Haswell, Zen,
Sandybridge, Nehalem, Core2, Penryn, Dunnington, Prescott, Atom, Opteron,
Barcelona and the Bulldozer family moved them.  The AVX2 loops moved the
drift fits of nu and delta_nbar further than any kernel, through the last
bit of x ** b in the fit; their fields are marked avx2.  The measured move
follows each tolerance.
A computed field that no kernel moved by 1e-13 gets the floor 1e-12, which
leaves room for math libraries that the measurement could not cover; the
configuration echoes, and what is exact arithmetic on them, compare exactly.
Bytes are a same-machine check only: the native case reports whether they
match and does not gate on it.
"""

import json
import platform

import pytest

from golden.regenerate import AVX2_DISPATCH, HERE, NAMES, child_reports, leaves, report_texts

EXACT = 0.0
FLOOR = 1e-12

TOLERANCES = {
    "scaling_report.json": {
        "eps_c_star": 6e-9,  # 5.2e-10
        "fit_a": 3e-7,  # 2.7e-8
        "fit_b": 1e-7,  # 9.3e-9
        "nu": 9e-9,  # 8.0e-10 avx2
        "delta_ee": 4e-9,  # 3.3e-10
        "delta_pp": FLOOR,  # 3.8e-15
        "delta_ep": FLOOR,  # 7.3e-15
        "delta_eps": 7e-9,  # 6.6e-10
        "delta_phi": FLOOR,  # 2.0e-15
        "collapse_quality_gee": 5e-6,  # 4.5e-7
        "collapse_quality_fep": 4e-6,  # 3.7e-7
        "diagnostics.sizes": EXACT,
        "diagnostics.n_cut": EXACT,
        "diagnostics.cutoffs.peak": EXACT,
        "diagnostics.cutoffs.family": EXACT,
        "diagnostics.peak_bracket": EXACT,
        "diagnostics.collapse_window": EXACT,
        "diagnostics.collapse_step": EXACT,
        "diagnostics.eps_c_by_size": FLOOR,  # 1.1e-15
        "diagnostics.g_ee_peak": 2e-12,  # 1.3e-13
        "diagnostics.g_pp_at_peak": FLOOR,  # 2.3e-14
        "diagnostics.f_ep_at_peak": FLOOR,  # 4.8e-14
        "diagnostics.nbar_at_peak": FLOOR,  # 3.6e-14
        "diagnostics.pair_sizes": EXACT,  # sqrt of products of sizes
        "diagnostics.pair_slopes_gee": 6e-12,  # 5.2e-13
        "diagnostics.delta_ee_global": FLOOR,  # 1.2e-14
        "diagnostics.delta_ee_sigma": 2e-7,  # 1.5e-8
        "diagnostics.delta_ee_fit.amplitude": 4e-7,  # 3.8e-8
        "diagnostics.delta_ee_fit.exponent": 2e-7,  # 1.5e-8
        "diagnostics.delta_ee_fit.residual": 2e-5,  # 1.5e-6
        "diagnostics.nu_fit.amplitude": 9e-7,  # 8.6e-8 avx2
        "diagnostics.nu_fit.exponent": 4e-7,  # 3.6e-8 avx2
        "diagnostics.nu_fit.residual": 2e-5,  # 1.1e-6
        "diagnostics.crit_fit_residual": 8e-9,  # 7.6e-10
        "diagnostics.r_squared.delta_ee_global": FLOOR,  # 2.2e-16
        "diagnostics.r_squared.delta_pp": FLOOR,  # 1.1e-16
        "diagnostics.r_squared.delta_ep": FLOOR,  # 1.1e-16
        "diagnostics.berry_dimension_consistency": 2e-7,  # 1.6e-8
        "diagnostics.f_collapse_optimum.nu": 3e-7,  # 2.7e-8
        "diagnostics.f_collapse_optimum.eps_c_star": 2e-8,  # 1.1e-9
        "diagnostics.f_collapse_optimum.quality": 2e-10,  # 2.0e-11
        "diagnostics.family_eps_grid": EXACT,
        "diagnostics.family_g_ee": FLOOR,  # 2.1e-15
        "diagnostics.family_f_ep": FLOOR,  # 1.2e-15
    },
    "k0_report.json": {
        "gamma1": FLOOR,  # 2.2e-16
        "gamma2": FLOOR,  # 5.9e-16
        "alpha_exp": FLOOR,  # 0
        "delta_nbar": 3e-8,  # 2.0e-9 avx2
        "beta1": FLOOR,  # 2.2e-16
        "beta2": FLOOR,  # 7.4e-16
        "beta1_prime": 3e-8,  # 2.0e-9 avx2
        "beta2_prime": 3e-8,  # 2.0e-9 avx2
        "diagnostics.ncut_list": EXACT,
        "diagnostics.g_ee": FLOOR,  # 4.6e-16
        "diagnostics.f_ep": FLOOR,  # 5.7e-16
        "diagnostics.nbar": FLOOR,  # 0
        "diagnostics.r_squared.gamma1": FLOOR,  # 0
        "diagnostics.r_squared.gamma2": FLOOR,  # 0
        "diagnostics.r_squared.alpha": FLOOR,  # 0
        "diagnostics.nbar_pair_sizes": EXACT,  # sqrt of products of sizes
        "diagnostics.nbar_pair_slopes": 6e-12,  # 5.7e-13
        "diagnostics.delta_nbar_fit.amplitude": 3e-7,  # 2.1e-8 avx2
        "diagnostics.delta_nbar_fit.exponent": 5e-7,  # 4.4e-8 avx2
        "diagnostics.delta_nbar_fit.residual": 6e-5,  # 6.0e-6
        "diagnostics.scaling_eps_c_star": 6e-9,  # 5.2e-10
        "diagnostics.scaling_delta_ee": 4e-9,  # 3.3e-10
        "diagnostics.scaling_delta_ep": FLOOR,  # 7.3e-15
    },
}


def mismatches(name: str, golden: dict, other: dict) -> list[str]:
    """Each field of report name where other leaves the golden tolerance."""
    want, got = list(leaves(golden)), list(leaves(other))
    if [f for f, _ in want] != [f for f, _ in got]:
        return [f"{name}: the fields differ from the golden file's"]
    bad = []
    for (field, a), (_, b) in zip(want, got):
        if isinstance(a, (bool, str)) or a is None:
            ok = type(a) is type(b) and a == b
        else:
            rtol = TOLERANCES[name][field]
            ok = not isinstance(b, (bool, str)) and abs(b - a) <= rtol * abs(a)
        if not ok:
            bad.append(f"{name}:{field} = {b!r}, golden {a!r}")
    return bad


def golden_reports() -> dict[str, dict]:
    return {name: json.loads((HERE / name).read_text()) for name in NAMES}


def test_every_numeric_field_has_a_tolerance():
    for name, report in golden_reports().items():
        numeric = {f for f, v in leaves(report) if not isinstance(v, (bool, str))}
        assert numeric == set(TOLERANCES[name])


def test_reports_match_the_golden_files():
    texts = report_texts()
    print("bytes identical to the golden files:",
          {name: text == (HERE / name).read_text() for name, text in texts.items()})
    golden = golden_reports()
    assert [m for name in NAMES
            for m in mismatches(name, golden[name], json.loads(texts[name]))] == []


X86_64 = platform.machine().lower() in ("x86_64", "amd64")


@pytest.mark.skipif(not X86_64, reason="OPENBLAS_CORETYPE=Nehalem names an x86-64 kernel")
def test_reports_under_the_nehalem_kernel_match_the_golden_files():
    other, golden = child_reports({"OPENBLAS_CORETYPE": "Nehalem"}), golden_reports()
    assert [m for name in NAMES for m in mismatches(name, golden[name], other[name])] == []


@pytest.mark.skipif(not X86_64, reason="the AVX2 dispatch names x86-64 SIMD targets")
def test_reports_under_avx2_dispatch_match_the_golden_files():
    other, golden = child_reports(AVX2_DISPATCH), golden_reports()
    assert [m for name in NAMES for m in mismatches(name, golden[name], other[name])] == []
