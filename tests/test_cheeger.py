import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborlab.cheeger import (
    Cut,
    InadmissibleCutError,
    cheeger_upper_bound,
    circle_cut_family,
    cut_ratio,
    dumbbell_weight,
    vertical_cut_family,
)
from gaborlab.cheeger import (
    _circle_boundary_integral,
    _circle_side_masses,
    _cut_table,
    _vertical_boundary_integral,
    _vertical_side_masses,
)
from gaborlab.counterexamples import gamma_threshold, make_fpm, make_gpm
from gaborlab.gabor import gabor_magnitude_field
from gaborlab.grid import TFGrid, disk_mask
from gaborlab.signals import gaussian
from gaborlab.spectral import (
    build_weighted_domain,
    solve_spectrum,
    weighted_domain_from_values,
)

from oracles import cell_centered, node_masses


def fpm_domain(a, gamma, R=4.0, n=81, floor_rel=1e-14):
    grid = TFGrid(-R, R, -R, R, n, n)
    mag = gabor_magnitude_field(make_fpm(a, gamma).plus, grid)
    return build_weighted_domain(mag, 2.0, disk_mask(grid, R), floor_rel)


def test_cut_validation():
    with pytest.raises(ValueError):
        Cut("diagonal", 0.0)
    with pytest.raises(ValueError):
        Cut("circle", -1.0)
    for kind in ("vertical_line", "circle"):
        for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
            with pytest.raises(ValueError, match="must be finite"):
                Cut(kind, bad)


def test_circle_beyond_the_mask_is_refused_before_sampling():
    # the sweep workload's cut-scan grid: the circle's quadrature would take
    # about 1e10 points here if its boundary were sampled before its sides
    grid = TFGrid(-2.55, 2.55, -1.5, 1.5, 101, 61)
    dom = dumbbell_weight(3.0, 0.1, 0.35, grid)
    with pytest.raises(InadmissibleCutError):
        cut_ratio(dom, Cut("circle", 1e7))


@pytest.mark.parametrize("radius", [1e200, np.float64(1e200), 1.7e308])
def test_circle_past_the_square_root_of_the_largest_double_is_inadmissible(radius):
    # r^2 overflows: the whole domain lies inside, and no overflow error or
    # warning escapes
    grid = TFGrid(-3, 3, -1.5, 1.5, 11, 7)
    dom = dumbbell_weight(3.0, 0.1, 0.35, grid)
    with pytest.raises(InadmissibleCutError, match="does not separate"):
        cut_ratio(dom, Cut("circle", radius))


def test_midpoint_cut_halves_symmetric_mass():
    grid = TFGrid(-3, 3, -1.5, 1.5, 241, 121)
    dom = dumbbell_weight(3.0, 0.1, 0.35, grid)
    total = float(node_masses(dom).sum())
    inside = _vertical_side_masses(dom, 0.0)[0]
    assert abs(inside / total - 0.5) <= 1e-10


def test_uniform_square_cut_ratio():
    # hand quadrature: boundary trapezoid spans the node hull (side - dx),
    # bulk cells tile the full square, so ratio = (1 - dx) / 0.5
    n = 100
    grid = cell_centered(0.0, 1.0, 0.0, 1.0, n, n)
    from gaborlab.spectral import weighted_domain_from_values

    dom = weighted_domain_from_values(grid, np.ones(grid.shape))
    ratio = cut_ratio(dom, Cut("vertical_line", 0.5))
    hand = (grid.w_max - grid.w_min) / 0.5
    assert ratio == pytest.approx(hand, rel=1e-12)
    assert ratio == pytest.approx(2.0, rel=0.02)


def test_dumbbell_cut_ratio_scales_with_bridge():
    # corridor mass must stay negligible against the bumps for the ratio to
    # track the bridge height cleanly; use the narrow corridor
    grid = TFGrid(-4, 4, -2, 2, 1201, 801)
    sep, sigma = 4.0, 0.45
    ratios = {}
    for b in (0.5, 0.05):
        dom = dumbbell_weight(sep, b, sigma, grid, corridor_sigma=sigma / 20)
        ratios[b] = cut_ratio(dom, Cut("vertical_line", 0.0))
    assert ratios[0.05] <= 0.11 * ratios[0.5]


def test_inadmissible_cuts_raise():
    grid = TFGrid(-3, 3, -1.5, 1.5, 61, 31)
    dom = dumbbell_weight(3.0, 0.1, 0.35, grid)
    with pytest.raises(InadmissibleCutError):
        cut_ratio(dom, Cut("vertical_line", 10.0))
    with pytest.raises(InadmissibleCutError):
        cheeger_upper_bound(dom, [], decomposition=solve_spectrum(dom, 2))


def test_best_cut_in_valley_of_counterexample_weight():
    dom = fpm_domain(0.5, 1.0)
    report = cheeger_upper_bound(dom, vertical_cut_family(-3.0, 3.5, 101),
                                 decomposition=solve_spectrum(dom, 2))
    assert 0.5 < report.best_cut.parameter < 1.5
    assert report.h_upper > 0


def test_gaussian_circle_cuts_have_no_neck():
    R, n = 4.0, 121
    grid = TFGrid(-R, R, -R, R, n, n)
    dom = build_weighted_domain(gabor_magnitude_field(gaussian(), grid), 2.0,
                                disk_mask(grid, R), 1e-30)
    report = cheeger_upper_bound(dom, circle_cut_family(0.3, 3.9, 60),
                                 decomposition=solve_spectrum(dom, 2))
    assert report.h_upper >= 0.5
    # spectral-Cheeger comparison is recorded, not asserted sharply
    print(f"gaussian: lambda_1 = {report.lambda_1:.3f}, h_upper = {report.h_upper:.3f}, "
          f"lambda_1/h = {report.lambda_1 / report.h_upper:.3f}")
    assert report.lambda_1 <= 10.0 * report.h_upper


def test_h_upper_monotone_in_gamma():
    # as gamma falls from 1 to the safe threshold the valley fills in and
    # the best cut gets more expensive
    a, R = 0.5, 4.0
    g0 = gamma_threshold(a, R, 1.0)
    cuts = vertical_cut_family(-3.0, 3.5, 101)
    uppers = []
    for gamma in (1.0, 0.1, g0):
        dom = fpm_domain(a, gamma)
        rep = cheeger_upper_bound(dom, cuts, decomposition=solve_spectrum(dom, 2))
        uppers.append(rep.h_upper)
    assert uppers[0] < uppers[1] < uppers[2]


def test_adding_cuts_never_increases_h_upper():
    dom = fpm_domain(0.5, 1.0, n=61)
    fam1 = vertical_cut_family(0.0, 2.0, 11)
    fam2 = fam1 + vertical_cut_family(-2.0, 3.0, 23) + circle_cut_family(0.5, 3.5, 7)
    dec = solve_spectrum(dom, 2)
    h1 = cheeger_upper_bound(dom, fam1, decomposition=dec).h_upper
    h2 = cheeger_upper_bound(dom, fam2, decomposition=dec).h_upper
    assert h2 <= h1


def test_cheeger_refuses_a_solve_of_another_domain():
    dom = fpm_domain(0.5, 1.0, n=41)
    twin = fpm_domain(0.5, 1.0, n=41)
    cuts = vertical_cut_family(0.0, 2.0, 11)
    with pytest.raises(ValueError, match="solve of another domain"):
        cheeger_upper_bound(dom, cuts, decomposition=solve_spectrum(twin, 2))


def test_dumbbell_spectral_narrative():
    grid = TFGrid(-2.6, 2.6, -1.0, 1.0, 105, 41)
    lams = {}
    for b in (0.5, 0.1, 0.05):
        dec = solve_spectrum(dumbbell_weight(3.0, b, 0.35, grid), 3)
        lams[b] = dec.eigenvalues
    assert lams[0.05][1] < lams[0.1][1] < lams[0.5][1]
    assert lams[0.05][2] / lams[0.05][1] >= 10.0


def test_dumbbell_instability_profile_sign_separation():
    grid = TFGrid(-2.6, 2.6, -1.0, 1.0, 105, 41)
    dom = dumbbell_weight(3.0, 0.05, 0.35, grid)
    dec = solve_spectrum(dom, 2)
    u1 = dec.eigenvectors[:, 1]
    X, W = grid.mesh()
    masses = node_masses(dom)
    xs = X[dom.mask]
    ws = W[dom.mask]
    for cx in (-1.5, 1.5):
        bump = (xs - cx) ** 2 + ws**2 <= 0.7**2
        m_bump = masses[bump].sum()
        pos = masses[bump][u1[bump] > 0].sum()
        frac = pos / m_bump
        assert frac >= 0.95 or frac <= 0.05
    # and the two bumps take opposite signs
    left = (xs + 1.5) ** 2 + ws**2 <= 0.7**2
    right = (xs - 1.5) ** 2 + ws**2 <= 0.7**2
    assert np.sign(np.median(u1[left])) != np.sign(np.median(u1[right]))


def test_dumbbell_degenerate_bridge_is_single_region():
    # with a full-height wide corridor the weight is one wide profile; its
    # lambda_1 must be within a factor 2 of the same construction with one
    # bump removed (a genuinely single-region reference)
    grid = TFGrid(-3.0, 3.0, -1.5, 1.5, 121, 61)
    sep, sigma = 3.0, 0.35
    dom = dumbbell_weight(sep, 1.0, sigma, grid, corridor_sigma=sigma)
    lam_full = solve_spectrum(dom, 2).eigenvalues[1]
    X, W = grid.mesh()
    comet = (np.exp(-(((X + sep / 2) ** 2 + W**2)) / (2 * sigma**2))
             + np.exp(-(W**2) / (2 * sigma**2)) * (np.abs(X) <= sep / 2))
    from gaborlab.spectral import weighted_domain_from_values

    lam_comet = solve_spectrum(
        weighted_domain_from_values(grid, comet), 2).eigenvalues[1]
    assert 0.5 <= lam_full / lam_comet <= 2.0


def test_dumbbell_parameter_validation():
    grid = TFGrid(-3, 3, -1.5, 1.5, 31, 17)
    with pytest.raises(ValueError):
        dumbbell_weight(1.0, 0.1, 0.35, grid)  # separation too small
    with pytest.raises(ValueError):
        dumbbell_weight(3.0, 0.0, 0.35, grid)
    with pytest.raises(ValueError):
        dumbbell_weight(3.0, 1.5, 0.35, grid)


def test_dumbbell_whose_super_level_set_splits_is_rejected():
    # the CLI's dumbbell grid: a 1e-15 corridor and bump tails of 1e-16 at
    # the middle leave two pieces above the 1e-14 level, and the error says
    # so in terms of the level, not of a mask the caller never gave
    grid = TFGrid(-4.05, 4.05, -1.5, 1.5, 101, 41)
    with pytest.raises(ValueError, match=r"super-level set at the trim level 1e-14 "
                       r"\(floor_rel 1e-14 of its maximum\) splits") as exc:
        dumbbell_weight(6.0, 1e-15, 0.35, grid)
    assert "mask" not in str(exc.value)
    # a level under the corridor's 1e-15 keeps its centre line: one domain
    assert dumbbell_weight(6.0, 1e-15, 0.35, grid, floor_rel=1e-16).mask[:, 20].all()


def test_within_cheeger_bound_recorded():
    # Cheeger's inequality lambda_1 >= h^2 / 4 bounds the constant by
    # 2 sqrt(lambda_1). A vertical line through the fpm valley meets that
    # bound; the gpm bumps sit at omega = 0 and +-1/a, which no vertical
    # line separates, so the family's best ratio exceeds it
    grid = TFGrid(-4.0, 4.0, -4.0, 4.0, 61, 61)
    gpm = build_weighted_domain(gabor_magnitude_field(make_gpm(0.5, 1.0).plus, grid),
                                2.0, disk_mask(grid, 4.0), 1e-14)
    for dom, within in ((fpm_domain(0.5, 1.0, n=61), True), (gpm, False)):
        rep = cheeger_upper_bound(dom, vertical_cut_family(-3.0, 3.5, 41),
                                  decomposition=solve_spectrum(dom, 2))
        assert rep.cheeger_bound == 2.0 * math.sqrt(rep.lambda_1)
        assert rep.within_cheeger_bound is (rep.h_upper <= rep.cheeger_bound)
        assert rep.within_cheeger_bound is within


# ---------------------------------------------------------------------------
# cut ratios against the direct formulas: every cut re-sums the whole domain
# ---------------------------------------------------------------------------


def reference_cut_ratio(domain, cut):
    """Ratio by the direct per-cut sums, or None for an inadmissible cut."""
    grid, mask, weight = domain.grid, domain.mask, domain.weight
    xs, ws = grid.x_nodes(), grid.w_nodes()
    area = grid.cell_area
    if cut.kind == "vertical_line":
        c = cut.parameter
        frac = np.clip((c - (xs - grid.dx / 2.0)) / grid.dx, 0.0, 1.0)
        col_mass = np.where(mask, weight, 0.0).sum(axis=1) * area
        lo, hi = float((col_mass * frac).sum()), float((col_mass * (1.0 - frac)).sum())
        boundary = 0.0
        if xs[0] <= c <= xs[-1]:
            i = min(int((c - xs[0]) / grid.dx), grid.nx - 2)
            t = (c - xs[i]) / grid.dx
            line_ok = mask[i, :] & mask[i + 1, :]
            line_w = (1.0 - t) * weight[i, :] + t * weight[i + 1, :]
            for j in range(grid.nw - 1):
                if line_ok[j] and line_ok[j + 1]:
                    boundary += 0.5 * (line_w[j] + line_w[j + 1]) * grid.dw
    else:
        r = cut.parameter
        X, W = grid.mesh()
        # r * r is correctly rounded, as the squares on the left are; Python's
        # r**2 (C pow) can fall one ulp below it and move a node on the circle
        inside = (X**2 + W**2 <= r * r) & mask
        lo = float(weight[inside].sum()) * area
        hi = float(weight[mask & ~inside].sum()) * area
        n_theta = max(512, int(8.0 * 2.0 * math.pi * r / min(grid.dx, grid.dw)))
        theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
        x, w = r * np.cos(theta), r * np.sin(theta)
        ix = np.clip(((x - xs[0]) / grid.dx).astype(int), 0, grid.nx - 2)
        iw = np.clip(((w - ws[0]) / grid.dw).astype(int), 0, grid.nw - 2)
        tx, tw = (x - xs[ix]) / grid.dx, (w - ws[iw]) / grid.dw
        ok = ((x >= xs[0]) & (x <= xs[-1]) & (w >= ws[0]) & (w <= ws[-1])
              & mask[ix, iw] & mask[ix + 1, iw] & mask[ix, iw + 1] & mask[ix + 1, iw + 1])
        val = (weight[ix, iw] * (1 - tx) * (1 - tw) + weight[ix + 1, iw] * tx * (1 - tw)
               + weight[ix, iw + 1] * (1 - tx) * tw + weight[ix + 1, iw + 1] * tx * tw)
        boundary = float(val[ok].sum()) * r * (2.0 * math.pi / n_theta)
    side = min(lo, hi)
    return None if side <= 0.0 or boundary <= 0.0 else boundary / side


@st.composite
def cut_domains(draw):
    nx, nw = draw(st.integers(4, 60)), draw(st.integers(4, 60))
    if draw(st.booleans()):
        sep = draw(st.floats(1.5, 3.5))
        half_x = sep / 2.0 + draw(st.floats(0.6, 1.5))
        half_w = draw(st.floats(0.5, 1.5))
        grid = TFGrid(-half_x, half_x, -half_w, half_w, nx, nw)
        return dumbbell_weight(sep, draw(st.floats(0.01, 1.0)), sep / 5.0, grid)
    lo_x, lo_w = draw(st.floats(-3.0, -0.5)), draw(st.floats(-3.0, -0.5))
    grid = TFGrid(lo_x, draw(st.floats(0.5, 3.0)), lo_w, draw(st.floats(0.5, 3.0)), nx, nw)
    radius = draw(st.floats(max(grid.dx, grid.dw), 4.0))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).uniform(0.01, 1.0, grid.shape)
    return weighted_domain_from_values(grid, values, mask=disk_mask(grid, radius))


@settings(max_examples=60, deadline=None)
@given(cut_domains(), st.lists(st.floats(-0.3, 1.3), max_size=8),
       st.lists(st.floats(0.01, 1.5), max_size=8))
def test_cut_ratio_matches_direct_sums(dom, x_fracs, r_fracs):
    grid = dom.grid
    xs, ws = grid.x_nodes(), grid.w_nodes()
    span = grid.x_max - grid.x_min
    reach = math.hypot(max(-grid.x_min, grid.x_max), max(-grid.w_min, grid.w_max))
    cell = min(grid.dx, grid.dw)
    # cuts inside and outside the grid, on nodes and on cell edges
    # (coverage 0 or 1), circles smaller than one cell and through nodes
    positions = [grid.x_min + f * span for f in x_fracs]
    positions += list(xs[::3]) + list(xs[::3] - grid.dx / 2.0) + list(xs[1::3] + grid.dx / 2.0)
    radii = [f * reach for f in r_fracs] + [0.3 * cell, 0.9 * cell]
    radii += [r for r in np.abs(xs[::4]) if r > 0] + [r for r in np.abs(ws[::4]) if r > 0]
    cuts = [Cut("vertical_line", float(c)) for c in positions]
    cuts += [Cut("circle", float(r)) for r in radii]
    for cut in cuts:
        expected = reference_cut_ratio(dom, cut)
        try:
            ratio = cut_ratio(dom, cut)
        except InadmissibleCutError:
            ratio = None
        if expected is None or ratio is None:
            assert ratio is expected, cut
        else:
            assert abs(ratio - expected) <= 1e-12 * expected, cut


# ---------------------------------------------------------------------------
# cut quantities against a plainer evaluation, bit for bit: clipped indices,
# a bounds test at every point and np.linspace angles
# ---------------------------------------------------------------------------


def clipped_side_masses(domain, c):
    """Vertical side masses with the coverage clipped to [0, 1]."""
    t = _cut_table(domain)
    frac = np.clip((c - (t.xs - t.dx / 2.0)) / t.dx, 0.0, 1.0)
    full, some = int(np.count_nonzero(frac >= 1.0)), int(np.count_nonzero(frac > 0.0))
    part, cover = t.col_mass[full:some], frac[full:some]
    return (float(t.left[full] + (part * cover).sum()),
            float(t.right[some] + (part * (1.0 - cover)).sum()))


def clipped_bilinear(domain, x, w):
    """(weight, in_mask) at arbitrary points: clipped cell indices, a bounds
    test at every point, and the corners read by flat node index."""
    t = _cut_table(domain)
    gx, gw, nw = t.xs, t.ws, len(t.ws)
    ix = np.clip(((x - gx[0]) / t.dx).astype(int), 0, len(gx) - 2)
    iw = np.clip(((w - gw[0]) / t.dw).astype(int), 0, nw - 2)
    tx = (x - gx[ix]) / t.dx
    tw = (w - gw[iw]) / t.dw
    inside = (x >= gx[0]) & (x <= gx[-1]) & (w >= gw[0]) & (w <= gw[-1])
    ok = t.cell_ok.take(ix * (nw - 1) + iw)
    k = ix * nw + iw
    wt = np.ascontiguousarray(domain.weight)
    val = (
        wt.take(k) * (1 - tx) * (1 - tw)
        + wt.take(k + nw) * tx * (1 - tw)
        + wt.take(k + 1) * (1 - tx) * tw
        + wt.take(k + nw + 1) * tx * tw
    )
    return val, inside & ok


def clipped_circle_integral(domain, r):
    grid = domain.grid
    n_theta = max(512, int(8.0 * 2.0 * math.pi * r / min(grid.dx, grid.dw)))
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    val, ok = clipped_bilinear(domain, r * np.cos(theta), r * np.sin(theta))
    return float(val[ok].sum()) * r * (2.0 * math.pi / n_theta)


def clipped_cut_ratio(domain, cut):
    """Both sides and the boundary first, then the admissibility test."""
    if cut.kind == "vertical_line":
        lo, hi = clipped_side_masses(domain, cut.parameter)
        boundary = _vertical_boundary_integral(domain, cut.parameter)
    else:
        lo, hi = _circle_side_masses(domain, cut.parameter)
        boundary = clipped_circle_integral(domain, cut.parameter)
    side = min(lo, hi)
    return None if side <= 0.0 or boundary <= 0.0 else boundary / side


@st.composite
def holed_domains(draw):
    """Random weights on the largest 4-connected piece of a mask with holes,
    on grids that may or may not hold the origin."""
    from scipy.ndimage import label

    nx, nw = draw(st.integers(2, 50)), draw(st.integers(2, 50))
    x0, w0 = draw(st.floats(-4.0, 1.0)), draw(st.floats(-4.0, 1.0))
    grid = TFGrid(x0, x0 + draw(st.floats(0.2, 5.0)), w0, w0 + draw(st.floats(0.2, 5.0)),
                  nx, nw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces, count = label(rng.random(grid.shape) >= draw(st.floats(0.0, 0.4)))
    assume(count > 0)
    mask = pieces == 1 + np.argmax(np.bincount(pieces.ravel())[1:])
    return weighted_domain_from_values(grid, rng.uniform(0.01, 1.0, grid.shape), mask)


@settings(max_examples=150, deadline=None)
@given(holed_domains(), st.lists(st.floats(-0.3, 1.3), max_size=6),
       st.lists(st.floats(0.0, 1.5, exclude_min=True), max_size=6))
def test_cut_quantities_keep_the_clipped_evaluations_bits(dom, x_fracs, r_fracs):
    grid = dom.grid
    xs, ws = grid.x_nodes(), grid.w_nodes()
    edges = (grid.x_min, grid.x_max, grid.w_min, grid.w_max)
    reach = math.hypot(max(abs(grid.x_min), abs(grid.x_max)),
                       max(abs(grid.w_min), abs(grid.w_max)))
    # lines inside and outside the grid, on its ends, its nodes and its cell
    # edges; circles inside it, through it, tangent to its sides and beyond it
    positions = [grid.x_min + f * (grid.x_max - grid.x_min) for f in x_fracs]
    positions += list(xs[::2]) + [xs[-1]] + list(xs[::3] - grid.dx / 2.0)
    positions += list(xs[1::3] + grid.dx / 2.0)
    # a fraction as small as 5e-324 gives a radius of 0, which no circle has
    radii = [f * reach for f in r_fracs if f * reach > 0] + [abs(e) for e in edges if e != 0.0]
    radii += [r for r in np.hypot(xs[::5, None], ws[None, ::5]).ravel() if r > 0]
    cuts = [Cut("vertical_line", float(c)) for c in positions]
    cuts += [Cut("circle", float(r)) for r in radii]
    for cut in cuts:
        if cut.kind == "vertical_line":
            assert _vertical_side_masses(dom, cut.parameter) == clipped_side_masses(
                dom, cut.parameter), cut
        else:
            assert _circle_boundary_integral(dom, cut.parameter) == clipped_circle_integral(
                dom, cut.parameter), cut
        try:
            ratio = cut_ratio(dom, cut)
        except InadmissibleCutError:
            ratio = None
        assert ratio == clipped_cut_ratio(dom, cut), cut
