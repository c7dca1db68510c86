"""Selection policies head to head, and a finding worth knowing about.

Compares the adaptive strongest-subset policy on a dense selective surface
(400 elements in a 3x3-wavelength aperture, 100 ON) against two conventional
half-wavelength surfaces, all with per-realization phase alignment toward the
legitimate receiver:

* the 6x6 surface that fills the same aperture (the library's default
  baseline, `conventional_m = 36`), and
* the 10x10 surface with the same number of active elements, which covers
  5x5 wavelengths, 2.8 times the selective surface's area.

The selective surface wins against the surface of its own size and loses
against the larger one.  The last part isolates why it does not win by more:
both receivers share the feed-leg fading, so selecting elements where the
feed is strong hands the eavesdropper a gain boost too.
"""

from dataclasses import replace

import numpy as np

from frisec import ChannelStream
from frisec.harness import (ExperimentConfig, db_to_linear, estimate_asc,
                            estimate_sop, records_for_budget, simulate_gains)
from frisec.surface import build_correlation

TRIALS = 30_000
cfg = ExperimentConfig(trials=TRIALS, seed=42, m_on=100)

fris_corr = build_correlation(cfg.fris_geometry())  # 400 elements in 3 wavelengths
fris = simulate_gains(fris_corr, "greedy", cfg.m_on, TRIALS, ChannelStream(42, 0))
baselines = {}
for m_conv in (cfg.conventional_m, 100):  # 6x6 over 3x3 wavelengths; 10x10 over 5x5
    conv_geom = replace(cfg, conventional_m=m_conv).conventional_geometry()
    # all m_conv elements ON and co-phased: greedy selection of every element
    baselines[m_conv] = simulate_gains(build_correlation(conv_geom), "greedy",
                                       m_conv, TRIALS, ChannelStream(42, 1))

print("mean equivalent power gains over", TRIALS, "trials:")
for label, g in [("selective 400->100", fris)] + \
        [(f"conventional {m:<5d}", g) for m, g in baselines.items()]:
    # the eavesdropper's mean gain is the mean of its per-trial variance
    print(f"  {label} : legitimate {g.g_bob.mean():9.1f}   "
          f"eavesdropper {g.var_eve.mean():8.1f}   ratio {g.g_bob.mean() / g.var_eve.mean():5.1f}")

base = cfg.budget()
print("\nsecrecy metrics versus the legitimate receiver's average SNR:")
print(f"{'SNR dB':>7} {'ASC sel':>8} {'ASC 6x6':>8} {'ASC 10x10':>10} "
      f"{'SOP sel':>9} {'SOP 6x6':>9} {'SOP 10x10':>10}")
for db in (95.0, 105.0, 115.0):
    b = base.with_avg_snr_bob(db_to_linear(db))
    records = [records_for_budget(g, b) for g in (fris, *baselines.values())]
    asc = [estimate_asc(r).point for r in records]
    sop = [estimate_sop(r, cfg.target()).point for r in records]
    print(f"{db:>7.0f} {asc[0]:>8.3f} {asc[1]:>8.3f} {asc[2]:>10.3f} "
          f"{sop[0]:>9.5f} {sop[1]:>9.5f} {sop[2]:>10.5f}")

print("""
Against the 6x6 surface that fills the same aperture, the selective surface
wins on both secrecy metrics at every SNR: picking the strongest 100 of 400
positions gives a far larger legitimate gain and a better
legitimate-to-eavesdropper ratio than the 36 fixed half-wavelength positions.
Against the 10x10 surface, which has the same number of active elements but
2.8 times the area, it loses: element selection favors positions where the
shared feed fading is strong, and on a densely packed surface the aligned
phases stay partially coherent for the eavesdropper's correlated channel as
well, so the eavesdropper's gain grows faster than the legitimate one.  The
larger surface keeps the better ratio.  The gap between the two eavesdropper
lines below makes the mechanism visible: re-drawing the feed fading
independently for the eavesdropper's cascade (a model change, not an option in
the library proper) collapses most of the eavesdropper's gain; what remains
reflects the eavesdropper's own spatial correlation under the aligned
phases.""")

# isolate the mechanism: eavesdropper gain with the true shared feed vs an
# independent feed draw, same selection and phases; a second stream's two
# links give the independent feed and the eavesdropper's own link
from frisec.channel import correlated_images_batch

st, st2 = ChannelStream(42, 0), ChannelStream(42, 900)
blocks = 10
shared, independent = [], []
r = fris_corr.rank
for blk in range(blocks):
    v, ub = correlated_images_batch(st.draw_block(r, blk)[:, :, :r], fris_corr.factor)
    v_indep, ue = correlated_images_batch(st2.draw_block(r, blk)[:, :, :r], fris_corr.factor)
    c = np.conj(ub) * v
    mags = np.abs(c)
    sel = np.sort(np.argpartition(-mags, cfg.m_on - 1, axis=1)[:, :cfg.m_on], axis=1)
    align = np.take_along_axis(np.conj(c) / mags, sel, axis=1)
    ue_s = np.take_along_axis(np.conj(ue), sel, axis=1)
    shared.append(np.abs((ue_s * np.take_along_axis(v, sel, 1) * align).sum(1)) ** 2)
    independent.append(np.abs((ue_s * np.take_along_axis(v_indep, sel, 1) * align).sum(1)) ** 2)

print(f"eavesdropper mean gain, shared feed:      {np.concatenate(shared).mean():8.1f}")
print(f"eavesdropper mean gain, independent feed: {np.concatenate(independent).mean():8.1f}")
print(f"active elements (diagonal-only reference): {cfg.m_on}")
