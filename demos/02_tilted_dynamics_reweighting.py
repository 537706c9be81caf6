"""Exponential tilting of the collision dynamics and exact reweighting.

A pairwise tilt K = 1 + 0.3 |v - v_star| speeds up energetic collisions.
Simulating under the tilted measure Q and reweighting by exp(-log dQ/dP)
recovers base-measure expectations; simulating under P and reweighting by
exp(+log dQ/dP) recovers tilted ones.  Both normalisations are checked by
Monte Carlo, and the tilted fourth moment illustrates importance sampling:
the same Q-ensemble estimates both measures.
"""

import math

import numpy as np

import kaclab as kl


def direct(x):
    """The sample mean and its plain SE."""
    return x.mean(), x.std(ddof=1) / math.sqrt(len(x))


def self_normalised(w, x):
    """sum w x / sum w and its delta-method SE, sqrt(sum w^2 (x - est)^2) / sum w."""
    est = np.sum(w * x) / np.sum(w)
    return est, math.sqrt(np.sum(w**2 * (x - est) ** 2)) / np.sum(w)


N, T, RUNS = 5, 0.6, 20_000
scheme = kl.TiltingScheme.pairwise(1.0, 0.3)

m4_q = np.empty(RUNS)
log_q = np.empty(RUNS)
m4_p = np.empty(RUNS)
log_p = np.empty(RUNS)
print(f"simulating {RUNS} runs of N = {N} under each of P and Q ...")
for k in range(RUNS):
    cfg = kl.SimConfig(n=N, t_max=T, kernel=kl.Kernel.MAXWELL, seed=2, measure="Q",
                       store_log=False, checkpoint_times=(T,))
    traj = kl.simulate(cfg, scheme, rng=kl.make_rng(2, k))
    m4_q[k] = traj.checkpoints[-1].m4
    log_q[k] = traj.rn_ledger.log_rn()
    cfg = kl.SimConfig(n=N, t_max=T, kernel=kl.Kernel.MAXWELL, seed=3, measure="P",
                       store_log=False, checkpoint_times=(T,))
    traj = kl.simulate(cfg, scheme, rng=kl.make_rng(3, k))
    m4_p[k] = traj.checkpoints[-1].m4
    log_p[k] = traj.rn_ledger.log_rn()

for label, vals in (("E_Q[exp(-logRN)]", np.exp(-log_q)), ("E_P[exp(+logRN)]", np.exp(log_p))):
    mean, se = direct(vals)
    print(f"{label} = {mean:.4f} +- {se:.4f}   (must be 1)")

print()
for label, (est, se) in (("under P, direct", direct(m4_p)),
                         ("under P, reweighted Q", self_normalised(np.exp(-log_q), m4_q)),
                         ("under Q, direct", direct(m4_q)),
                         ("under Q, reweighted P", self_normalised(np.exp(log_p), m4_p))):
    print(f"m4(T) {label + ':':<26}{est:.4f} +- {se:.4f}")
