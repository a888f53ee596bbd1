# Measured disagreement against its theoretical ceiling.
#
# The bound is only claimed inside a narrow step-size regime, and the
# constants all come from the network and problem at hand, so the script
# derives them first and refuses to continue if the regime is invalid.

import numpy as np

from gossipshield import (
    DecayingSchedule,
    benchmark_problem,
    build_network,
    rho_upper_bound,
    run_ensemble,
    theory_constants,
    validate_schedule,
)

net = build_network("random", 50, byz_fraction=0.0, seed=2, edge_p=0.2)
prob = benchmark_problem((), 50)

consts = theory_constants(
    net, rho_upper_bound(net), prob.smoothness, prob.pl_constant,
    prob.sigma_sq, prob.zeta_sq, 1e-6, prob.dim,
)
print(f"mixing lambda={consts.mixing_sq:.4f}  phi={consts.phi:.4f}  "
      f"admissible step scale={consts.theta_min:.3e}  offset k0={consts.k0}")
assert consts.regime_valid, "constants fell outside the guaranteed regime"

# the admissible schedule is tiny, which is exactly the point: the bound
# trades speed for a ceiling that provably holds
sched = DecayingSchedule(scale=consts.theta_min, k0=consts.k0)
validate_schedule(sched, consts, strict=True)
ens = run_ensemble(net, prob, sched, 1500, range(1, 9), consts=consts,
                   noise=1e-6, agg="scc", tau=1e6)

rows = (0, 10, 100, 500, 1500)
print("\n    k   mean disagreement      ceiling")
for k in rows:
    print(f"{k:5d}   {ens.consensus_mean[k]:.6e}   {ens.dk_bound[k]:.6e}")

frac = float(np.mean(ens.consensus_mean <= ens.dk_bound))
print(f"\nceiling respected in {100 * frac:.1f}% of rounds "
      f"({len(ens.k)} rounds, {len(ens.logs)} seeds)")
