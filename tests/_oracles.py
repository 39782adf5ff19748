"""Reference computations shared by the test modules."""

import numpy as np

from arcmig.forward import BoundaryCondition as BC


def far_field_direct_sums(sol, obs):
    """u_inf of one density at each observation direction as a plain
    weighted sum over the quadrature nodes, one direction at a time."""
    disc = sol.disc
    weighted = disc.quad_weights[0] * sol.values
    out = []
    for xhat in obs:
        phases = np.exp(-1j * sol.k * (disc.points[0] @ xhat))
        if disc.bc is BC.DIRICHLET:
            pref = np.exp(1j * np.pi / 4.0) / np.sqrt(8.0 * np.pi * sol.k)
            out.append(pref * np.sum(phases * weighted))
        else:
            pref = -np.sqrt(sol.k / (8.0 * np.pi)) * np.exp(-1j * np.pi / 4.0)
            out.append(pref * np.sum((disc.normals[0] @ xhat) * phases * weighted))
    return np.array(out)
