"""The metric of the linearized x update, applied through the constraint's products.

The solver never forms it; tests check the optimality identity of the x
update, A^T lam_{k+1} = v + (G/eta)(x_{k+1} - x_k), against it.
"""


def metric_apply(p, params, dx):
    """(G/eta) dx with G = r*I - beta*eta*A^T A."""
    cs = p.constraint
    return (params.r / params.eta) * dx - params.beta * cs.rmatvec(cs.matvec(dx))
