"""Structure-preserving toolkit for poroelastic port-Hamiltonian descriptor systems.

Modules
-------
numkit
    Sparse linear algebra with explicit structural checks and MatrixMarket IO.
fem
    P1 triangular finite elements on the unit square with Dirichlet elimination.
phdae
    The descriptor-system quadruple (E, J, R, G), its energy and validation.
formulations
    Builders for every supported poroelastic formulation.
dae_analysis
    Differentiation-index classification, consistent initialization,
    hidden-constraint diagnostics, output-feedback regularization.
interconnect
    Power-conserving aggregation, output feedback and subsystem couplings.
timeint
    Implicit midpoint / Euler integration with a per-step energy ledger.
cli
    JSON-scenario command line: check | simulate | compare | export.
"""

__version__ = "0.1.0"
