"""Finding (or ruling out) product-operator symmetries of a state.

Three layers: the Lie-algebra dimension catches continuous symmetry,
a randomized compact-group search catches isolated unitary symmetry,
and a phase-augmented search catches symmetries that act as a global
phase.  The full pipeline combines them into a single verdict, and
certifies a state with no search when the two-qubit correlation tensors
leave only the identity rotation (a one-dimensional commutant).
"""

from localsym import (
    gtilde_triviality_probe,
    lie_stabilizer_dim,
    make_gabcd,
    make_ghz,
    make_ln,
    phase_stabilizer_search,
    sample_haar_state,
)

# GHZ states keep a continuous symmetry group: lie_dim = n - 1.
for psi, name in [(make_ghz(3), "GHZ_3"), (make_ghz(4), "GHZ_4"),
                  (make_ln(5), "L_5")]:
    print(name, "lie_dim =", lie_stabilizer_dim(psi).lie_dim)

# The four-qubit seed state always commutes with the three uniform Pauli
# strings; the discrete search enumerates them from the two-qubit
# correlation tensors (start path pair_exact), whatever the restarts.
psi = make_gabcd(1, 2 + 1j, 3, 0.5)
verdict = gtilde_triviality_probe(psi, restarts=32, seed=0)
print("\nseed state verdict:", verdict.verdict, "via", verdict.failed_gate)
print("discrete candidates found:", len(verdict.probe.discrete_candidates))

# L_5 has no plain unitary symmetry, but a product of diag(-i, i)
# factors reproduces it up to the global phase i.
hits = phase_stabilizer_search(make_ln(5), 1j, restarts=16, seed=0)
chain, residual = min(hits, key=lambda h: h[1])
print("\nL_5 phase witness residual:", residual)
print("first factor:\n", chain.factors[0].round(12))

# A Haar-random 5-qubit state has no symmetry at all: its pair-tensor
# commutant is one-dimensional, which certifies that with no search.
verdict = gtilde_triviality_probe(sample_haar_state(5, 7))
print("\nhaar n=5 verdict:", verdict.verdict, "via", verdict.probe.start_path)
