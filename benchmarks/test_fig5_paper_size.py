"""Fig. 5 at the paper's size: full water, 14 spin orbitals, M = 1..20.

``python benchmarks/run_fig5.py --frozen 0 --active 7 --max-terms 20`` runs
the same adaptive VQE.  The paper reaches chemical accuracy at M = 17; this
reproduction ends M = 17 at 2.898 mHa and first reaches it at M = 20.  The
series below is the recorded one, so a change that moves any error by more
than 1e-6 Ha fails here.  A study that closes the gap to the paper moves it on
purpose and re-records the series and the first accurate M with it.
"""

import numpy as np

from repro.simulator import CHEMICAL_ACCURACY, fci_ground_state_energy
from repro.vqe import adaptive_vqe, hmp2_ranked_terms

from run_fig5 import accuracy_summary, water_hamiltonian

#: |E_VQE − E_FCI| in mHa for M = 1..20, as recorded.
RECORDED_ERRORS_MHA = (
    36.895, 33.216, 29.373, 25.500, 22.909, 20.644, 17.774, 14.894, 11.965, 9.737,
    7.732, 6.938, 5.581, 4.159, 3.264, 3.084, 2.898, 2.692, 2.468, 1.569,
)


def test_paper_size_errors_match_the_recorded_series():
    _, hamiltonian = water_hamiltonian(frozen=0, active=7)
    assert (hamiltonian.n_spin_orbitals, hamiltonian.n_electrons) == (14, 10)
    exact = fci_ground_state_energy(hamiltonian)
    result = adaptive_vqe(
        hamiltonian, hmp2_ranked_terms(hamiltonian), max_terms=20, exact_energy=exact
    )

    assert result.n_terms == list(range(1, 21))
    errors = np.array(result.errors())
    assert np.abs(errors - 1e-3 * np.array(RECORDED_ERRORS_MHA)).max() <= 1e-6
    assert errors[16] > CHEMICAL_ACCURACY  # the paper's M = 17
    series = [{"n_terms": m, "error": error} for m, error in zip(result.n_terms, errors)]
    assert accuracy_summary(series)[0] == 20
