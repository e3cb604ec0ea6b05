"""The Fig. 5 script's summary line and its active-space options."""

import json

from repro.simulator import CHEMICAL_ACCURACY

from run_fig5 import accuracy_summary, main, water_hamiltonian


def point(m, error):
    return {"n_terms": m, "energy": 0.0, "error": error}


def test_summary_names_first_accurate_size():
    series = [point(1, 0.02), point(2, CHEMICAL_ACCURACY), point(3, 0.0001)]
    assert accuracy_summary(series) == (2, "Chemical accuracy reached at M = 2")


def test_summary_says_when_accuracy_is_missed():
    # Fig. 5's default space ends M = 17 at 2.82 mHa, above the threshold.
    series = [point(m, 0.00282 + 0.001 * (17 - m)) for m in range(1, 18)]
    assert accuracy_summary(series) == (None, "Chemical accuracy not reached by M = 17")
    assert accuracy_summary([]) == (None, "Chemical accuracy not reached by M = 0")


def test_paper_water_has_fourteen_spin_orbitals():
    _, hamiltonian = water_hamiltonian(frozen=0, active=7)
    assert (hamiltonian.n_spin_orbitals, hamiltonian.n_electrons) == (14, 10)


def test_run_records_the_summary(tmp_path, capsys):
    output = tmp_path / "fig5.json"
    main(["--active", "5", "--max-terms", "1", "--output", str(output)])
    record = json.loads(output.read_text())
    assert (record["frozen_spatial_orbitals"], record["n_spin_orbitals"]) == (1, 10)
    reached, summary = accuracy_summary(record["series"])
    assert (record["chemical_accuracy_at"], record["summary"]) == (reached, summary)
    assert summary in capsys.readouterr().out
