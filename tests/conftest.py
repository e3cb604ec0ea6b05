"""Put ``tests/`` on the import path.

Every test directory then imports the shared oracle modules at the top of the
test tree, such as ``operator_oracle`` (the dict operator algebra), by name.
"""

import sys
from pathlib import Path

TESTS_DIR = str(Path(__file__).parent)
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)
