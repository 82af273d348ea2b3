"""Run the CLI via ``python -m heatcg``."""

import os
import sys

# heatcg calls no BLAS routine; a second OpenBLAS thread only spins after numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from .cli import main  # noqa: E402  (numpy must load after the line above)

if __name__ == "__main__":
    sys.exit(main())
