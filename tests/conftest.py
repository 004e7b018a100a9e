"""Hold BLAS to one thread before numpy is first imported, as
``perfbench/run.py`` does: the suite's timed tests then do not contend
with their own BLAS threads when other work shares the cores."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
