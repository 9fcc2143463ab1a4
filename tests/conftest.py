import os
import tempfile

from hypothesis import settings

# Fixed example sequences, no example database, and no per-example deadline
# on a loaded machine.
settings.register_profile("tokenlens", derandomize=True, database=None, deadline=None)
settings.load_profile("tokenlens")

# Hypothesis still caches parsed constants and Unicode tables on disk, from
# collection on; keep them in the system temporary directory, not in the
# checkout.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "tokenlens-hypothesis")
)
