"""Known-clean snippet for the ``fingerprint-completeness`` rule (never imported)."""


class CleanInference(InferenceAlgorithm):
    """Every parameter is stored (possibly through a local); RNG state is
    exempted by construction because it comes from a seeding helper."""

    def __init__(self, rank, tolerance, rng=None):
        checked = int(rank)
        self.rank = checked
        self.tolerance = float(tolerance)
        self._rng = as_rng(rng)
        self.solver_stats = SolverStats()


def config_key(inference):
    # Generic vars() loop exempting only the known non-semantic types and
    # telemetry attribute: always complete by construction.
    parts = [type(inference).__name__]
    for key in sorted(vars(inference)):
        value = vars(inference)[key]
        if isinstance(value, (Generator, SolverStats)):
            continue
        if key == "solver_stats":
            continue
        parts.append(f"{key}={value!r}")
    return "|".join(parts)
