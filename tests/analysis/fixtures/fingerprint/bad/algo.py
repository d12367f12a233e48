"""Known-bad snippet for the ``fingerprint-completeness`` rule (never imported)."""


class DroppedParamInference(InferenceAlgorithm):
    """`tolerance` configures nothing observable: it never reaches self."""

    def __init__(self, rank, tolerance):
        self.rank = int(rank)


class NarrowlyPrintedInference(InferenceAlgorithm):
    def __init__(self, rank, backend):
        self.rank = int(rank)
        self.backend = str(backend)


def config_key(inference):
    # Explicit key list that omits `backend`: two differently-backed
    # instances would share cached completions.
    parts = [type(inference).__name__]
    for key in ("rank",):
        parts.append(f"{key}={getattr(inference, key)!r}")
    return "|".join(parts)
