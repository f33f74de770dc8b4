"""The package's one route to LAPACK: scipy.linalg.lapack's own dstebz and
dstein (the eigensolver's lowest pair) and dpttrf and dpttrs (qgt's Sternheimer
solve), with their scipy call signatures.  Each is looked up on first use and
cached here (PEP 562): scipy.linalg loads at the first solve, never in a run
that solves nothing.  Callers call _lapack.<routine>(...) each time, so that a
routine patched here reaches them.
"""

ROUTINES = ("dstebz", "dstein", "dpttrf", "dpttrs")


def __getattr__(name: str):
    if name not in ROUTINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.linalg
    return globals().setdefault(name, getattr(scipy.linalg.lapack, name))
