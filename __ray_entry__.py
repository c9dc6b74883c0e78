"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship spatial-join + tiling pipeline on
sf0.001; ``queries()`` exposes one Ray pipeline per implemented
operator family (SURVEY.md §2 + the training-data ops); ``oracle_sql``
gives the DuckDB-equivalent SQL (full value-hash parity — including a
complete SQL re-implementation of the rHEALPix forward projection and
SUID digit chain, see rhealpixdggs_py_ray/oracle.py).

Both maps are derived from the ``pipelines.queries`` namespace: every
``q_<stem>`` is the query ``<stem>`` and ``sql_<stem>`` is its oracle,
except for the stems listed in ``_KEY_AND_ORACLE``.

Ray is initialised by the driver before this module is imported;
nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

# q_ stem -> (driver key, sql_ stem) where either differs from the stem.
_KEY_AND_ORACLE = {
    "minhash_lsh": ("dedup_minhash_lsh", "minhash_lsh"),
    "simhash": ("dedup_simhash", "simhash"),
    "ngram_jaccard": ("dedup_ngram_jaccard", "ngram_jaccard"),
    "embedding_dedup": ("dedup_embedding", "embedding_dedup"),
    "embedding_dedup_lsh": ("dedup_embedding_lsh", "embedding_dedup_lsh"),
    "quality": ("quality_score", "quality"),
    "compress": ("compress_cells", "compress"),
    "knn_rings": ("knn_rings", "knn"),
}


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: derive coordinates,
    index every event to its resolution-9 rHEALPix cell (actor-pool
    map_batches over zero-copy Arrow), assign SUID-prefix tiles, and
    aggregate per-tile counts with the combiner and a driver fold."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    return Q.q_tile_counts("/root/testdata/sf0.001")


def _registry() -> Iterator[tuple[str, Callable, Callable[[], str]]]:
    """Yield (key, query, oracle) for every ``q_*`` in the namespace."""
    from rhealpixdggs_py_ray.pipelines import queries as Q

    for name in dir(Q):
        if name.startswith("q_"):
            stem = name[2:]
            key, sql_stem = _KEY_AND_ORACLE.get(stem, (stem, stem))
            yield key, getattr(Q, name), getattr(Q, "sql_" + sql_stem)


def queries() -> dict[str, Callable[[str], Any]]:
    return {key: q for key, q, _ in _registry()}


def oracle_sql() -> dict[str, str]:
    return {key: sql() for key, _, sql in _registry()}
