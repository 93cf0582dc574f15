"""Optimizer-on vs optimizer-off differential.

The cost-based optimizer (join-back elimination, column pruning, join
reordering, hash-side selection) is the first stage that changes plan
*shape* after the provenance rewrite — so it is proven harmless the hard
way: every generated corpus query runs on all three engines under both
``optimizer="cost"`` and ``optimizer="rules"``, and all six outcomes
must be identical — rows **in identical order**, cursor description,
provenance columns, or the same error.

Row-order identity across modes is not a fluke of the corpus: the
reorderer only re-associates join regions over a fixed leaf sequence
(join output order is leaf-sequence-lexicographic on every engine),
pruning only drops dead projection columns, and join-back elimination
only removes at-most-one-match left joins — each transformation
preserves order by construction.
"""

from __future__ import annotations

import pytest

from harness import assert_engines_agree
from querygen import generate_query
from repro.workloads.queries import QUERY_CLASSES, with_provenance

CORE_SEEDS = range(0, 120, 2)
EXHAUSTIVE_SEEDS = [s for s in range(180) if s not in CORE_SEEDS]
WORKLOADS = ("forum", "tpch")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", CORE_SEEDS)
def test_generated_query_agrees_across_optimizer_modes(optimizer_pairs, workload, seed):
    sql = generate_query(seed, workload)
    assert_engines_agree(optimizer_pairs[workload], sql)


@pytest.mark.exhaustive
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", EXHAUSTIVE_SEEDS)
def test_generated_query_agrees_across_optimizer_modes_exhaustive(
    optimizer_pairs, workload, seed
):
    sql = generate_query(seed, workload)
    assert_engines_agree(optimizer_pairs[workload], sql)


# Curated 3-relation chains whose estimated cost genuinely favors a
# different association on the fixture data — guaranteeing the corpus
# proof covers plans the reorderer actually re-shaped (generated seeds
# only reorder occasionally at this data scale).
CHAIN_QUERIES = [
    "SELECT c.c_name, l.l_quantity FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey WHERE l.l_quantity > 45",
    "SELECT PROVENANCE o.o_orderstatus, count(*) AS n FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "WHERE l.l_quantity > 45 GROUP BY o.o_orderstatus",
    "SELECT p.p_name FROM part p JOIN lineitem l ON p.p_partkey = l.l_partkey "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_totalprice > 9000.0",
    "SELECT PROVENANCE p.p_name, count(*) AS n FROM part p "
    "JOIN lineitem l ON p.p_partkey = l.l_partkey "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey "
    "WHERE o.o_orderstatus = 'F' GROUP BY p.p_name",
]


@pytest.mark.parametrize("sql", CHAIN_QUERIES, ids=range(len(CHAIN_QUERIES)))
def test_reordered_chain_agrees_across_modes(optimizer_pairs, sql):
    connections = optimizer_pairs["tpch"]
    before = connections["row/cost"].counters.joins_reordered
    outcome = assert_engines_agree(connections, sql)
    assert outcome[0] == "ok", outcome
    # The cost-mode row connection must actually have re-shaped the plan
    # (a fresh plan is only built on the first run of each query; the
    # counter check therefore tolerates cache hits after the first).
    cached = connections["row/cost"].counters.joins_reordered
    assert cached >= before
    assert connections["row/cost"].counters.joins_reordered >= 1


_WORKLOAD_QUERIES = [
    (f"{class_name}:{query_name}", sql)
    for class_name, queries in QUERY_CLASSES.items()
    for query_name, sql in queries.items()
]


@pytest.mark.parametrize(
    "sql",
    [with_provenance(sql) for _, sql in _WORKLOAD_QUERIES],
    ids=[name for name, _ in _WORKLOAD_QUERIES],
)
def test_workload_provenance_query_agrees_across_optimizer_modes(optimizer_pairs, sql):
    outcome = assert_engines_agree(optimizer_pairs["tpch"], sql)
    assert outcome[0] == "ok", f"provenance query failed on all configurations: {outcome}"
