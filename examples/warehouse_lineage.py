"""Data-warehouse lineage: drilling from aggregates to base tuples.

The second classic provenance application the paper's §1 names is data
warehousing (the Cui–Widom lineage work [2] it cites is exactly this
setting): a rolled-up report cell looks wrong, and the analyst needs the
base transactions behind it.

Scenario: a retail warehouse aggregates order lines into a revenue
report per market segment. One segment's revenue looks off; Perm's
aggregation-rule provenance returns, for that report row, every
customer, order and line item that contributed — and because provenance
is a relation, the drill-down is just more SQL.

Run:  python examples/warehouse_lineage.py
"""

from __future__ import annotations

from repro import connect
from repro.workloads.tpch import TpchConfig, create_tpch_db


def main() -> None:
    db = create_tpch_db(TpchConfig(customers=25, orders=80, parts=15, seed=7))

    report_sql = """
        SELECT c_mktsegment,
               count(*) AS line_count,
               CAST(round(sum(l_extendedprice * (1.0 - l_discount))) AS int) AS revenue
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON o_orderkey = l_orderkey
        GROUP BY c_mktsegment
    """

    print("The revenue report:")
    report = db.run(report_sql + " ORDER BY revenue DESC")
    print(report.format(), "\n")
    suspicious = report.rows[0][0]
    print(f"analyst: segment {suspicious!r} looks too high — drill down.\n")

    # Provenance of the whole report: one row per contributing
    # (customer, order, lineitem) witness combination.
    db.run(f"CREATE TABLE report_prov AS SELECT PROVENANCE {report_sql.strip()[7:]}")

    witnesses = db.run(
        f"""
        SELECT prov_customer_c_name, prov_orders_o_orderkey,
               prov_lineitem_l_linenumber, prov_lineitem_l_extendedprice
        FROM report_prov
        WHERE c_mktsegment = '{suspicious}'
        ORDER BY prov_lineitem_l_extendedprice DESC
        LIMIT 5
        """
    )
    print(f"top 5 contributing line items for {suspicious!r}:")
    print(witnesses.format(), "\n")

    # Lineage analytics over stored provenance: which customers dominate
    # the suspicious cell?
    dominators = db.run(
        f"""
        SELECT prov_customer_c_name AS customer,
               count(*) AS lines,
               CAST(round(sum(prov_lineitem_l_extendedprice)) AS int) AS gross
        FROM report_prov
        WHERE c_mktsegment = '{suspicious}'
        GROUP BY prov_customer_c_name
        ORDER BY gross DESC
        LIMIT 3
        """
    )
    print("customers dominating the cell:")
    print(dominators.format(), "\n")

    # Sanity check the lineage property: replaying the report on only the
    # witness tuples reproduces the suspicious cell exactly.
    replay = connect()
    replay.run(
        """
        CREATE TABLE customer (c_custkey int, c_name text, c_nationkey int,
                               c_acctbal float, c_mktsegment text);
        CREATE TABLE orders (o_orderkey int, o_custkey int, o_orderstatus text,
                             o_totalprice float, o_orderpriority int);
        CREATE TABLE lineitem (l_orderkey int, l_partkey int, l_linenumber int,
                               l_quantity int, l_extendedprice float, l_discount float,
                               l_returnflag text);
        """
    )
    for relation in ("customer", "orders", "lineitem"):
        prefix = f"prov_{relation}_"
        columns = [c for c in db.run("SELECT * FROM report_prov LIMIT 0").columns
                   if c.startswith(prefix)]
        fragments = db.run(
            f"SELECT DISTINCT {', '.join(columns)} FROM report_prov "
            f"WHERE c_mktsegment = '{suspicious}'"
        )
        replay.load_rows(relation, [row for row in fragments.rows
                                    if not all(v is None for v in row)])
    replayed = replay.run(report_sql)
    cell = [row for row in replayed.rows if row[0] == suspicious]
    original_cell = [row for row in report.rows if row[0] == suspicious]
    print("replay on witnesses reproduces the cell:", cell == original_cell)
    assert cell == original_cell


if __name__ == "__main__":
    main()
