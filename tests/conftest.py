"""Shared fixtures: the paper's forum database and the TPC-H-like
benchmark database."""

from __future__ import annotations

import pytest

import repro
from repro import Connection
from repro.storage.mvcc import TransactionManager, activate
from repro.workloads.forum import create_forum_db
from repro.workloads.tpch import TpchConfig, create_tpch_db


@pytest.fixture
def db() -> Connection:
    """An empty session (engine-level Relation-returning run())."""
    return repro.connect()


@pytest.fixture
def forum_db() -> Connection:
    """The paper's Figure 1 database (fresh per test — tests mutate it)."""
    return create_forum_db()


@pytest.fixture(scope="session")
def tpch_db() -> Connection:
    """A small TPC-H-like database, shared read-only across tests."""
    return create_tpch_db(TpchConfig(customers=30, orders=120, parts=20))


@pytest.fixture
def autocommit():
    """``autocommit(write, *args)`` runs a storage-level write the way a
    connection runs an autocommit statement: in a one-shot transaction
    that commits as *write* returns and rolls back if it raises (heap
    tables accept writes only inside a transaction)."""
    manager = TransactionManager(lambda: ())

    def run(write, *args):
        txn = manager.begin()
        try:
            with activate(txn):
                result = write(*args)
        except BaseException:
            txn.rollback()
            raise
        txn.commit()
        return result

    return run


def rows_set(relation):
    """Order-insensitive row comparison helper."""
    return sorted(relation.rows, key=repr)
