"""Contract of the list-backed :class:`TaskQueue`.

Workers hold a reference to ``queue._items`` and peek at its truthiness
as a free shared-memory read, so besides FIFO order the queue promises
that ``_items`` is one list object for its whole life and is empty
exactly when there is no work.
"""

import random

from repro.threads import TaskQueue


def drain(queue):
    out = []
    while True:
        item = queue.pop()
        if item is None:
            return out
        out.append(item)


def test_fifo_order():
    queue = TaskQueue("q")
    for i in range(10):
        queue.push(i)
    assert len(queue) == 10
    assert drain(queue) == list(range(10))
    assert queue.pop() is None
    assert (queue.enqueued, queue.dequeued) == (10, 10)


def test_push_front_after_a_partial_drain():
    queue = TaskQueue("q")
    for i in range(6):
        queue.push(i)
    assert [queue.pop() for _ in range(2)] == [0, 1]
    queue.push_front("urgent")  # reuses the consumed head slot
    queue.push_front("first")
    queue.push_front("zeroth")  # no consumed slot left: inserts
    queue.push(6)
    assert len(queue) == 8
    assert drain(queue) == ["zeroth", "first", "urgent", 2, 3, 4, 5, 6]
    queue.push_front("only")
    assert drain(queue) == ["only"]


def test_items_is_one_list_and_falsy_once_drained():
    queue = TaskQueue("q")
    items = queue._items
    assert not items
    for i in range(5):
        queue.push(i)
    queue.pop()
    assert items and queue._items is items
    drain(queue)
    assert queue._items is items
    assert not items and len(queue) == 0
    queue.push("again")
    assert items == ["again"]


def test_consumed_slots_release_their_tasks():
    queue = TaskQueue("q")
    for i in range(8):
        queue.push(("task", i))
    queue.pop()
    queue.pop()
    assert ("task", 0) not in queue._items
    assert ("task", 1) not in queue._items


def test_high_water_counts_live_depth_not_list_length():
    queue = TaskQueue("q")
    for i in range(4):
        queue.push(i)
    assert queue.high_water == 4
    queue.pop()  # one consumed slot stays in the list
    queue.push(4)
    assert len(queue._items) == 5 and len(queue) == 4
    assert queue.high_water == 4
    queue.push_front("u")
    assert queue.high_water == 5


def test_interleaved_operations_keep_the_list_bounded():
    rng = random.Random(7)
    queue = TaskQueue("q")
    reference = []
    for step in range(10_000):
        roll = rng.random()
        if roll < 0.45:
            queue.push(step)
            reference.append(step)
        elif roll < 0.55:
            queue.push_front(step)
            reference.insert(0, step)
        else:
            expected = reference.pop(0) if reference else None
            assert queue.pop() == expected
        assert len(queue) == len(reference)
        assert bool(queue._items) == bool(reference)
        assert len(queue._items) <= 2 * len(reference) + 2
    assert drain(queue) == reference
