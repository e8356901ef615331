/** @file Unit tests for thread groups and the group pool. */

#include <gtest/gtest.h>

#include <vector>

#include "threads/thread_group.hh"

namespace
{

using namespace lsched::threads;

void
noop(void *, void *)
{
}

TEST(GroupPool, AllocatesEmptyGroups)
{
    GroupPool pool(8);
    ThreadGroup *g = pool.allocate();
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->count, 0u);
    EXPECT_EQ(g->capacity, 8u);
    EXPECT_EQ(g->next, nullptr);
    EXPECT_FALSE(g->full());
}

TEST(GroupPool, PushFillsGroup)
{
    GroupPool pool(2);
    ThreadGroup *g = pool.allocate();
    g->push(&noop, reinterpret_cast<void *>(1),
            reinterpret_cast<void *>(2));
    EXPECT_EQ(g->count, 1u);
    EXPECT_FALSE(g->full());
    g->push(&noop, nullptr, nullptr);
    EXPECT_TRUE(g->full());
    EXPECT_EQ(g->specs[0].arg1, reinterpret_cast<void *>(1));
    EXPECT_EQ(g->specs[0].arg2, reinterpret_cast<void *>(2));
}

TEST(GroupPool, RecycleChainReusesMemory)
{
    GroupPool pool(4);
    ThreadGroup *a = pool.allocate();
    ThreadGroup *b = pool.allocate();
    a->next = b;
    a->push(&noop, nullptr, nullptr);
    b->push(&noop, nullptr, nullptr);
    pool.recycleChain(a);
    EXPECT_EQ(pool.allocatedGroups(), 2u);

    // Recycled groups come back reset, no new allocation.
    ThreadGroup *c = pool.allocate();
    ThreadGroup *d = pool.allocate();
    EXPECT_EQ(c->count, 0u);
    EXPECT_EQ(d->count, 0u);
    EXPECT_EQ(pool.allocatedGroups(), 2u);
    // Set semantics: the two recycled groups are a and b in some order.
    EXPECT_TRUE((c == a && d == b) || (c == b && d == a));
}

TEST(GroupPool, RecycleNullChainIsSafe)
{
    GroupPool pool(4);
    pool.recycleChain(nullptr);
    EXPECT_EQ(pool.allocatedGroups(), 0u);
}

TEST(GroupPool, SteadyStateForkingAllocatesNothingNew)
{
    GroupPool pool(16);
    // Simulate three run cycles of 10 groups each.
    for (int cycle = 0; cycle < 3; ++cycle) {
        ThreadGroup *head = nullptr;
        for (int i = 0; i < 10; ++i) {
            ThreadGroup *g = pool.allocate();
            g->next = head;
            head = g;
        }
        pool.recycleChain(head);
    }
    EXPECT_EQ(pool.allocatedGroups(), 10u);
}

TEST(GroupPool, RewindRelinksInCarvingOrder)
{
    // Carve two and a half slabs, in carving order.
    GroupPool pool(4);
    const std::size_t carved = 2 * GroupPool::kSlabGroups + 5;
    std::vector<ThreadGroup *> order;
    for (std::size_t i = 0; i < carved; ++i)
        order.push_back(pool.allocate());
    const std::size_t slabs = pool.slabCount();
    ASSERT_EQ(slabs, 3u);

    // Give them back scrambled, as a tour recycles bin chains: in
    // reverse, every other group first.
    for (std::size_t parity = 0; parity < 2; ++parity) {
        for (std::size_t i = carved; i-- > 0;) {
            if (i % 2 == parity) {
                order[i]->next = nullptr;
                order[i]->push(&noop, nullptr, nullptr);
                pool.recycleChain(order[i]);
            }
        }
    }
    pool.rewind();

    // Every group comes back in (slab, index) order, empty, with no
    // new slab and no new group carved.
    for (std::size_t i = 0; i < carved; ++i) {
        ThreadGroup *g = pool.allocate();
        ASSERT_EQ(g, order[i]) << "group " << i;
        EXPECT_EQ(g->count, 0u);
        EXPECT_EQ(g->next, nullptr);
    }
    EXPECT_EQ(pool.slabCount(), slabs);
    EXPECT_EQ(pool.allocatedGroups(), carved);

    // Past the rewound groups, carving resumes in the last slab.
    ThreadGroup *next = pool.allocate();
    EXPECT_EQ(next, order.back() + 1);
    EXPECT_EQ(next->specs, order.back()->specs + pool.capacity());
    EXPECT_EQ(pool.allocatedGroups(), carved + 1);
    EXPECT_EQ(pool.slabCount(), slabs);
}

TEST(GroupPool, RewindWaitsForAPoolsWorthOfRecycledGroups)
{
    // A large batch carves 32 groups and gives them all back: the
    // rewind relinks them.
    GroupPool pool(4);
    const std::size_t carved = 2 * GroupPool::kSlabGroups;
    std::vector<ThreadGroup *> order;
    for (std::size_t i = 0; i < carved; ++i)
        order.push_back(pool.allocate());
    for (ThreadGroup *g : order) {
        g->next = nullptr;
        pool.recycleChain(g);
    }
    pool.rewind();
    ASSERT_EQ(pool.allocate(), order[0]);
    ASSERT_EQ(pool.allocate(), order[1]);

    // A small run gives its two groups back as one chain, which puts
    // them on top in reverse: too few to be worth a walk over all 32,
    // so the rewind leaves them there.
    order[0]->next = order[1];
    pool.recycleChain(order[0]);
    pool.rewind();
    EXPECT_EQ(pool.allocate(), order[1]);
    EXPECT_EQ(pool.allocate(), order[0]);
    EXPECT_EQ(pool.allocate(), order[2]);
    for (std::size_t i = 0; i < 3; ++i)
        pool.recycleChain(order[i]);

    // Once as many groups as were carved have come back since the last
    // rewind, the next one relinks them all again.
    for (std::size_t round = 0; round < carved / 2; ++round) {
        ThreadGroup *a = pool.allocate();
        a->next = pool.allocate();
        pool.recycleChain(a);
    }
    pool.rewind();
    for (std::size_t i = 0; i < carved; ++i)
        ASSERT_EQ(pool.allocate(), order[i]) << "group " << i;
    EXPECT_EQ(pool.allocatedGroups(), carved);
}

TEST(GroupPool, RewindOfAnEmptyPoolIsSafe)
{
    GroupPool pool(4);
    pool.rewind();
    EXPECT_EQ(pool.allocatedGroups(), 0u);
    EXPECT_NE(pool.allocate(), nullptr);
    EXPECT_EQ(pool.allocatedGroups(), 1u);
}

TEST(GroupPoolDeathTest, ZeroCapacityPanics)
{
    EXPECT_DEATH(GroupPool(0), "capacity");
}

} // namespace
