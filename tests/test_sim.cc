/**
 * @file
 * Unit tests for the simulation kernel: event-queue ordering and
 * determinism, clock-domain arithmetic (including DVFS frequencies),
 * statistics registry, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace bvl
{
namespace
{

TEST(EventQueueTest, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueTest, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, EventsMayScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.schedule(1, chain);
    };
    eq.schedule(1, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueueTest, RunUntilStopsOnPredicate)
{
    EventQueue eq;
    int count = 0;
    bool stop = false;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(i * 10, [&] { stop = ++count >= 5; });
    bool reached = eq.runUntil(stop);
    EXPECT_TRUE(reached);
    EXPECT_EQ(count, 5);
    EXPECT_LT(eq.now(), 100u);
}

TEST(EventQueueTest, RunHonoursTickLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(1000, [&] { ++fired; });
    EXPECT_FALSE(eq.run(100));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.scheduleAt(50, [] {}), SimPanicError);
    // The failed schedule must not corrupt the queue.
    EXPECT_TRUE(eq.empty());
    eq.schedule(10, [] {});
    EXPECT_TRUE(eq.run());
}

TEST(EventQueueTest, SameTickEventsFireInFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Three events at the same tick, scheduled out of order relative
    // to a later and an earlier one.
    eq.schedule(50, [&] { order.push_back(1); });
    eq.schedule(50, [&] { order.push_back(2); });
    eq.schedule(20, [&] { order.push_back(0); });
    eq.schedule(50, [&] { order.push_back(3); });
    // An event scheduling more work for its own tick runs it after
    // everything already queued for that tick.
    eq.schedule(50, [&] {
        order.push_back(4);
        eq.schedule(0, [&] { order.push_back(5); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

/** Intrusive event that appends a tag to a shared order vector. */
class TagEvent : public Event
{
  public:
    TagEvent(std::vector<int> &order, int tag) : order(order), tag(tag) {}
    void process() override { order.push_back(tag); }

  private:
    std::vector<int> &order;
    int tag;
};

TEST(EventQueueTest, IntrusiveAndClosureEventsShareFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    TagEvent a(order, 1), b(order, 3), c(order, 5);
    // Alternate intrusive and closure scheduling at one tick: both
    // kinds draw sequence numbers from the same counter, so the fire
    // order is exactly the schedule order regardless of kind.
    eq.scheduleAt(a, 40);
    eq.scheduleAt(40, [&] { order.push_back(2); });
    eq.scheduleAt(b, 40);
    eq.scheduleAt(40, [&] { order.push_back(4); });
    eq.scheduleAt(c, 40);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueueTest, DescheduleAndRescheduleIntrusiveEvent)
{
    EventQueue eq;
    std::vector<int> order;
    TagEvent ev(order, 7);

    eq.scheduleAt(ev, 10);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(eq.size(), 1u);

    // Descheduling leaves an empty bucket behind; the queue must
    // neither fire nor count anything there.
    eq.deschedule(ev);
    EXPECT_FALSE(ev.scheduled());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), maxTick);

    // Rescheduling to a different tick fires exactly once, there.
    eq.reschedule(ev, 25);
    EXPECT_TRUE(ev.scheduled());
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{7}));
    EXPECT_EQ(eq.now(), 25u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueueTest, RandomScheduleMatchesReferenceOrder)
{
    // Random schedule / deschedule / reschedule of intrusive events
    // mixed with closures and steps, checked against a reference model
    // that fires the smallest (when, seq) armed entry, where seq counts
    // schedule calls (deschedule consumes none).
    constexpr int numProbes = 12;
    EventQueue eq;
    std::vector<int> fired;
    std::vector<std::unique_ptr<TagEvent>> probes;
    for (int i = 0; i < numProbes; ++i)
        probes.push_back(std::make_unique<TagEvent>(fired, i));
    std::set<std::tuple<Tick, std::uint64_t, int>> ref;
    std::vector<std::optional<std::pair<Tick, std::uint64_t>>> armed(
        numProbes);
    std::uint64_t seq = 0;
    int nextClosure = numProbes;
    Rng rng(2024);

    auto stepOnce = [&] {
        auto [when, s, id] = *ref.begin();
        ref.erase(ref.begin());
        if (id < numProbes)
            armed[id].reset();
        std::size_t before = fired.size();
        ASSERT_TRUE(eq.step());
        ASSERT_EQ(fired.size(), before + 1);
        EXPECT_EQ(fired.back(), id);
        EXPECT_EQ(eq.now(), when);
    };

    for (int round = 0; round < 5000; ++round) {
        Tick when = eq.now() + rng.below(6) * 10;
        int i = static_cast<int>(rng.below(numProbes));
        switch (rng.below(4)) {
          case 0: {
            int id = nextClosure++;
            eq.scheduleAt(when, [&fired, id] { fired.push_back(id); });
            ref.insert({when, seq++, id});
            break;
          }
          case 1:
            if (armed[i])
                ref.erase({armed[i]->first, armed[i]->second, i});
            eq.reschedule(*probes[i], when);
            armed[i] = {{when, seq}};
            ref.insert({when, seq++, i});
            break;
          case 2:
            if (armed[i]) {
                eq.deschedule(*probes[i]);
                ref.erase({armed[i]->first, armed[i]->second, i});
                armed[i].reset();
            }
            break;
          default:
            if (ref.empty())
                EXPECT_FALSE(eq.step());
            else
                stepOnce();
            break;
        }
        ASSERT_EQ(eq.size(), ref.size());
        if (::testing::Test::HasFailure())
            return;
    }
    while (!ref.empty() && !::testing::Test::HasFailure())
        stepOnce();
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueTest, SeededMixFiresInSortedTickSeqOrder)
{
    // Every way of arming an event, mixed at random: closures,
    // intrusive reschedule and deschedule, same-tick bursts, closures
    // that schedule at now() from inside their handler, and events
    // armed at slots reserved earlier. Peeking at the next tick drops
    // drained buckets, so later schedules at now() land before the
    // front. A reference model files each arming under (tick, seq),
    // where seq counts schedules and reservations, and every step
    // must fire its smallest entry.
    constexpr int numProbes = 16;
    EventQueue eq;
    std::vector<int> fired;
    std::vector<std::unique_ptr<TagEvent>> probes;
    for (int i = 0; i < numProbes; ++i)
        probes.push_back(std::make_unique<TagEvent>(fired, i));
    std::set<std::tuple<Tick, std::uint64_t, int>> ref;
    std::vector<std::optional<std::pair<Tick, std::uint64_t>>> armed(
        numProbes);
    std::vector<std::pair<Tick, std::uint64_t>> reserved;
    unsigned slotSchedules = 0;
    std::uint64_t seq = 0;
    int nextClosure = numProbes;
    Rng rng(0x5eed);

    auto closure = [&](Tick when, bool spawns) {
        int id = nextClosure++;
        eq.scheduleAt(when, [&, id, spawns] {
            fired.push_back(id);
            if (!spawns)
                return;
            int child = nextClosure++;
            eq.schedule(0, [&fired, child] { fired.push_back(child); });
            ref.insert({eq.now(), seq++, child});
        });
        ref.insert({when, seq++, id});
    };
    auto disarm = [&](int i) {
        if (armed[i])
            ref.erase({armed[i]->first, armed[i]->second, i});
        armed[i].reset();
    };
    auto stepOnce = [&] {
        auto [when, s, id] = *ref.begin();
        ref.erase(ref.begin());
        if (id < numProbes)
            armed[id].reset();
        std::size_t before = fired.size();
        ASSERT_TRUE(eq.step());
        ASSERT_EQ(fired.size(), before + 1);
        EXPECT_EQ(fired.back(), id);
        EXPECT_EQ(eq.now(), when);
        EXPECT_EQ(eq.runningSeq(), s);
    };

    for (int round = 0; round < 20000; ++round) {
        Tick when = eq.now() + rng.below(5) * 10;
        int i = static_cast<int>(rng.below(numProbes));
        switch (rng.below(9)) {
          case 0:
            closure(when, false);
            break;
          case 7:
            EXPECT_EQ(eq.nextEventTick(),
                      ref.empty() ? maxTick : std::get<0>(*ref.begin()));
            break;
          case 1:
            closure(when, true);
            break;
          case 2:
            for (unsigned n = 1 + rng.below(6); n > 0; --n)
                closure(when, false);
            break;
          case 3:
            disarm(i);
            eq.reschedule(*probes[i], when);
            armed[i] = {{when, seq}};
            ref.insert({when, seq++, i});
            break;
          case 4:
            if (armed[i]) {
                eq.deschedule(*probes[i]);
                disarm(i);
            }
            break;
          case 5:
            reserved.push_back({when, eq.reserveSeq()});
            ++seq;
            break;
          case 6: {
            // Arm an idle probe at a reserved slot still pending.
            if (reserved.empty() || probes[i]->scheduled())
                break;
            std::size_t k = rng.below(reserved.size());
            auto [rw, rs] = reserved[k];
            reserved.erase(reserved.begin() + k);
            if (eq.before(rw, rs))
                break;
            eq.scheduleAt(*probes[i], rw, rs);
            armed[i] = {{rw, rs}};
            ref.insert({rw, rs, i});
            ++slotSchedules;
            break;
          }
          default:
            if (ref.empty())
                EXPECT_FALSE(eq.step());
            else
                stepOnce();
            break;
        }
        ASSERT_EQ(eq.size(), ref.size());
        if (::testing::Test::HasFailure())
            return;
    }
    while (!ref.empty() && !::testing::Test::HasFailure())
        stepOnce();
    EXPECT_FALSE(eq.step());
    EXPECT_GT(slotSchedules, 100u);
}

TEST(EventQueueTest, SameTickFifoHoldsAcrossEarlierTicksScheduledLater)
{
    // Tick 30 is the earliest pending tick when it is left for 50 and
    // 40, then 20 and 10 overtake it; the last schedule for 30 must
    // still join its FIFO behind the first two.
    EventQueue eq;
    std::vector<int> order;
    const Tick ticks[] = {30, 50, 30, 40, 20, 10, 30};
    for (int id = 0; id < 7; ++id)
        eq.scheduleAt(ticks[id], [&order, id] { order.push_back(id); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{5, 4, 0, 2, 6, 3, 1}));
}

TEST(EventQueueTest, DistinctIncreasingTicksFireInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i)
        eq.schedule(Tick(i) * 10, [&order, i] { order.push_back(i); });
    EXPECT_EQ(eq.size(), 1000u);
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(order[i], i);
    EXPECT_EQ(eq.now(), 9990u);
    EXPECT_EQ(eq.executed(), 1000u);
}

TEST(ClockDomainTest, CycleTickConversions)
{
    EventQueue eq;
    ClockDomain one(eq, "1g", 1.0);
    EXPECT_EQ(one.periodPs(), 1000u);
    EXPECT_EQ(one.cyclesToTicks(7), 7000u);

    ClockDomain fast(eq, "2g", 2.0);
    EXPECT_EQ(fast.periodPs(), 500u);

    // Table VII frequencies.
    ClockDomain b3(eq, "b3", 1.4);
    EXPECT_NEAR(double(b3.periodPs()), 714.0, 1.0);
    ClockDomain l0(eq, "l0", 0.6);
    EXPECT_NEAR(double(l0.periodPs()), 1667.0, 1.0);
}

TEST(ClockDomainTest, TicksToNextEdgeIsAlwaysPositive)
{
    EventQueue eq;
    ClockDomain cd(eq, "c", 1.0);
    EXPECT_EQ(cd.ticksToNextEdge(), 1000u);
    eq.schedule(250, [] {});
    eq.run();
    EXPECT_EQ(cd.ticksToNextEdge(), 750u);
}

TEST(ClockedTest, TicksOncePerCycleWhileActive)
{
    struct Counter : Clocked
    {
        using Clocked::Clocked;
        int ticks = 0;
        bool tick() override { return ++ticks < 5; }
    };
    EventQueue eq;
    ClockDomain cd(eq, "c", 1.0);
    Counter c(cd, "counter");
    c.activate();
    eq.run();
    EXPECT_EQ(c.ticks, 5);
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(ClockedTest, RedundantActivateIsSafe)
{
    struct Counter : Clocked
    {
        using Clocked::Clocked;
        int ticks = 0;
        bool tick() override { return false; }
    };
    EventQueue eq;
    ClockDomain cd(eq, "c", 1.0);
    Counter c(cd, "counter");
    c.activate();
    c.activate();
    c.activate();
    eq.run();
    EXPECT_EQ(c.ticks, 0);   // tick() returning false went dormant
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(ClockedTest, DeactivateCancelsPendingTickAndReactivateRearms)
{
    struct Counter : Clocked
    {
        using Clocked::Clocked;
        int ticks = 0;
        bool tick() override { ++ticks; return false; }
    };
    EventQueue eq;
    ClockDomain cd(eq, "c", 1.0);
    Counter c(cd, "counter");

    // Cancel an armed tick before it fires: nothing runs.
    c.activate();
    EXPECT_TRUE(c.active());
    c.deactivate();
    EXPECT_FALSE(c.active());
    eq.run();
    EXPECT_EQ(c.ticks, 0);

    // Deactivate + reactivate within the same tick re-arms cleanly:
    // the tick fires exactly once at the next clock edge.
    c.activate();
    c.deactivate();
    c.activate();
    eq.run();
    EXPECT_EQ(c.ticks, 1);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(StatsTest, HandleAliasesNamedStat)
{
    StatGroup g;
    StatHandle h = g.handle("core.retired");
    EXPECT_TRUE(bool(h));
    EXPECT_EQ(h.value(), 0u);

    // Handle increments are visible through every name-keyed reader...
    h++;
    ++h;
    h += 3;
    EXPECT_EQ(g.value("core.retired"), 5u);
    EXPECT_EQ(g.sumWithPrefix("core."), 5u);

    // ...and name-keyed writes are visible through the handle.
    g.stat("core.retired") += 2;
    EXPECT_EQ(h.value(), 7u);

    // A second handle for the same name aliases the same counter.
    StatHandle h2 = g.handle("core.retired");
    h2++;
    EXPECT_EQ(h.value(), 8u);

    g.resetAll();
    EXPECT_EQ(h.value(), 0u);

    // A default-constructed handle reads false until bound.
    StatHandle unbound;
    EXPECT_FALSE(bool(unbound));
}

TEST(StatsTest, SumWithPrefixAndReset)
{
    StatGroup g;
    g.stat("core.stall.mem") += 5;
    g.stat("core.stall.fu") += 3;
    g.stat("core.cycles") += 100;
    g.stat("other") += 7;
    EXPECT_EQ(g.sumWithPrefix("core.stall."), 8u);
    EXPECT_EQ(g.sumWithPrefix("core."), 108u);
    EXPECT_EQ(g.value("missing"), 0u);
    g.resetAll();
    EXPECT_EQ(g.value("core.cycles"), 0u);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(RngTest, RealIsUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

} // namespace
} // namespace bvl
