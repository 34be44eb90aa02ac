/**
 * @file
 * The traced run only observes: a Campaign behind TimedGenerator, a
 * fleet with stage timing on and a traced triage run each reproduce the
 * untraced run's result digest (iterations, commits, coverage points,
 * the bug table and the minimized reproducer bytes).
 *
 * Build and run from the root of a checkout:
 *   cmake -S perfbench -B .bench_build
 *   cmake --build .bench_build --target perfbench_tests
 *   ctest --test-dir .bench_build --output-on-failure
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/campaign.hh"
#include "ledger.hh"
#include "workloads.hh"

using namespace turbofuzz;
using namespace perfbench;

namespace
{

const isa::InstructionLibrary &
library()
{
    static const isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    return lib;
}

} // namespace

TEST(Transparency, CampaignBehindTimedGeneratorMatchesPlain)
{
    const CampaignUnit plain = runCampaign(1, library(), nullptr);
    SpanLog log;
    const CampaignUnit traced = runCampaign(1, library(), &log);

    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_EQ(plain.iterations, traced.iterations);
    EXPECT_EQ(plain.commits, traced.commits);
    EXPECT_EQ(plain.points, traced.points);
    EXPECT_EQ(plain.mismatches, 0u);
    EXPECT_EQ(plain.warmIterations, plain.iterations);

    // One runIteration span per iteration, each the parent of exactly
    // one generate and one feedback span of the same group.
    EXPECT_EQ(log.durationsNs("campaign.iteration").size(), traced.iterations);
    EXPECT_EQ(log.durationsNs("fuzzer.generate").size(), traced.iterations);
    EXPECT_EQ(log.durationsNs("fuzzer.feedback").size(), traced.iterations);
    for (const Span &s : log.spans()) {
        if (std::string_view(s.name) == "campaign.iteration") {
            EXPECT_EQ(s.parent, -1);
        } else {
            ASSERT_GE(s.parent, 0);
            const Span &p = log.spans()[s.parent];
            EXPECT_STREQ(p.name, "campaign.iteration");
            EXPECT_EQ(s.group, p.group);
        }
    }
    // Plain runs take no spans and leave the stage counters off.
    EXPECT_EQ(plain.metrics.counterValue("engine.batch.dut_ns"), 0u);
    EXPECT_GT(traced.metrics.counterValue("engine.batch.dut_ns"), 0u);
}

TEST(Transparency, FleetWithStageTimingMatchesPlain)
{
    const FleetUnit plain = runFleet(1, library(), nullptr);
    SpanLog log;
    const FleetUnit traced = runFleet(1, library(), &log);

    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_EQ(plain.result.mergedFinalCoverage,
              traced.result.mergedFinalCoverage);
    EXPECT_EQ(plain.result.bugTable.size(), traced.result.bugTable.size());
    EXPECT_FALSE(plain.result.bugTable.empty());
    EXPECT_EQ(plain.unconfirmedBuckets, 0u);
    EXPECT_EQ(log.durationsNs("fleet.construct").size(), 1u);
    EXPECT_EQ(log.durationsNs("fleet.run").size(), 1u);
}

TEST(Transparency, TracedTriageMatchesPlain)
{
    const Harvest h = harvestFor(1, library());
    ASSERT_EQ(h.sessions.size(), harvestSessions);
    const TriageUnit plain = runTriage(h, nullptr);
    SpanLog log;
    const TriageUnit traced = runTriage(h, &log);

    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_EQ(plain.buckets, traced.buckets);
    EXPECT_EQ(plain.minimizedInstrs, traced.minimizedInstrs);
    EXPECT_GT(plain.reproducers, 0u);
    EXPECT_EQ(plain.unconfirmed, 0u);
    EXPECT_EQ(plain.reconfirmFailures, 0u);
    EXPECT_EQ(log.durationsNs("triage.confirm").size(), plain.reproducers);
    EXPECT_EQ(log.durationsNs("triage.minimize").size(), harvestSessions);
}

TEST(Harvest, RoundTripsAndRejectsDamagedFiles)
{
    Harvest h = harvestFor(2, library());
    h.sessions.resize(1);
    const std::vector<uint8_t> bytes = encodeHarvest(h);

    std::string error;
    const auto back = decodeHarvest(bytes, &error);
    ASSERT_TRUE(back) << error;
    EXPECT_EQ(back->simSec, h.simSec);
    ASSERT_EQ(back->sessions.size(), 1u);
    ASSERT_EQ(back->sessions[0].size(), h.sessions[0].size());
    EXPECT_EQ(back->sessions[0].back().serialize(),
              h.sessions[0].back().serialize());

    for (const size_t cut : {size_t{0}, size_t{3}, size_t{15}, size_t{23},
                             bytes.size() / 2, bytes.size() - 1}) {
        const std::vector<uint8_t> part(bytes.begin(), bytes.begin() + cut);
        EXPECT_FALSE(decodeHarvest(part, &error)) << "cut at " << cut;
    }
    std::vector<uint8_t> trailing = bytes;
    trailing.push_back(0);
    EXPECT_FALSE(decodeHarvest(trailing, &error));

    // The first reproducer's length field (after magic, version, sim
    // seconds, session count and reproducer count) claims 4 GiB.
    std::vector<uint8_t> oversized = bytes;
    std::fill(oversized.begin() + 24, oversized.begin() + 28, 0xff);
    EXPECT_FALSE(decodeHarvest(oversized, &error));
}

TEST(SpanLog, SelfTimeExcludesChildren)
{
    SpanLog log;
    {
        SpanLog::Scope outer(&log, "outer", 7);
        SpanLog::Scope inner(&log, "inner");
    }
    ASSERT_EQ(log.spans().size(), 2u);
    const Span &outer = log.spans()[0];
    const Span &inner = log.spans()[1];
    EXPECT_EQ(inner.parent, 0);
    EXPECT_EQ(inner.group, 7u);
    EXPECT_EQ(log.selfNs("outer"), outer.durationNs() - inner.durationNs());
    EXPECT_EQ(log.selfNs("inner"), inner.durationNs());

    SpanLog::Scope disabled(nullptr, "ignored");
    EXPECT_EQ(log.spans().size(), 2u);
}
