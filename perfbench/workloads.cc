#include "workloads.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "fleet/orchestrator.hh"
#include "soc/snapshot.hh"
#include "telemetry/clock.hh"
#include "triage/replay.hh"
#include "triage/triage_queue.hh"

namespace perfbench
{

using namespace turbofuzz;

namespace
{

double
secondsSince(uint64_t start_ns)
{
    return static_cast<double>(telemetry::nowNs() - start_ns) * 1e-9;
}

harness::CampaignOptions
turboFuzzCampaign(uint64_t seed)
{
    harness::CampaignOptions o;
    o.timing = soc::turboFuzzProfile();
    o.seed = seed;
    return o;
}

fuzzer::FuzzerOptions
fuzzerOptions(uint64_t seed)
{
    fuzzer::FuzzerOptions o;
    o.seed = seed;
    return o;
}

std::unique_ptr<harness::Campaign>
makeCampaign(uint64_t seed, const isa::InstructionLibrary &lib,
             SpanLog *log)
{
    harness::CampaignOptions opts = turboFuzzCampaign(seed);
    opts.stageTiming = log != nullptr;
    std::unique_ptr<fuzzer::StimulusGenerator> gen =
        std::make_unique<fuzzer::TurboFuzzGenerator>(fuzzerOptions(seed),
                                                     &lib);
    if (log)
        gen = std::make_unique<TimedGenerator>(std::move(gen), log);
    return std::make_unique<harness::Campaign>(opts, std::move(gen));
}

FleetConfig
fleetConfig(uint64_t seed, bool stage_timing)
{
    FleetConfig fc;
    fc.fleetSeed = seed;
    fc.shardCount = fleetShards;
    fc.budgetSec = fleetBudgetSec;
    fc.epochSec = fleetEpochSec;
    fc.topology = ExchangeTopology::Broadcast;
    // Fleet results do not depend on the thread count.
    fc.workerThreads =
        std::clamp(std::thread::hardware_concurrency(), 1u, fleetShards);
    fc.stageTiming = stage_timing;
    return fc;
}

/** The fleet_demo example's shard template: BOOM with bug B1. */
harness::CampaignOptions
fleetCampaignTemplate()
{
    harness::CampaignOptions o = turboFuzzCampaign(1);
    o.coreKind = core::CoreKind::Boom;
    o.bugs = core::BugSet::single(core::BugId::B1);
    return o;
}

constexpr char harvestMagic[4] = {'P', 'B', 'H', 'V'};
constexpr uint32_t harvestVersion = 2;

} // namespace

std::optional<Workload>
parseWorkload(std::string_view name)
{
    if (name == "campaign")
        return Workload::Campaign;
    if (name == "fleet")
        return Workload::Fleet;
    if (name == "triage")
        return Workload::Triage;
    return std::nullopt;
}

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

void
Digest::add(std::string_view s)
{
    add(static_cast<uint64_t>(s.size()));
    for (const char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
    }
}

void
Digest::add(const std::vector<uint8_t> &bytes)
{
    add(std::string_view(reinterpret_cast<const char *>(bytes.data()),
                         bytes.size()));
}

SetupTimes
timeSetup(Workload w, uint64_t seed, const std::string &harvest_path)
{
    SetupTimes t;
    if (w == Workload::Triage) {
        const uint64_t t0 = telemetry::nowNs();
        loadHarvest(harvest_path);
        t.loadSec = secondsSince(t0);
        return t;
    }
    const uint64_t t0 = telemetry::nowNs();
    const isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    t.librarySec = secondsSince(t0);
    const uint64_t t1 = telemetry::nowNs();
    if (w == Workload::Campaign) {
        const auto c = makeCampaign(seed, lib, nullptr);
        t.constructSec = secondsSince(t1);
    } else {
        const fleet::FleetOrchestrator orch(
            fleetConfig(seed, false), fleetCampaignTemplate(),
            fuzzerOptions(seed), &lib);
        t.constructSec = secondsSince(t1);
    }
    return t;
}

CampaignUnit
runCampaign(uint64_t seed, const isa::InstructionLibrary &lib, SpanLog *log)
{
    const auto c = makeCampaign(seed, lib, log);
    CampaignUnit u;
    const uint64_t t0 = telemetry::nowNs();
    while (c->nowSec() < campaignBudgetSec) {
        SpanLog::Scope span(log, "campaign.iteration", c->iterations());
        const uint64_t start = telemetry::nowNs();
        c->runIteration();
        u.callNs.push_back(telemetry::nowNs() - start);
    }
    u.hostSec = secondsSince(t0);
    u.simSec = c->nowSec();
    u.iterations = c->iterations();
    u.commits = c->executedInstructions();
    u.points = c->coverageMap().totalCovered();
    u.mismatches = c->mismatchedIterations();
    u.warmIterations = c->warmIterations();
    u.generatedInstrs = c->generatedInstructions();
    u.metrics = c->metrics().snapshot();

    Digest d;
    d.add(u.iterations);
    d.add(u.commits);
    d.add(u.points);
    d.add(u.mismatches);
    for (const triage::Reproducer &r : c->reproducers())
        d.add(r.serialize());
    u.digest = d.value();
    return u;
}

FleetUnit
runFleet(uint64_t seed, const isa::InstructionLibrary &lib, SpanLog *log)
{
    std::optional<fleet::FleetOrchestrator> orch;
    {
        SpanLog::Scope span(log, "fleet.construct", 0);
        orch.emplace(fleetConfig(seed, log != nullptr),
                     fleetCampaignTemplate(), fuzzerOptions(seed), &lib);
    }
    FleetUnit u;
    {
        SpanLog::Scope span(log, "fleet.run", 0);
        const uint64_t t0 = telemetry::nowNs();
        u.result = orch->run();
        u.callNs.push_back(telemetry::nowNs() - t0);
        u.hostSec = secondsSince(t0);
    }

    const fleet::FleetResult &r = u.result;
    Digest d;
    d.add(r.totals.iterations);
    d.add(r.totals.executedInstrs);
    d.add(r.mergedFinalCoverage);
    d.add(r.reproducersHarvested);
    for (const triage::TriageRow &row : r.bugTable) {
        d.add(row.signature);
        d.add(row.hits);
        d.add(row.minimizedInstrs);
        u.minimizedInstrs += row.minimizedInstrs;
        if (!row.confirmed)
            ++u.unconfirmedBuckets;
    }
    for (const triage::BugBucket &b : orch->triageQueue().buckets())
        d.add(b.reduction.minimized.serialize());
    u.digest = d.value();
    return u;
}

Harvest
harvestFor(uint64_t seed, const isa::InstructionLibrary &lib)
{
    struct Source
    {
        core::CoreKind kind;
        core::BugSet bugs;
        bool rv64a;
    };
    core::BugSet cva6;
    for (const core::BugId id : core::bugsOf(core::CoreKind::Cva6))
        cva6.enable(id);
    core::BugSet boom;
    boom.enable(core::BugId::B1);
    boom.enable(core::BugId::B2);

    Harvest h;
    for (unsigned k = 0; k < harvestSessions; ++k) {
        const uint64_t sub_seed = seed * harvestSessions + k;
        std::vector<triage::Reproducer> &session = h.sessions.emplace_back();
        for (const Source &src :
             {Source{core::CoreKind::Cva6, cva6, false},
              Source{core::CoreKind::Boom, boom, true}}) {
            harness::CampaignOptions opts = turboFuzzCampaign(sub_seed);
            opts.coreKind = src.kind;
            opts.bugs = src.bugs;
            opts.rv64aEnabled = src.rv64a;
            opts.maxReproducers = harvestReproducers;
            harness::Campaign c(
                opts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                          fuzzerOptions(sub_seed), &lib));
            while (c.reproducers().size() < harvestReproducers &&
                   c.nowSec() < harvestCapSec)
                c.runIteration();
            h.simSec += c.nowSec();
            session.insert(session.end(), c.reproducers().begin(),
                           c.reproducers().end());
        }
    }
    return h;
}

std::vector<uint8_t>
encodeHarvest(const Harvest &h)
{
    soc::SnapshotWriter out;
    out.putBytes(reinterpret_cast<const uint8_t *>(harvestMagic), 4);
    out.putU32(harvestVersion);
    out.putF64(h.simSec);
    out.putU32(static_cast<uint32_t>(h.sessions.size()));
    for (const auto &session : h.sessions) {
        out.putU32(static_cast<uint32_t>(session.size()));
        for (const triage::Reproducer &r : session) {
            const std::vector<uint8_t> blob = r.serialize();
            out.putU32(static_cast<uint32_t>(blob.size()));
            out.putBytes(blob.data(), blob.size());
        }
    }
    return out.takeBuffer();
}

std::optional<Harvest>
decodeHarvest(const std::vector<uint8_t> &bytes, std::string *error)
{
    auto fail = [&](const std::string &msg) -> std::optional<Harvest> {
        if (error)
            *error = msg;
        return std::nullopt;
    };
    try {
        soc::SnapshotReader in(bytes);
        char magic[4];
        in.getBytes(reinterpret_cast<uint8_t *>(magic), 4);
        if (std::memcmp(magic, harvestMagic, 4) != 0)
            return fail("not a harvest file");
        if (in.getU32() != harvestVersion)
            return fail("unsupported harvest version");
        Harvest h;
        h.simSec = in.getF64();
        const uint32_t sessions = in.getU32();
        for (uint32_t k = 0; k < sessions; ++k) {
            std::vector<triage::Reproducer> &session =
                h.sessions.emplace_back();
            const uint32_t count = in.getU32();
            for (uint32_t i = 0; i < count; ++i) {
                const uint32_t size = in.getU32();
                if (size > in.remaining())
                    return fail("reproducer " + std::to_string(i) +
                                " size exceeds the file");
                std::vector<uint8_t> blob(size);
                in.getBytes(blob.data(), size);
                std::string why;
                auto r = triage::Reproducer::tryDeserialize(blob, &why);
                if (!r)
                    return fail("reproducer " + std::to_string(i) + ": " +
                                why);
                session.push_back(std::move(*r));
            }
        }
        if (!in.exhausted())
            return fail("trailing bytes after the last reproducer");
        return h;
    } catch (const soc::SnapshotFormatError &e) {
        return fail(e.what());
    }
}

Harvest
loadHarvest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    const std::vector<uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>()};
    std::string error;
    std::optional<Harvest> h = decodeHarvest(bytes, &error);
    if (!h)
        throw std::runtime_error(path + ": " + error);
    return std::move(*h);
}

TriageUnit
runTriage(const Harvest &h, SpanLog *log)
{
    TriageUnit u;
    // Times one call into the program; returns its seconds.
    auto timed = [&u](auto &&call) {
        const uint64_t start = telemetry::nowNs();
        call();
        u.callNs.push_back(telemetry::nowNs() - start);
        return static_cast<double>(u.callNs.back()) * 1e-9;
    };
    Digest d;
    uint64_t id = 0; // span group: the reproducer's index in the harvest
    for (const std::vector<triage::Reproducer> &repros : h.sessions) {
        triage::TriageQueue queue;
        for (size_t i = 0; i < repros.size(); ++i) {
            SpanLog::Scope span(log, "triage.confirm", id + i);
            u.confirmSec += timed([&] {
                if (!triage::ReplayHarness::verifyDeterministic(repros[i]))
                    ++u.unconfirmed;
            });
        }
        for (size_t i = 0; i < repros.size(); ++i) {
            SpanLog::Scope span(log, "triage.bucket", id + i);
            u.bucketSec += timed([&] { queue.push(repros[i]); });
        }
        {
            SpanLog::Scope span(log, "triage.minimize", id);
            u.minimizeSec += timed([&] { queue.minimizeAll(); });
        }
        id += repros.size();

        // Two replays per confirmation, plus the minimizer's.
        u.replays += 2 * repros.size();
        for (const triage::BugBucket &b : queue.buckets()) {
            const triage::MinimizeResult &red = b.reduction;
            u.replays += red.replays;
            u.originalInstrs += red.originalInstrs;
            u.minimizedInstrs += red.minimizedInstrs;
            const bool reconfirmed =
                red.confirmed &&
                triage::ReplayHarness::verifyDeterministic(red.minimized) &&
                triage::canonicalize(red.minimized) == b.signature;
            if (!reconfirmed)
                ++u.reconfirmFailures;
            d.add(b.signature.key());
            d.add(b.hits);
            d.add(red.minimized.serialize());
        }
        u.buckets += queue.bucketCount();
    }
    u.reproducers = id;
    d.add(u.unconfirmed);
    u.digest = d.value();
    return u;
}

} // namespace perfbench
