#include "fleet/shard.hh"

#include "fuzzer/generator.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fleet
{

FleetShard::FleetShard(unsigned index,
                       harness::CampaignOptions options,
                       fuzzer::FuzzerOptions fopts,
                       const isa::InstructionLibrary *library)
    : idx(index), covSeries("shard-" + std::to_string(index))
{
    camp = std::make_unique<harness::Campaign>(
        std::move(options),
        std::make_unique<fuzzer::TurboFuzzGenerator>(fopts, library));
}

StatsSnapshot
FleetShard::counters() const
{
    return {camp->iterations(), camp->executedInstructions(),
            camp->generatedInstructions(),
            camp->mismatchedIterations()};
}

void
FleetShard::runEpoch(double deadline_sec, ConcurrentStats *aggregate)
{
    if (stoppedEarly)
        return;
    const StatsSnapshot before = counters();
    if (!camp->runSlice(deadline_sec, covSeries))
        stoppedEarly = true;
    if (aggregate)
        aggregate->add(counters() - before);
}

std::vector<fuzzer::SeedShare>
FleetShard::exportSeedsShared(size_t k)
{
    return camp->generator().exportTopSharedSeeds(k);
}

size_t
FleetShard::importSeedsShared(
    const std::vector<fuzzer::SeedShare> &shares)
{
    return camp->injectSharedSeeds(shares);
}

void
FleetShard::publishDelta(coverage::CoverageDelta &out)
{
    camp->publishCoverageDelta(out);
}

void
FleetShard::chargeSync(double cost_sec)
{
    if (cost_sec > 0.0)
        camp->platform().chargeSeconds(cost_sec);
}

bool
FleetShard::saveState(soc::SnapshotWriter &out) const
{
    out.putU8(stoppedEarly ? 1 : 0);
    out.putU64(reprosHarvested);
    covSeries.saveState(out);
    return camp->saveState(out);
}

bool
FleetShard::loadState(soc::SnapshotReader &in, std::string *error)
{
    try {
        stoppedEarly = in.getU8() != 0;
        reprosHarvested = in.getU64();
        if (!covSeries.loadState(in, error))
            return false;
        return camp->loadState(in, error);
    } catch (const soc::SnapshotFormatError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

std::vector<triage::Reproducer>
FleetShard::drainNewReproducers()
{
    const auto &all = camp->reproducers();
    std::vector<triage::Reproducer> fresh;
    for (; reprosHarvested < all.size(); ++reprosHarvested) {
        triage::Reproducer r = all[reprosHarvested];
        r.shard = idx;
        fresh.push_back(std::move(r));
    }
    return fresh;
}

} // namespace turbofuzz::fleet
