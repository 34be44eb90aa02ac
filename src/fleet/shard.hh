/**
 * @file
 * One fleet shard: a self-contained Campaign plus its epoch state.
 *
 * A shard models one FPGA board of the paper's scaled-out deployment:
 * it owns its own generator, DUT/REF pair, RTL model, instrumentation
 * and coverage map, and shares NOTHING mutable with other shards
 * while an epoch runs. All cross-shard interaction (coverage merge,
 * seed exchange, mismatch harvest) happens on the orchestrator thread
 * at epoch barriers — which is what makes fleet runs deterministic
 * regardless of host thread scheduling.
 */

#ifndef TURBOFUZZ_FLEET_SHARD_HH
#define TURBOFUZZ_FLEET_SHARD_HH

#include <memory>
#include <vector>

#include "common/concurrent_stats.hh"
#include "common/stats.hh"
#include "harness/campaign.hh"

namespace turbofuzz::fleet
{

/** A single parallel campaign instance. */
class FleetShard
{
  public:
    /**
     * @param index    Shard number within the fleet.
     * @param options  Campaign options (seed fields already set by
     *                 the orchestrator: instrumentation seed shared
     *                 fleet-wide, fuzzer seed per shard).
     * @param fopts    Fuzzer options for this shard's generator.
     * @param library  Shared read-only instruction library.
     */
    FleetShard(unsigned index, harness::CampaignOptions options,
               fuzzer::FuzzerOptions fopts,
               const isa::InstructionLibrary *library);

    /**
     * Run until the shard's simulated clock reaches @p deadline_sec.
     * Called on a worker thread; touches only shard-local state plus
     * the (atomic) fleet aggregator.
     */
    void runEpoch(double deadline_sec, ConcurrentStats *aggregate);

    /** Barrier-time: publish the corpus's top @p k seeds as shared
     *  immutable blocks (zero-copy exchange). */
    std::vector<fuzzer::SeedShare> exportSeedsShared(size_t k);

    /**
     * Barrier-time: import published peer seed blocks; returns the
     * admitted count. Touches only this shard's corpus and reads the
     * blocks, so the orchestrator may run imports for distinct shards
     * concurrently on the worker pool.
     */
    size_t
    importSeedsShared(const std::vector<fuzzer::SeedShare> &shares);

    /**
     * Publish everything this shard's models learned since the
     * previous publication. Shard-local mutation only, so the
     * orchestrator may run publications for distinct shards
     * concurrently on the worker pool.
     */
    void publishDelta(coverage::CoverageDelta &out);

    /** Barrier-time: charge the host round-trip cost. */
    void chargeSync(double cost_sec);

    harness::Campaign &campaign() { return *camp; }
    const harness::Campaign &campaign() const { return *camp; }

    unsigned index() const { return idx; }
    const TimeSeries &coverageSeries() const { return covSeries; }

    /** Whether stopOnMismatch ended this shard early. */
    bool stopped() const { return stoppedEarly; }

    /** Campaign counters as a snapshot (barrier-time read). */
    StatsSnapshot counters() const;

    /**
     * Barrier-time: reproducers captured since the previous harvest,
     * stamped with this shard's index. Each reproducer is returned
     * exactly once across the shard's lifetime.
     */
    std::vector<triage::Reproducer> drainNewReproducers();

    /**
     * Checkpoint support: serialize the shard's campaign plus its
     * epoch-tracking state (coverage series, early-stop flag,
     * harvest cursor).
     * @return false when the campaign's generator cannot checkpoint.
     */
    bool saveState(soc::SnapshotWriter &out) const;

    /** Restore into a freshly constructed shard (same config).
     *  @return false with @p error set on malformed input. */
    bool loadState(soc::SnapshotReader &in,
                   std::string *error = nullptr);

  private:
    unsigned idx;
    std::unique_ptr<harness::Campaign> camp;
    TimeSeries covSeries;
    bool stoppedEarly = false;
    size_t reprosHarvested = 0;
};

} // namespace turbofuzz::fleet

#endif // TURBOFUZZ_FLEET_SHARD_HH
