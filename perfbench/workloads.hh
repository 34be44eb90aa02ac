/**
 * @file
 * The benchmark's three workloads and the fixed simulated work each
 * measured unit performs.
 *
 * campaign: one TurboFuzz campaign on the clean Rocket core — the
 *           single-shard loop, dominated by generation and the
 *           coverage sweep, with no barrier and no mismatches.
 * fleet:    4 shards of the BOOM core with bug B1 exchanging seeds by
 *           broadcast every 2 simulated seconds, then default triage —
 *           the barrier, peer imports and the mismatch-and-rewind path.
 * triage:   replay confirmation, bucketing and minimization of a
 *           harvest of reproducers — the engine on short warm replays
 *           with no coverage sweep and the decode cache off.
 *
 * Every unit is a pure function of the seed, so each repetition must
 * reproduce the same digest; the digest covers iterations, commits,
 * coverage points, the bug table and the minimized reproducer bytes.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet_stats.hh"
#include "harness/campaign.hh"
#include "ledger.hh"
#include "telemetry/metrics.hh"
#include "triage/reproducer.hh"

namespace perfbench
{

enum class Workload
{
    Campaign,
    Fleet,
    Triage,
};

std::optional<Workload> parseWorkload(std::string_view name);

/** Simulated seconds one measured campaign unit runs. */
constexpr double campaignBudgetSec = 20.0;

/** Fleet shape: shards, simulated seconds per shard, epoch length. */
constexpr unsigned fleetShards = 4;
constexpr double fleetBudgetSec = 8.0;
constexpr double fleetEpochSec = 2.0;

/**
 * Untraced units whose per-call minima make a run's floor (and as many
 * traced units in a traced run). The count is fixed, so a faster
 * program does not read lower minima merely because it completed more
 * units; --seconds is a minimum run time on top. Each takes about 30
 * s on a 4-vCPU Xeon guest. The single-threaded workloads' counts are
 * multiples of 4, so units rotating over 4 CPUs visit each equally.
 */
constexpr size_t campaignFloorUnits = 12;
constexpr size_t fleetFloorUnits = 20;
constexpr size_t triageFloorUnits = 32;

/** Reproducers each harvest campaign keeps (and stops at). */
constexpr uint32_t harvestReproducers = 64;

/** Independent triage sessions per harvest, each from its own pair of
 *  harvest campaigns; more sessions average out how much triage work a
 *  single seed's reproducers happen to need. */
constexpr unsigned harvestSessions = 8;

/** Simulated-time cap on each harvest campaign. */
constexpr double harvestCapSec = 60.0;

/** FNV-1a over the values a run must reproduce exactly. */
class Digest
{
  public:
    void add(uint64_t v);
    void add(std::string_view s);
    void add(const std::vector<uint8_t> &bytes);
    uint64_t value() const { return h; }

  private:
    uint64_t h = 14695981039346656037ull;
};

/** Cold set-up phases, in seconds. */
struct SetupTimes
{
    double librarySec = 0.0;
    double constructSec = 0.0;
    double loadSec = 0.0;
};

/** Build the workload's program state once, timing each phase. A
 *  triage set-up loads @p harvest_path. Throws on a bad harvest. */
SetupTimes timeSetup(Workload w, uint64_t seed,
                     const std::string &harvest_path);

/**
 * Every unit also times each public call it makes (each
 * Campaign::runIteration; FleetOrchestrator::run; each triage call), in
 * call order. Repeated units make the same calls, so callNs lines up
 * across repetitions.
 */
struct CampaignUnit
{
    std::vector<uint64_t> callNs;
    double hostSec = 0.0;
    double simSec = 0.0;
    uint64_t iterations = 0;
    uint64_t commits = 0;
    uint64_t points = 0;
    uint64_t mismatches = 0;
    uint64_t warmIterations = 0;
    uint64_t generatedInstrs = 0;
    uint64_t digest = 0;
    turbofuzz::telemetry::MetricsSnapshot metrics;
};

/**
 * One campaignBudgetSec campaign; host time covers the iteration loop
 * only. With @p log set, the generator runs behind TimedGenerator, each
 * Campaign::runIteration gets a span and the engine's stage counters
 * are on.
 */
CampaignUnit runCampaign(uint64_t seed,
                         const turbofuzz::isa::InstructionLibrary &lib,
                         SpanLog *log);

struct FleetUnit
{
    std::vector<uint64_t> callNs;
    double hostSec = 0.0; ///< FleetOrchestrator::run()
    turbofuzz::fleet::FleetResult result;
    uint64_t unconfirmedBuckets = 0;
    uint64_t minimizedInstrs = 0;
    uint64_t digest = 0;
};

/** One fleet run on min(fleetShards, nproc) worker threads. With @p
 *  log set, construction and run() get spans and stage timing is on. */
FleetUnit runFleet(uint64_t seed,
                   const turbofuzz::isa::InstructionLibrary &lib,
                   SpanLog *log);

/** Reproducers harvested for the triage workload, per session. */
struct Harvest
{
    double simSec = 0.0; ///< simulated seconds the harvest ran
    std::vector<std::vector<turbofuzz::triage::Reproducer>> sessions;
};

/**
 * The untimed harvest. Each session runs CVA6 with all ten CVA6 bugs
 * and RV64A off (so C8 can fire), then BOOM with B1 and B2, each
 * campaign until it holds harvestReproducers reproducers; session k
 * uses campaign seed seed * harvestSessions + k.
 */
Harvest harvestFor(uint64_t seed,
                   const turbofuzz::isa::InstructionLibrary &lib);

std::vector<uint8_t> encodeHarvest(const Harvest &h);
std::optional<Harvest> decodeHarvest(const std::vector<uint8_t> &bytes,
                                     std::string *error);

/** Read and decode the harvest file at @p path; throws
 *  std::runtime_error naming the file when it is unreadable or
 *  damaged. */
Harvest loadHarvest(const std::string &path);

struct TriageUnit
{
    std::vector<uint64_t> callNs;
    double confirmSec = 0.0;
    double bucketSec = 0.0;
    double minimizeSec = 0.0;
    uint64_t reproducers = 0;
    uint64_t unconfirmed = 0;
    uint64_t buckets = 0;
    uint64_t replays = 0;
    uint64_t originalInstrs = 0;
    uint64_t minimizedInstrs = 0;
    uint64_t reconfirmFailures = 0; ///< minimized exemplars that fail
    uint64_t digest = 0;

    double hostSec() const { return confirmSec + bucketSec + minimizeSec; }
};

/**
 * For each session, timed: ReplayHarness::verifyDeterministic on every
 * reproducer, then TriageQueue::push of each into the session's queue,
 * then TriageQueue::minimizeAll. Untimed afterwards: every minimized
 * exemplar must re-confirm with its bucket's signature.
 */
TriageUnit runTriage(const Harvest &h, SpanLog *log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
