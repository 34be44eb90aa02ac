/**
 * @file
 * Corpus storage and scheduling (paper §IV-D).
 *
 * Two scheduling policies are implemented:
 *
 *  - Fifo — the conventional software-fuzzer behaviour: when the
 *    corpus is full, the oldest seed is evicted regardless of how
 *    productive it still is.
 *
 *  - CoverageGuided — TurboFuzz's optimization: every seed tracks the
 *    coverage increment it produced when last executed. New seeds are
 *    admitted only if they improved coverage; at capacity the seed
 *    with the LOWEST recorded increment is replaced; mutation-mode
 *    runs refresh the stored increment of the seed they mutated.
 *
 * Seed selection for mutation uses the dual-strategy probabilistic
 * mechanism: with probability 3/4 prioritize the highest-increment
 * seeds, otherwise select uniformly so archived patterns are not
 * starved (exploration/exploitation balance).
 *
 * For multi-shard fleets the corpus additionally supports exporting
 * its top seeds and importing seeds from a peer shard; imported seeds
 * are re-identified into the local id space so cross-shard ids never
 * collide (see src/fleet/).
 */

#ifndef TURBOFUZZ_FUZZER_CORPUS_HH
#define TURBOFUZZ_FUZZER_CORPUS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "fuzzer/seed.hh"
#include "telemetry/instruments.hh"

namespace turbofuzz::fuzzer
{

/** Corpus scheduling policy. */
enum class SchedulingPolicy { Fifo, CoverageGuided };

/** The fuzzer's seed archive. */
class Corpus
{
  public:
    /**
     * @param capacity  Maximum resident seeds (BRAM budget).
     * @param policy    Eviction/selection policy.
     */
    Corpus(size_t capacity, SchedulingPolicy policy);

    /** Number of resident seeds. */
    size_t size() const { return seeds.size(); }
    size_t capacity() const { return cap; }
    SchedulingPolicy policy() const { return pol; }

    /**
     * Bind scheduler instruments (corpus.selects/admits/rejects/
     * evictions/imports.* counters + corpus.size gauge) into
     * @p registry. Called once at campaign construction; null
     * detaches. The corpus works identically unbound — telemetry
     * observes, it never steers.
     */
    void bindTelemetry(telemetry::MetricRegistry *registry);

    /** Add an initial (baseline) seed, bypassing admission control. */
    void addBaseline(Seed seed);

    /**
     * Offer a new seed after an iteration ran.
     * @param seed           The iteration's blocks.
     * @param cov_increment  Coverage improvement it achieved.
     * @return true when the seed was admitted.
     */
    bool offer(Seed seed, uint64_t cov_increment);

    /**
     * Select a seed for the next fuzzing iteration.
     * @param prioritize_prob  Probability of choosing the
     *        highest-increment seeds instead of a uniform pick
     *        (paper default 3/4; only meaningful for CoverageGuided).
     * @return the selected seed, or nullptr when the corpus is empty
     *         — a recoverable condition the caller turns into a
     *         diagnostic (a misconfigured campaign must not abort the
     *         whole process from inside the scheduler).
     */
    const Seed *trySelect(Rng &rng,
                          Prob prioritize_prob = {3, 4}) const;

    /** Resident seed by id, or nullptr (evicted/never archived). */
    const Seed *findSeed(uint64_t seed_id) const;

    /**
     * Mutation-mode feedback: refresh the recorded increment of the
     * seed that was just mutated and re-run.
     */
    void updateIncrement(uint64_t seed_id, uint64_t cov_increment);

    /**
     * Indices into entries() of the top @p k seeds by recorded
     * coverage increment, ties broken by age (oldest first) — a
     * deterministic total order, so every shard ranks the same corpus
     * state the same way regardless of container layout. Returns
     * fewer when the corpus holds fewer than @p k seeds.
     */
    std::vector<size_t> topK(size_t k) const;

    /**
     * Publish the top @p k seeds (topK order) for cross-shard
     * exchange, each as a fresh shared immutable block (SeedShare)
     * with its content hash. Non-const only because it fills the
     * per-seed hash cache; the resident seeds are untouched.
     */
    std::vector<SeedShare> exportTopShared(size_t k);

    /**
     * Import seeds published by another corpus (a peer shard).
     * Imports are deduplicated by content hash — against the seeds
     * resident when the call starts and within the batch itself —
     * because re-identification would otherwise let the same top-K
     * stimulus re-enter as "new" at every broadcast barrier, flooding
     * the corpus with duplicates and skewing select() toward one
     * pattern. Each surviving seed is copied out of its shared block,
     * re-identified from @p next_seed_id — the caller's id allocator
     * — so imported ids never collide with locally archived ones,
     * made a lineage root, then offered through the normal admission
     * path with its recorded coverage increment as the priority
     * signal.
     *
     * @return number of seeds admitted.
     */
    size_t importShared(const std::vector<SeedShare> &shares,
                        uint64_t &next_seed_id);

    /** Imports rejected as duplicates of resident content (stats). */
    uint64_t duplicateImports() const { return dupImportCount; }

    /**
     * Checkpoint support: serialize the complete corpus state
     * (resident seeds with their scheduling metadata plus the
     * insertion/eviction counters) so a resumed campaign schedules
     * exactly like an uninterrupted one.
     */
    void saveState(soc::SnapshotWriter &out) const;

    /**
     * Restore a saveState() image into this corpus (replaces all
     * resident seeds). Capacity and policy come from construction and
     * must match the checkpointed campaign's configuration.
     * @return false (with @p error set when non-null) on malformed
     *         input; the corpus is left unspecified but safe.
     */
    bool loadState(soc::SnapshotReader &in,
                   std::string *error = nullptr);

    /** Total evictions performed (stats). */
    uint64_t evictions() const { return evictCount; }

    /** Seeds rejected by admission control (stats). */
    uint64_t rejections() const { return rejectCount; }

    const std::vector<Seed> &entries() const { return seeds; }

  private:
    /** Replace the resident seed at @p idx, keeping idIndex and the
     *  hash cache in sync. */
    void replaceAt(size_t idx, Seed seed);

    /** Append a resident seed, keeping idIndex and the hash cache in
     *  sync. */
    void append(Seed seed);

    /** Content hash of the resident seed at @p idx (cached). */
    uint64_t hashAt(size_t idx);

    size_t cap;
    SchedulingPolicy pol;
    std::vector<Seed> seeds;

    /**
     * Seed-id -> index into `seeds`. Ids are unique within a corpus
     * (the fuzzer allocates them monotonically; imports are
     * re-identified), so updateIncrement() is O(1) instead of a
     * linear scan per feedback event.
     */
    std::unordered_map<uint64_t, size_t> idIndex;

    /**
     * Content hash of each resident seed, parallel to `seeds`; 0 means
     * not computed yet. Filled on first use by the exchange paths
     * (admission never hashes: a campaign that never exchanges never
     * pays for it) and reset whenever a slot's seed changes, so each
     * resident is hashed at most once. Never checkpointed.
     */
    std::vector<uint64_t> hashes;

    uint64_t nextInsertion = 0;
    uint64_t evictCount = 0;
    uint64_t rejectCount = 0;
    uint64_t dupImportCount = 0;

    /** Resolved instruments (all null until bindTelemetry). */
    telemetry::CorpusInstruments tel;
};

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_CORPUS_HH
