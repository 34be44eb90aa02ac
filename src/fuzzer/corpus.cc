#include "fuzzer/corpus.hh"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <unordered_set>

#include "common/logging.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fuzzer
{

Corpus::Corpus(size_t capacity, SchedulingPolicy policy)
    : cap(capacity), pol(policy)
{
    TF_ASSERT(cap >= 1, "corpus capacity must be >= 1");
    seeds.reserve(cap);
    hashes.reserve(cap);
}

void
Corpus::bindTelemetry(telemetry::MetricRegistry *registry)
{
    tel = registry ? telemetry::CorpusInstruments::resolve(*registry)
                   : telemetry::CorpusInstruments{};
    if (tel.size)
        tel.size->set(static_cast<int64_t>(seeds.size()));
}

void
Corpus::replaceAt(size_t idx, Seed seed)
{
    idIndex.erase(seeds[idx].id);
    idIndex[seed.id] = idx;
    seeds[idx] = std::move(seed);
    hashes[idx] = 0;
    ++evictCount;
    if (tel.evictions)
        tel.evictions->add(1);
}

void
Corpus::append(Seed seed)
{
    idIndex[seed.id] = seeds.size();
    seeds.push_back(std::move(seed));
    hashes.push_back(0);
}

uint64_t
Corpus::hashAt(size_t idx)
{
    uint64_t &h = hashes[idx];
    if (h == 0)
        h = seeds[idx].contentHash();
    return h;
}

void
Corpus::addBaseline(Seed seed)
{
    seed.insertedAt = nextInsertion++;
    if (seeds.size() < cap) {
        append(std::move(seed));
        if (tel.size)
            tel.size->set(static_cast<int64_t>(seeds.size()));
        return;
    }
    // Baselines during (re)initialization replace the oldest entry.
    auto oldest = std::min_element(
        seeds.begin(), seeds.end(), [](const Seed &a, const Seed &b) {
            return a.insertedAt < b.insertedAt;
        });
    replaceAt(static_cast<size_t>(oldest - seeds.begin()),
              std::move(seed));
}

bool
Corpus::offer(Seed seed, uint64_t cov_increment)
{
    seed.coverageIncrement = cov_increment;
    seed.insertedAt = nextInsertion++;

    if (pol == SchedulingPolicy::CoverageGuided && cov_increment == 0) {
        // Generation-mode admission: only coverage-improving test
        // cases enter the corpus.
        ++rejectCount;
        if (tel.rejects)
            tel.rejects->add(1);
        return false;
    }

    if (seeds.size() < cap) {
        append(std::move(seed));
        if (tel.admits) {
            tel.admits->add(1);
            tel.size->set(static_cast<int64_t>(seeds.size()));
        }
        return true;
    }

    if (pol == SchedulingPolicy::Fifo) {
        auto oldest = std::min_element(
            seeds.begin(), seeds.end(),
            [](const Seed &a, const Seed &b) {
                return a.insertedAt < b.insertedAt;
            });
        replaceAt(static_cast<size_t>(oldest - seeds.begin()),
                  std::move(seed));
        if (tel.admits)
            tel.admits->add(1);
        return true;
    }

    // CoverageGuided: replace the seed with the lowest recorded
    // coverage improvement, but only when the newcomer beats it.
    auto weakest = std::min_element(
        seeds.begin(), seeds.end(), [](const Seed &a, const Seed &b) {
            return a.coverageIncrement < b.coverageIncrement;
        });
    if (weakest->coverageIncrement >= cov_increment) {
        ++rejectCount;
        if (tel.rejects)
            tel.rejects->add(1);
        return false;
    }
    replaceAt(static_cast<size_t>(weakest - seeds.begin()),
              std::move(seed));
    if (tel.admits)
        tel.admits->add(1);
    return true;
}

const Seed *
Corpus::trySelect(Rng &rng, Prob prioritize_prob) const
{
    if (seeds.empty())
        return nullptr;
    if (tel.selects)
        tel.selects->add(1);
    if (pol == SchedulingPolicy::CoverageGuided &&
        rng.chance(prioritize_prob.num, prioritize_prob.den)) {
        // Prioritized selection samples the top quartile by recorded
        // coverage increment, keeping several promising seeds in
        // rotation instead of starving all but the single best.
        // nth_element keeps this O(n) instead of a full sort; only
        // the quartile membership matters because the pick inside it
        // is uniform.
        std::vector<const Seed *> ranked;
        ranked.reserve(seeds.size());
        for (const Seed &s : seeds)
            ranked.push_back(&s);
        const size_t top = std::max<size_t>(1, ranked.size() / 4);
        if (top < ranked.size()) {
            std::nth_element(
                ranked.begin(),
                ranked.begin() + static_cast<std::ptrdiff_t>(top) - 1,
                ranked.end(), [](const Seed *a, const Seed *b) {
                    return a->coverageIncrement > b->coverageIncrement;
                });
        }
        return ranked[rng.range(top)];
    }
    return &seeds[rng.range(seeds.size())];
}

const Seed *
Corpus::findSeed(uint64_t seed_id) const
{
    const auto it = idIndex.find(seed_id);
    return it == idIndex.end() ? nullptr : &seeds[it->second];
}

void
Corpus::updateIncrement(uint64_t seed_id, uint64_t cov_increment)
{
    const auto it = idIndex.find(seed_id);
    // The seed may have been evicted meanwhile; that is not an error.
    if (it == idIndex.end())
        return;
    seeds[it->second].coverageIncrement = cov_increment;
}

std::vector<size_t>
Corpus::topK(size_t k) const
{
    std::vector<size_t> ranked(seeds.size());
    std::iota(ranked.begin(), ranked.end(), size_t{0});
    const size_t n = std::min(k, ranked.size());
    const auto better = [this](size_t a, size_t b) {
        if (seeds[a].coverageIncrement != seeds[b].coverageIncrement)
            return seeds[a].coverageIncrement > seeds[b].coverageIncrement;
        return seeds[a].insertedAt < seeds[b].insertedAt;
    };
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(n),
                      ranked.end(), better);
    ranked.resize(n);
    return ranked;
}

std::vector<SeedShare>
Corpus::exportTopShared(size_t k)
{
    const std::vector<size_t> top = topK(k);
    std::vector<SeedShare> out;
    out.reserve(top.size());
    for (size_t idx : top)
        out.push_back(
            {std::make_shared<const Seed>(seeds[idx]), hashAt(idx)});
    return out;
}

size_t
Corpus::importShared(const std::vector<SeedShare> &shares,
                     uint64_t &next_seed_id)
{
    // Content hashes of the seeds resident at the start of the call:
    // a broadcast fleet offers the same top-K exemplars at every
    // barrier, and re-identified copies must not be re-admitted as
    // fresh stimuli. Each resident's hash is computed once and cached;
    // a seed body is copied out of its shared block only when it
    // survives dedup.
    std::unordered_set<uint64_t> resident;
    resident.reserve(seeds.size() + shares.size());
    for (size_t i = 0; i < seeds.size(); ++i)
        resident.insert(hashAt(i));

    size_t admitted = 0;
    for (const SeedShare &share : shares) {
        if (!resident.insert(share.contentHash).second) {
            ++dupImportCount;
            if (tel.importsDuplicate)
                tel.importsDuplicate->add(1);
            continue;
        }
        Seed s = *share.seed;
        s.id = next_seed_id++;
        // The parent id belongs to the exporting shard's id space;
        // keeping it would alias an unrelated local seed. Imports
        // become lineage roots that retain their depth and operator
        // (docs/provenance.md).
        s.parentId = 0;
        const uint64_t increment = s.coverageIncrement;
        if (offer(std::move(s), increment))
            ++admitted;
    }
    if (tel.importsAdmitted)
        tel.importsAdmitted->add(admitted);
    return admitted;
}

void
Corpus::saveState(soc::SnapshotWriter &out) const
{
    out.putU64(nextInsertion);
    out.putU64(evictCount);
    out.putU64(rejectCount);
    out.putU64(dupImportCount);
    out.putU32(static_cast<uint32_t>(seeds.size()));
    for (const Seed &s : seeds) {
        out.putU64(s.id);
        out.putU64(s.coverageIncrement);
        out.putU64(s.insertedAt);
        out.putU64(s.parentId);
        out.putU8(s.originOp);
        out.putU32(s.lineageDepth);
        out.putU64(s.energyAtCreation);
        writeSeedBlocks(out, s.stimulus);
    }
}

bool
Corpus::loadState(soc::SnapshotReader &in, std::string *error)
{
    auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };

    if (in.remaining() < 4 * 8 + 4)
        return fail("truncated corpus header");
    nextInsertion = in.getU64();
    evictCount = in.getU64();
    rejectCount = in.getU64();
    dupImportCount = in.getU64();
    const uint32_t count = in.getU32();
    if (count > cap)
        return fail("corpus seed count exceeds capacity");

    seeds.clear();
    idIndex.clear();
    hashes.clear();
    seeds.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        if (in.remaining() < 45)
            return fail("truncated corpus seed");
        Seed s;
        s.id = in.getU64();
        s.coverageIncrement = in.getU64();
        s.insertedAt = in.getU64();
        s.parentId = in.getU64();
        s.originOp = in.getU8();
        s.lineageDepth = in.getU32();
        s.energyAtCreation = in.getU64();
        if (!readSeedBlocks(in, s.stimulus, error))
            return false;
        if (idIndex.count(s.id))
            return fail("duplicate seed id in corpus image");
        append(std::move(s));
    }
    if (tel.size)
        tel.size->set(static_cast<int64_t>(seeds.size()));
    return true;
}

} // namespace turbofuzz::fuzzer
