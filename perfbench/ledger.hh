/**
 * @file
 * The benchmark's span ledger and the timing decorator it uses to see
 * inside a Campaign.
 *
 * Every span is recorded by benchmark code around a call into a
 * public function of the program; nothing under src/ knows the
 * ledger exists. Layers without a public call boundary (the engine
 * stages, the barrier phases, the ISS fast path) are read from the
 * counters the program already exposes instead (workloads.cc).
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fuzzer/generator.hh"

namespace perfbench
{

/** One recorded interval on the benchmark's thread. */
struct Span
{
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1; ///< index of the enclosing span; -1 at top
    uint64_t group = 0;  ///< iteration, epoch or reproducer id

    uint64_t durationNs() const { return endNs - startNs; }
};

/**
 * In-memory span log. Spans nest strictly (one thread), so a layer's
 * self time is its duration minus the durations of its direct
 * children. A null log pointer disables recording at every site.
 */
class SpanLog
{
  public:
    /** Group id meaning "same group as the enclosing span". */
    static constexpr uint64_t inheritGroup = ~uint64_t{0};

    /** RAII span; a no-op when @p log is null. */
    class Scope
    {
      public:
        Scope(SpanLog *log, const char *name,
              uint64_t group = inheritGroup);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log;
        size_t index = 0;
    };

    const std::vector<Span> &spans() const { return list; }

    /** Summed durations of every span named @p name. */
    uint64_t totalNs(std::string_view name) const;

    /** Summed self time of every span named @p name. */
    uint64_t selfNs(std::string_view name) const;

    /** Duration of each span named @p name, in record order. */
    std::vector<uint64_t> durationsNs(std::string_view name) const;

    /** Write {"spans":[{name,start_ns,end_ns,parent,group},...]}. */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<Span> list;
    int64_t innermost = -1;
};

/**
 * Forwarding StimulusGenerator that records a span around every
 * generate() and feedback() call. Everything else passes straight
 * through, so a campaign behind it produces bit-identical results
 * (the transparency test checks this).
 */
class TimedGenerator final : public turbofuzz::fuzzer::StimulusGenerator
{
  public:
    TimedGenerator(
        std::unique_ptr<turbofuzz::fuzzer::StimulusGenerator> inner,
        SpanLog *log);

    turbofuzz::fuzzer::IterationInfo
    generate(turbofuzz::soc::Memory &mem) override;
    void feedback(const turbofuzz::fuzzer::IterationInfo &info,
                  uint64_t cov_increment) override;

    const turbofuzz::fuzzer::MemoryLayout &layout() const override;
    bool usesExceptionTemplates() const override;
    std::string_view name() const override;
    void bindTelemetry(turbofuzz::telemetry::MetricRegistry *reg) override;
    size_t importSeeds(std::vector<turbofuzz::fuzzer::Seed> seeds) override;
    std::vector<turbofuzz::fuzzer::Seed>
    exportTopSeeds(size_t k) const override;
    size_t importSharedSeeds(
        const std::vector<turbofuzz::fuzzer::SeedShare> &shares) override;
    std::vector<turbofuzz::fuzzer::SeedShare>
    exportTopSharedSeeds(size_t k) override;
    std::optional<turbofuzz::fuzzer::ReplayEnv> replayEnv() const override;
    bool checkpointSave(turbofuzz::soc::SnapshotWriter &out) const override;
    bool checkpointLoad(turbofuzz::soc::SnapshotReader &in,
                        std::string *error) override;

  private:
    std::unique_ptr<turbofuzz::fuzzer::StimulusGenerator> inner;
    SpanLog *log;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
