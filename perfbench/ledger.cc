#include "ledger.hh"

#include <cstdio>

#include "telemetry/clock.hh"

namespace perfbench
{

using namespace turbofuzz;

SpanLog::Scope::Scope(SpanLog *span_log, const char *name, uint64_t group)
    : log(span_log)
{
    if (!log)
        return;
    Span s;
    s.name = name;
    s.parent = log->innermost;
    if (group == inheritGroup)
        group = s.parent >= 0 ? log->list[s.parent].group : 0;
    s.group = group;
    index = log->list.size();
    log->list.push_back(s);
    log->innermost = static_cast<int64_t>(index);
    // Read the clock last so the bookkeeping above stays outside.
    log->list[index].startNs = telemetry::nowNs();
}

SpanLog::Scope::~Scope()
{
    if (!log)
        return;
    Span &s = log->list[index];
    s.endNs = telemetry::nowNs();
    log->innermost = s.parent;
}

uint64_t
SpanLog::totalNs(std::string_view name) const
{
    uint64_t ns = 0;
    for (const Span &s : list) {
        if (name == s.name)
            ns += s.durationNs();
    }
    return ns;
}

uint64_t
SpanLog::selfNs(std::string_view name) const
{
    uint64_t ns = totalNs(name);
    for (const Span &s : list) {
        if (s.parent >= 0 && name == list[s.parent].name)
            ns -= s.durationNs();
    }
    return ns;
}

std::vector<uint64_t>
SpanLog::durationsNs(std::string_view name) const
{
    std::vector<uint64_t> out;
    for (const Span &s : list) {
        if (name == s.name)
            out.push_back(s.durationNs());
    }
    return out;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"spans\": [\n", f);
    for (size_t i = 0; i < list.size(); ++i) {
        const Span &s = list[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"start_ns\": %llu, "
                     "\"end_ns\": %llu, \"parent\": %lld, "
                     "\"group\": %llu}",
                     i ? ",\n" : "", s.name,
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.group));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

TimedGenerator::TimedGenerator(
    std::unique_ptr<fuzzer::StimulusGenerator> wrapped, SpanLog *span_log)
    : inner(std::move(wrapped)), log(span_log)
{}

fuzzer::IterationInfo
TimedGenerator::generate(soc::Memory &mem)
{
    SpanLog::Scope span(log, "fuzzer.generate");
    return inner->generate(mem);
}

void
TimedGenerator::feedback(const fuzzer::IterationInfo &info,
                         uint64_t cov_increment)
{
    SpanLog::Scope span(log, "fuzzer.feedback");
    inner->feedback(info, cov_increment);
}

const fuzzer::MemoryLayout &
TimedGenerator::layout() const
{
    return inner->layout();
}

bool
TimedGenerator::usesExceptionTemplates() const
{
    return inner->usesExceptionTemplates();
}

std::string_view
TimedGenerator::name() const
{
    return inner->name();
}

void
TimedGenerator::bindTelemetry(telemetry::MetricRegistry *reg)
{
    inner->bindTelemetry(reg);
}

size_t
TimedGenerator::importSeeds(std::vector<fuzzer::Seed> seeds)
{
    return inner->importSeeds(std::move(seeds));
}

std::vector<fuzzer::Seed>
TimedGenerator::exportTopSeeds(size_t k) const
{
    return inner->exportTopSeeds(k);
}

size_t
TimedGenerator::importSharedSeeds(
    const std::vector<fuzzer::SeedShare> &shares)
{
    return inner->importSharedSeeds(shares);
}

std::vector<fuzzer::SeedShare>
TimedGenerator::exportTopSharedSeeds(size_t k)
{
    return inner->exportTopSharedSeeds(k);
}

std::optional<fuzzer::ReplayEnv>
TimedGenerator::replayEnv() const
{
    return inner->replayEnv();
}

bool
TimedGenerator::checkpointSave(soc::SnapshotWriter &out) const
{
    return inner->checkpointSave(out);
}

bool
TimedGenerator::checkpointLoad(soc::SnapshotReader &in, std::string *error)
{
    return inner->checkpointLoad(in, error);
}

} // namespace perfbench
