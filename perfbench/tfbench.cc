/**
 * @file
 * The benchmark's measuring process. perfbench/run.py starts it; each
 * invocation measures one workload in a fresh process.
 *
 *   tfbench harvest --seed N --out FILE
 *       Untimed: write the triage workload's reproducer harvest and
 *       print {"sessions", "sim_s"}.
 *   tfbench setup --workload W --seed N [--harvest FILE]
 *       Time one cold set-up and print {"library_s", "construct_s",
 *       "load_s"} as one JSON line.
 *   tfbench run --workload W --seed N --seconds S --trace 0|1
 *               [--harvest FILE] [--spans-out FILE]
 *       Repeat the workload's fixed unit of work a fixed number of
 *       times, then on until S seconds have passed, and print one JSON
 *       line: per-unit host times, the noise floor over the fixed
 *       units, the result digest, correctness accounting, peak RSS and
 *       host metadata. With --trace 1, traced units (span ledger + stage
 *       counters) alternate with untraced ones, and the line also
 *       carries the per-layer ledger and the tracing overhead.
 *
 * Exit code 0 on success, 1 on a usage or input error.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "ledger.hh"
#include "telemetry/clock.hh"
#include "workloads.hh"

using namespace turbofuzz;
using namespace perfbench;

namespace
{

struct Args
{
    std::string mode;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string harvest;
    std::string out;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "tfbench: %s\n", why.c_str());
    std::exit(1);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        usage("expected a mode: harvest | setup | run");
    a.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = std::stoi(val);
            else if (key == "--harvest")
                a.harvest = val;
            else if (key == "--out")
                a.out = val;
            else if (key == "--spans-out")
                a.spansOut = val;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    return a;
}

/** Nearest-rank percentile of @p v (0 < p <= 100). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
hostJson()
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(compiler)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE) << "}";
    return os.str();
}

double
maxRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
counterSec(const telemetry::MetricsSnapshot &m, const std::string &name)
{
    return static_cast<double>(m.counterValue(name)) * 1e-9;
}

double
counter(const telemetry::MetricsSnapshot &m, const std::string &name)
{
    return static_cast<double>(m.counterValue(name));
}

/** Engine, ISS and corpus layers from a campaign registry snapshot
 *  (one campaign, or the sum over a fleet's shards). */
void
fillEngineLayers(std::map<std::string, double> &l,
                 const telemetry::MetricsSnapshot &m, double units)
{
    l["fuzzer.generate_s"] = counterSec(m, "campaign.generate_ns") / units;
    l["engine.dut_s"] = counterSec(m, "engine.batch.dut_ns") / units;
    l["engine.ref_s"] = counterSec(m, "engine.batch.ref_ns") / units;
    l["engine.diff_s"] = counterSec(m, "engine.batch.diff_ns") / units;
    l["engine.sweep_s"] = counterSec(m, "engine.batch.sweep_ns") / units;
    l["engine.rewinds"] = counter(m, "engine.rewinds") / units;
    l["core.commits"] = counter(m, "campaign.commits") / units;
    const double hit = counter(m, "engine.decode_cache.hit");
    l["core.decode_hit_ratio"] =
        ratio(hit, hit + counter(m, "engine.decode_cache.miss"));
    l["core.superblock_side_exit_ratio"] =
        ratio(counter(m, "engine.superblock.side_exit"),
              counter(m, "engine.superblock.entered"));
    const double admits = counter(m, "corpus.admits");
    l["corpus.admit_ratio"] =
        ratio(admits, admits + counter(m, "corpus.rejects"));
    l["corpus.evictions"] = counter(m, "corpus.evictions") / units;
    l["corpus.imports_admitted"] =
        counter(m, "corpus.imports.admitted") / units;
    const double iters = counter(m, "campaign.iterations");
    l["coverage.new_points_per_iter"] =
        ratio(counter(m, "campaign.new_coverage"), iters);
    l["fuzzer.generate_us_per_iter"] =
        ratio(counterSec(m, "campaign.generate_ns") * 1e6, iters);
}

/** One unit's outcome in the form the report needs. */
struct UnitRecord
{
    bool traced = false;
    double hostSec = 0.0;
    double simSec = 0.0; ///< simulated seconds the unit stands for
    uint64_t digest = 0;
    std::vector<uint64_t> callNs;
    bool inFloor = false; ///< among the units the floor is taken over
};

struct Report
{
    std::vector<UnitRecord> units;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
    std::map<std::string, double> outcomes; ///< deterministic results
    std::map<std::string, double> ledger;   ///< traced runs only

    /** Peak RSS once the first unit has run: the process's whole
     *  workload, before repetition lets allocator state drift. */
    double peakRssMb = 0.0;
};

void
check(Report &rep, bool ok, const std::string &what)
{
    if (!ok && std::find(rep.problems.begin(), rep.problems.end(),
                         what) == rep.problems.end())
        rep.problems.push_back(what);
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/**
 * Run @p floor_units untraced units (and, in a traced run, as many
 * traced units, alternating with them), then keep running units until
 * @p a.seconds have passed. The floor is taken over the first
 * @p floor_units of each kind only: a fixed count, so a faster program
 * does not read lower minima merely because it completed more units.
 * With @p rotate, a single-threaded workload moves to the next allowed
 * CPU after every unit (every traced pair in a traced run, so a traced
 * unit shares its CPU with the untraced one before it): other tenants
 * contend each CPU differently and for tens of seconds at a time, and
 * per-call minima over units spread across CPUs find the uncontended
 * cost (README.md, "Noise").
 */
template <typename RunUnit>
void
measure(const Args &a, Report &rep, bool rotate, size_t floor_units,
        RunUnit run_unit)
{
    const std::vector<int> cpus = rotate ? allowedCpus() : std::vector<int>{};
    const telemetry::WallClock clock;
    bool next_traced = false;
    size_t traced = 0, untraced = 0;
    while (untraced < floor_units || (a.trace && traced < floor_units) ||
           clock.elapsedSec() < a.seconds) {
        if (!cpus.empty()) {
            const size_t slot = rep.units.size() / (a.trace ? 2 : 1);
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpus[slot % cpus.size()], &set);
            sched_setaffinity(0, sizeof set, &set); // best effort
        }
        const bool t = a.trace && next_traced;
        size_t &done = t ? traced : untraced;
        rep.units.push_back(run_unit(t));
        rep.units.back().traced = t;
        rep.units.back().inFloor = done < floor_units;
        if (rep.units.size() == 1)
            rep.peakRssMb = maxRssMb();
        ++done;
        next_traced = !next_traced;
    }
}

void
runCampaignWorkload(const Args &a, Report &rep, SpanLog &log)
{
    const isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    telemetry::MetricsSnapshot traced_metrics;
    double traced_units = 0;
    measure(a, rep, true, campaignFloorUnits, [&](bool traced) {
        const CampaignUnit u = runCampaign(a.seed, lib,
                                           traced ? &log : nullptr);
        rep.attempted += u.iterations;
        rep.failed += u.mismatches;
        check(rep, u.mismatches == 0,
              "clean core produced mismatching iterations");
        check(rep, u.warmIterations == u.iterations,
              "iterations fell back to cold start");
        rep.outcomes["coverage_points"] = static_cast<double>(u.points);
        rep.outcomes["iterations"] = static_cast<double>(u.iterations);
        rep.outcomes["commits"] = static_cast<double>(u.commits);
        rep.outcomes["sim_s"] = u.simSec;
        if (traced) {
            traced_metrics.merge(u.metrics);
            traced_units += 1;
            rep.ledger["fuzzer.generated_instrs"] =
                static_cast<double>(u.generatedInstrs);
        }
        return UnitRecord{traced, u.hostSec, u.simSec, u.digest, u.callNs};
    });
    if (!a.trace)
        return;

    auto &l = rep.ledger;
    fillEngineLayers(l, traced_metrics, traced_units);
    // The decorator's spans replace the campaign's own generate_ns.
    l["fuzzer.generate_s"] = log.totalNs("fuzzer.generate") * 1e-9 /
                             traced_units;
    l["fuzzer.generate_us_per_iter"] = ratio(
        log.totalNs("fuzzer.generate") * 1e-3,
        counter(traced_metrics, "campaign.iterations"));
    l["fuzzer.feedback_s"] =
        log.totalNs("fuzzer.feedback") * 1e-9 / traced_units;
    // Residual of runIteration after generate, feedback and the four
    // engine stages: scrub, REF image copy, warm restore, bookkeeping.
    l["harness.entry_other_s"] =
        log.selfNs("campaign.iteration") * 1e-9 / traced_units -
        (l["engine.dut_s"] + l["engine.ref_s"] + l["engine.diff_s"] +
         l["engine.sweep_s"]);
    std::vector<double> iter_ms;
    for (const uint64_t ns : log.durationsNs("campaign.iteration"))
        iter_ms.push_back(static_cast<double>(ns) * 1e-6);
    l["campaign.iteration_p50_ms"] = percentile(iter_ms, 50);
    l["campaign.iteration_p99_ms"] = percentile(iter_ms, 99);
    l["campaign.iteration_samples"] = static_cast<double>(iter_ms.size());
}

void
runFleetWorkload(const Args &a, Report &rep, SpanLog &log)
{
    const isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    std::map<std::string, double> sum;
    double traced_units = 0;
    measure(a, rep, false, fleetFloorUnits, [&](bool traced) {
        const FleetUnit u = runFleet(a.seed, lib, traced ? &log : nullptr);
        const fleet::FleetResult &r = u.result;
        rep.attempted += r.bugTable.size();
        rep.failed += u.unconfirmedBuckets;
        check(rep, u.unconfirmedBuckets == 0,
              "a bucket's exemplar did not confirm");
        check(rep, !r.bugTable.empty(), "the fleet found no bug");
        rep.outcomes["coverage_points"] =
            static_cast<double>(r.mergedFinalCoverage);
        rep.outcomes["bugs_found"] = static_cast<double>(r.bugTable.size());
        rep.outcomes["minimized_instrs"] =
            static_cast<double>(u.minimizedInstrs);
        rep.outcomes["reproducers"] =
            static_cast<double>(r.reproducersHarvested);
        rep.outcomes["iterations"] = static_cast<double>(r.totals.iterations);
        rep.outcomes["commits"] = static_cast<double>(r.totals.executedInstrs);
        if (traced) {
            std::map<std::string, double> l;
            const telemetry::MetricsSnapshot &m = r.metrics;
            fillEngineLayers(l, m, 1.0);
            l["fuzzer.generated_instrs"] =
                static_cast<double>(r.totals.generatedInstrs);
            double barrier = 0;
            for (const uint64_t ns : r.epochBarrierNs)
                barrier += static_cast<double>(ns) * 1e-9;
            const double tail = counterSec(m, "triage.minimize_ns");
            const double epochs = u.hostSec - barrier - tail;
            // Counted stage time summed over shards; per-iteration
            // entry work has no counter in a fleet.
            const double busy = l["fuzzer.generate_s"] + l["engine.dut_s"] +
                                l["engine.ref_s"] + l["engine.diff_s"] +
                                l["engine.sweep_s"];
            l["fleet.barrier_s"] = barrier;
            l["fleet.barrier.exchange_s"] =
                counterSec(m, "fleet.barrier.exchange_ns");
            l["fleet.barrier.merge_s"] = counterSec(m, "fleet.barrier.merge_ns");
            l["fleet.barrier.reduce_s"] =
                counterSec(m, "fleet.barrier.reduce_ns");
            l["fleet.barrier_share"] = ratio(barrier, u.hostSec);
            l["fleet.seed_admit_ratio"] =
                ratio(static_cast<double>(r.seedsAdmitted),
                      static_cast<double>(r.seedsExchanged));
            l["fleet.epoch_s"] = epochs;
            l["fleet.shard_busy_s"] = busy;
            l["fleet.parallel_utilization"] =
                ratio(busy, fleetShards * epochs);
            l["fleet.triage_tail_s"] = tail;
            for (const auto &[k, v] : l)
                sum[k] += v;
            traced_units += 1;
        }
        return UnitRecord{traced, u.hostSec, fleetBudgetSec, u.digest,
                          u.callNs};
    });
    for (const auto &[k, v] : sum)
        rep.ledger[k] = v / traced_units;
}

void
runTriageWorkload(const Args &a, Report &rep, SpanLog &log)
{
    const Harvest h = loadHarvest(a.harvest);
    // Simulated seconds the platform spends generating each harvested
    // stimulus and running it to its divergence: the fuzzing time the
    // triaged work stands for.
    const soc::TimingProfile profile = soc::turboFuzzProfile();
    double stimulus_sim_s = 0.0;
    for (const auto &session : h.sessions) {
        for (const triage::Reproducer &r : session)
            stimulus_sim_s +=
                profile.iterationSec(r.totalInstrs(), r.commitIndex + 1);
    }
    check(rep, stimulus_sim_s > 0.0, "the harvest holds no reproducers");
    TriageUnit last_traced;
    double traced_units = 0;
    measure(a, rep, true, triageFloorUnits, [&](bool traced) {
        const TriageUnit u = runTriage(h, traced ? &log : nullptr);
        rep.attempted += u.reproducers;
        rep.failed += u.unconfirmed;
        check(rep, u.unconfirmed == 0, "a reproducer did not confirm");
        check(rep, u.reconfirmFailures == 0,
              "a minimized exemplar did not re-confirm its signature");
        rep.outcomes["bugs_found"] = static_cast<double>(u.buckets);
        rep.outcomes["minimized_instrs"] =
            static_cast<double>(u.minimizedInstrs);
        rep.outcomes["reproducers"] = static_cast<double>(u.reproducers);
        rep.outcomes["harvest_sim_s"] = h.simSec;
        rep.outcomes["stimulus_sim_s"] = stimulus_sim_s;
        if (traced) {
            last_traced = u;
            traced_units += 1;
        }
        return UnitRecord{traced, u.hostSec(), stimulus_sim_s, u.digest,
                          u.callNs};
    });
    if (!a.trace)
        return;
    auto &l = rep.ledger;
    const TriageUnit &u = last_traced;
    l["triage.confirm_s"] = log.totalNs("triage.confirm") * 1e-9 / traced_units;
    l["triage.bucket_s"] = log.totalNs("triage.bucket") * 1e-9 / traced_units;
    l["triage.minimize_s"] =
        log.totalNs("triage.minimize") * 1e-9 / traced_units;
    l["triage.replays"] = static_cast<double>(u.replays);
    l["triage.us_per_replay"] = ratio(
        (l["triage.confirm_s"] + l["triage.minimize_s"]) * 1e6,
        static_cast<double>(u.replays));
    l["triage.confirm_ratio"] =
        ratio(static_cast<double>(u.reproducers - u.unconfirmed),
              static_cast<double>(u.reproducers));
    l["triage.reduction_ratio"] =
        ratio(static_cast<double>(u.minimizedInstrs),
              static_cast<double>(u.originalInstrs));
    l["triage.buckets"] = static_cast<double>(u.buckets);
}

/**
 * Host ms per simulated second at the noise floor: each public call's
 * fastest duration over the (un)traced floor units, summed. Every
 * repetition makes the same calls on the same inputs, so a call's
 * duration varies only with contention from other tenants of the host,
 * which can only slow it down (README.md, "Noise").
 */
double
floorMsPerSimSec(Report &rep, bool traced)
{
    std::vector<uint64_t> floor;
    double sim_sec = 0.0;
    for (const UnitRecord &u : rep.units) {
        if (u.traced != traced || !u.inFloor)
            continue;
        if (floor.empty()) {
            floor = u.callNs;
            sim_sec = u.simSec;
        }
        check(rep, u.callNs.size() == floor.size(),
              "repeated units made different calls");
        for (size_t i = 0; i < std::min(floor.size(), u.callNs.size()); ++i)
            floor[i] = std::min(floor[i], u.callNs[i]);
    }
    double ns = 0.0;
    for (const uint64_t v : floor)
        ns += static_cast<double>(v);
    return ns * 1e-6 / sim_sec;
}

void
printRun(const Args &a, Report &rep)
{
    for (const UnitRecord &u : rep.units) {
        check(rep, u.digest == rep.units.front().digest,
              "repeated units disagree on the result digest");
    }
    const double floor_ms = floorMsPerSimSec(rep, false);
    if (a.trace) {
        rep.ledger["trace.overhead_ratio"] =
            floorMsPerSimSec(rep, true) / floor_ms - 1.0;
    }

    std::ostringstream os;
    os.precision(10);
    os << "{\"workload\": " << jsonString(a.workload)
       << ", \"seed\": " << a.seed << ", \"trace\": " << a.trace
       << ", \"digest\": \"" << std::hex << rep.units.front().digest
       << std::dec << "\", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"problems\": [";
    for (size_t i = 0; i < rep.problems.size(); ++i)
        os << (i ? ", " : "") << jsonString(rep.problems[i]);
    os << "], \"units\": [";
    for (size_t i = 0; i < rep.units.size(); ++i) {
        const UnitRecord &u = rep.units[i];
        os << (i ? ", " : "") << "{\"traced\": " << (u.traced ? 1 : 0)
           << ", \"in_floor\": " << (u.inFloor ? 1 : 0)
           << ", \"host_s\": " << u.hostSec << ", \"ms_per_sim_s\": "
           << u.hostSec * 1e3 / u.simSec << "}";
    }
    os << "], \"outcomes\": {";
    bool first = true;
    for (const auto &[k, v] : rep.outcomes) {
        os << (first ? "" : ", ") << jsonString(k) << ": " << v;
        first = false;
    }
    os << "}, \"ledger\": {";
    first = true;
    for (const auto &[k, v] : rep.ledger) {
        os << (first ? "" : ", ") << jsonString(k) << ": " << v;
        first = false;
    }
    os << "}, \"floor_ms_per_sim_s\": " << floor_ms
       << ", \"peak_rss_mb\": " << rep.peakRssMb
       << ", \"host\": " << hostJson() << "}";
    std::printf("%s\n", os.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        if (a.mode == "harvest") {
            if (a.out.empty())
                usage("harvest needs --out");
            const isa::InstructionLibrary lib =
                harness::makeDefaultLibrary();
            const Harvest h = harvestFor(a.seed, lib);
            const std::vector<uint8_t> bytes = encodeHarvest(h);
            std::ofstream out(a.out, std::ios::binary);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      static_cast<std::streamsize>(bytes.size()));
            if (!out)
                usage("cannot write " + a.out);
            std::printf("{\"sessions\": %zu, \"sim_s\": %.9f}\n",
                        h.sessions.size(), h.simSec);
            return 0;
        }
        const auto w = parseWorkload(a.workload);
        if (!w)
            usage("unknown workload '" + a.workload + "'");
        if (*w == Workload::Triage && a.harvest.empty())
            usage("the triage workload needs --harvest");
        if (a.mode == "setup") {
            const SetupTimes t = timeSetup(*w, a.seed, a.harvest);
            std::printf("{\"library_s\": %.9f, \"construct_s\": %.9f, "
                        "\"load_s\": %.9f}\n",
                        t.librarySec, t.constructSec, t.loadSec);
            return 0;
        }
        if (a.mode != "run")
            usage("unknown mode '" + a.mode + "'");
        if (a.trace != 0 && a.trace != 1)
            usage("--trace must be 0 or 1");
        Report rep;
        SpanLog log;
        if (*w == Workload::Campaign)
            runCampaignWorkload(a, rep, log);
        else if (*w == Workload::Fleet)
            runFleetWorkload(a, rep, log);
        else
            runTriageWorkload(a, rep, log);
        if (!a.spansOut.empty() && !log.writeJson(a.spansOut))
            usage("cannot write " + a.spansOut);
        printRun(a, rep);
        return 0;
    } catch (const std::exception &e) {
        usage(e.what());
    }
}
