/**
 * @file
 * chperf: one pass of the repository benchmark, in a fresh process
 * (README.md in this directory has the workloads and the metrics).
 *
 * A pass
 *   1. sets up several times and records each set-up's wall time: it
 *      compiles the 15 corpus programs (the first time into
 *      programCache(), which the runner then uses);
 *   2. runs its workload's grid once, timed from outside, through public
 *      entry points only;
 *   3. checks every job's output against the exit codes recorded below;
 *   4. prints one JSON object with the raw measurements on stdout.
 *
 * With --trace FILE the pass also records spans around each call into a
 * layer, runs the probe pass (probe.cc) after the workload, and writes
 * FILE as Chrome trace-event JSON. run.py turns passes into metrics.
 */

#include <ftw.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "emu/emulator.h"
#include "frontc/codegen.h"
#include "perfbench.h"
#include "runner/metrics.h"
#include "runner/runner.h"
#include "service/farm.h"
#include "workloads/prog_cache.h"
#include "workloads/workloads.h"

using namespace ch;

namespace chperf {

const char*
isaKey(Isa isa)
{
    switch (isa) {
      case Isa::Riscv: return "riscv";
      case Isa::Straight: return "straight";
      case Isa::Clockhands: return "clockhands";
    }
    return "unknown";
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace chperf

using namespace chperf;

namespace {

using Clock = std::chrono::steady_clock;

/** Exit code of each corpus program; all three ISAs must return it. */
const std::map<std::string, int64_t> kRecordedExit = {
    {"coremark", 71}, {"bzip2", 100}, {"mcf", 102}, {"lbm", 54},
    {"xz", 90}};

/** Instructions of the traced run's probe-farm point. */
constexpr uint64_t kFarmCap = 100000;

/**
 * Compile-only set-ups per pass (~0.05 s each); with three or more
 * passes per run, 30+ cheap ones keep the median clear of host
 * transients.
 */
constexpr int kSetupReps = 10;

/** fig13_sampled interval; 5% of it is measured. */
constexpr uint64_t kSampleInterval = 200000;

/**
 * Instruction caps of the probe pass (probe.cc). The timing cap holds
 * 14 sampling intervals, enough for K=nproc shards to have work.
 */
constexpr uint64_t kProbeEmuCap = 2000000;
constexpr uint64_t kProbeSimCap = 3000000;

struct Options {
    std::string workload;
    uint64_t seed = 1;
    std::string traceFile;      ///< empty: untraced pass
    uint64_t maxInsts = ~0ull;  ///< grid cap; default runs to completion
    uint64_t farmCap = kFarmCap;
    uint64_t probeEmuCap = kProbeEmuCap;
    uint64_t probeSimCap = kProbeSimCap;
    int jobs = 1;               ///< sweep threads: nproc
    std::string workDir = ".";
    std::map<std::string, int64_t> expectExit = kRecordedExit;
};

[[noreturn]] void
usage(const std::string& msg)
{
    std::fprintf(stderr,
                 "chperf: %s\n"
                 "usage: chperf --workload fig13_detailed|fig13_sampled "
                 "--seed N [--trace FILE] [--max-insts N] "
                 "[--work-dir DIR] [--expect-exit PROGRAM=CODE]\n",
                 msg.c_str());
    std::exit(2);
}

uint64_t
parseCount(const std::string& what, const char* s, uint64_t lo)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || errno == ERANGE || std::strchr(s, '-') || v < lo)
        usage(what + " expects an integer >= " + std::to_string(lo) +
              ", got '" + s + "'");
    return v;
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(arg + " needs an argument");
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = next();
        } else if (arg == "--seed") {
            o.seed = parseCount(arg, next(), 0);
            haveSeed = true;
        } else if (arg == "--trace") {
            o.traceFile = next();
        } else if (arg == "--max-insts") {
            // Caps everything: grid jobs, the probe farm and the probe.
            o.maxInsts = parseCount(arg, next(), 1);
            o.farmCap = std::min(o.farmCap, o.maxInsts);
            o.probeEmuCap = std::min(o.probeEmuCap, o.maxInsts);
            o.probeSimCap = std::min(o.probeSimCap, o.maxInsts);
        } else if (arg == "--work-dir") {
            o.workDir = next();
        } else if (arg == "--expect-exit") {
            const std::string kv = next();
            const size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                usage("--expect-exit expects PROGRAM=CODE");
            o.expectExit[kv.substr(0, eq)] = static_cast<int64_t>(
                parseCount(arg, kv.c_str() + eq + 1, 0));
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (o.workload != "fig13_detailed" && o.workload != "fig13_sampled")
        usage("unknown workload '" + o.workload + "'");
    if (!haveSeed)
        usage("--seed is required");
    o.jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    return o;
}

/** splitmix64: the benchmark's only source of pseudo-randomness. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    uint64_t state_;
};

/** The sampled workload's SamplingConfig; the seed picks seedOffset. */
SamplingConfig
samplingFor(uint64_t seed)
{
    SamplingConfig sc;
    sc.intervalInsts = kSampleInterval;
    sc.sampleInsts = kSampleInterval / 20;
    // Twice the largest Table 2 ROB, so the detailed warmup refills it.
    sc.warmupInsts =
        2 * static_cast<uint64_t>(MachineConfig::preset(16).robSize);
    sc.seedOffset = Rng(seed).next() % kSampleInterval;
    sc.shards = 1;
    return sc;
}

/** FNV-1a over the deterministic part of each result, in order. */
class Digest
{
  public:
    void
    add(const std::string& id, const JobMetrics& m)
    {
        std::ostringstream os;
        os << id << '|' << m.exited << '|' << m.exitCode << '|' << m.cycles
           << '|' << m.insts << '|';
        for (const auto& [k, v] : m.counters)
            os << k << '=' << v << ';';
        os << '|';
        char buf[64];
        for (const auto& [k, v] : m.values) {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            os << k << '=' << buf << ';';
        }
        os << '\n';
        for (const char c : os.str()) {
            h_ ^= static_cast<uint8_t>(c);
            h_ *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

bool
sameSimulatedOutput(const JobMetrics& a, const JobMetrics& b)
{
    return a.exited == b.exited && a.exitCode == b.exitCode &&
           a.cycles == b.cycles && a.insts == b.insts &&
           a.counters == b.counters && a.values == b.values;
}

/** One point of the Fig 13 grid. */
struct GridPoint {
    std::string workload;
    Isa isa = Isa::Riscv;
    int width = 0;
};

/** The grid in bench/fig13_performance.cc's job order. */
std::vector<GridPoint>
gridPoints()
{
    std::vector<GridPoint> pts;
    for (const Workload& w : workloads())
        for (int width : kWidths)
            for (Isa isa : kIsas)
                pts.push_back({w.name, isa, width});
    return pts;
}

JobSpec
specFor(const GridPoint& p, uint64_t cap)
{
    JobSpec spec;
    spec.id = p.workload + "/" + isaKey(p.isa) + "/" +
              std::to_string(p.width) + "f";
    spec.workload = p.workload;
    spec.isa = p.isa;
    spec.cfg = MachineConfig::preset(p.width);
    spec.maxInsts = cap;
    return spec;
}

/** Everything one pass measured, before run.py aggregates it. */
struct PassResult {
    std::vector<double> setupS;
    double wallS = 0;
    std::vector<double> opMs;   ///< per-operation latency
    double peakRssMiB = 0;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> failures;
    Digest digest;
    /** Grid-shaped results: cycles.* and the modelled-component rows. */
    std::vector<std::pair<GridPoint, JobMetrics>> grid;
    MetricMap layers;
    double traceWriteS = 0;

    void
    fail(const std::string& msg)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(msg);
    }
};

// ---------------------------------------------------------------------
// Process and file helpers.
// ---------------------------------------------------------------------

/** VmHWM of @p pid in MiB (0 when unreadable). */
double
peakRssMiBOf(const std::string& pid)
{
    std::ifstream is("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

int
removeEntry(const char* path, const struct stat*, int, struct FTW*)
{
    return ::remove(path);
}

/** Delete a directory this pass created (a store), depth first. */
void
removeTree(const std::string& path)
{
    ::nftw(path.c_str(), removeEntry, 16, FTW_DEPTH | FTW_PHYS);
}

/** First unsigned integer after "key": in a one-line JSON reply. */
bool
jsonUint(const std::string& text, const std::string& key, uint64_t* out)
{
    const std::string pat = "\"" + key + "\":";
    const size_t p = text.find(pat);
    if (p == std::string::npos)
        return false;
    const char* s = text.c_str() + p + pat.size();
    char* end = nullptr;
    *out = std::strtoull(s, &end, 10);
    return end != s;
}

// ---------------------------------------------------------------------
// Set-up, checks and grid-derived metrics shared by the workloads.
// ---------------------------------------------------------------------

/**
 * Compile the corpus once. The first set-up fills programCache() (what
 * users pay); later ones call the compile layers directly and throw the
 * programs away, so every set-up does the same work.
 */
void
compileCorpus(bool intoCache, SpanRecorder& spans, int parent)
{
    for (const Workload& w : workloads()) {
        for (Isa isa : kIsas) {
            const std::string name = w.name + "/" + isaKey(isa);
            if (intoCache) {
                ScopedSpan s(spans, "programCache().get " + name,
                             "workloads", parent);
                programCache().get(w.name, isa);
                continue;
            }
            ScopedSpan s(spans, "compile " + name, "bench", parent);
            VModule mod;
            {
                ScopedSpan f(spans, "compileToVCode " + name, "frontc",
                             s.index());
                mod = compileToVCode(w.source);
            }
            ScopedSpan b(spans, "compileVModule " + name, "backend",
                         s.index());
            const Program prog = compileVModule(mod, isa);
            (void)prog;
        }
    }
}

struct ProgramRun {
    bool exited = false;
    int64_t exitCode = 0;
    uint64_t insts = 0;
};

using ProgramKey = std::pair<std::string, int>;

/** Emulate every program to completion (the exit-code check). */
std::map<ProgramKey, ProgramRun>
runCorpusToCompletion(SpanRecorder& spans, int parent)
{
    std::map<ProgramKey, ProgramRun> runs;
    for (const Workload& w : workloads()) {
        for (Isa isa : kIsas) {
            ScopedSpan s(spans, std::string("check ") + w.name + "/" +
                                    isaKey(isa),
                         "emu", parent);
            Emulator emu(programCache().get(w.name, isa));
            const RunResult r = emu.run();
            runs[{w.name, static_cast<int>(isa)}] = {r.exited, r.exitCode,
                                                    r.instCount};
        }
    }
    return runs;
}

/**
 * Per program: an empty string when it exits with the recorded code on
 * all three ISAs, else what is wrong.
 */
std::map<std::string, std::string>
programVerdicts(const std::map<ProgramKey, ProgramRun>& runs,
                const std::map<std::string, int64_t>& expected)
{
    std::map<std::string, std::string> verdicts;
    for (const Workload& w : workloads()) {
        std::string& v = verdicts[w.name];
        const auto it = expected.find(w.name);
        std::string codes;
        bool agree = true;
        int64_t first = 0;
        for (size_t i = 0; i < 3; ++i) {
            const ProgramRun& r = runs.at({w.name, static_cast<int>(kIsas[i])});
            codes += std::string(i ? "," : "") + isaKey(kIsas[i]) + "=" +
                     (r.exited ? std::to_string(r.exitCode) : "none");
            if (i == 0)
                first = r.exitCode;
            agree = agree && r.exited && r.exitCode == first;
        }
        if (!agree)
            v = w.name + ": exit codes disagree across ISAs (" + codes + ")";
        else if (it == expected.end())
            v = w.name + ": no recorded exit code";
        else if (first != it->second)
            v = w.name + ": exit code " + std::to_string(first) +
                ", recorded " + std::to_string(it->second);
    }
    return verdicts;
}

/** Geomean of a grid's simulated cycles per ISA, in Mcycles. */
void
addCycles(const PassResult& r, std::map<std::string, double>& out)
{
    for (Isa isa : kIsas) {
        double logSum = 0;
        size_t n = 0;
        for (const auto& [p, m] : r.grid) {
            if (p.isa != isa || m.cycles == 0)
                continue;
            logSum += std::log(static_cast<double>(m.cycles) / 1e6);
            ++n;
        }
        if (n)
            out[isaKey(isa)] = std::exp(logSum / static_cast<double>(n));
    }
}

/** Modelled-component sums and the Fig 13 ratios from a grid. */
void
addGridLayers(PassResult& r, const std::map<ProgramKey, ProgramRun>& runs)
{
    static const char* kStallCats[] = {
        "retiring", "frontendLatency", "frontendBandwidth",
        "badSpeculation", "backendMemory", "backendCore"};
    for (Isa isa : kIsas) {
        const std::string k = isaKey(isa);
        std::map<std::string, double> sums;
        for (const auto& [p, m] : r.grid) {
            if (p.isa != isa)
                continue;
            for (const char* cat : kStallCats) {
                const auto it = m.counters.find(std::string("stall.") + cat);
                if (it != m.counters.end())
                    sums[std::string("uarch.stall.") + cat] += it->second;
            }
            for (const auto& [counter, metric] :
                 {std::pair<std::string, std::string>{"branch.mispredicts",
                                                      "uarch.branch.mispredicts"},
                  {"cache.l1d.misses", "uarch.l1d.misses"},
                  {"cache.l2.misses", "uarch.l2.misses"}}) {
                const auto it = m.counters.find(counter);
                if (it != m.counters.end())
                    sums[metric] += it->second;
            }
        }
        for (const auto& [name, v] : sums) {
            r.layers[name + "." + k] = {
                v, name.rfind("uarch.stall.", 0) == 0 ? "cycles" : "count"};
        }
        double insts = 0;
        for (const Workload& w : workloads())
            insts += runs.at({w.name, static_cast<int>(isa)}).insts;
        r.layers["backend." + k + ".insts"] = {insts, "count"};
    }
    r.layers["backend.clockhands.inst_ratio"] = {
        r.layers["backend.clockhands.insts"].value /
            r.layers["backend.riscv.insts"].value,
        "ratio"};

    // Fig 13: geomean over programs of per-width cycle ratios.
    for (int width : kWidths) {
        double logRv = 0, logS = 0;
        size_t n = 0;
        for (const Workload& w : workloads()) {
            double cyc[3] = {0, 0, 0};
            for (const auto& [p, m] : r.grid) {
                if (p.workload == w.name && p.width == width)
                    cyc[static_cast<int>(p.isa)] =
                        static_cast<double>(m.cycles);
            }
            if (cyc[0] <= 0 || cyc[1] <= 0 || cyc[2] <= 0)
                continue;
            logRv += std::log(cyc[0] / cyc[2]);
            logS += std::log(cyc[1] / cyc[2]);
            ++n;
        }
        if (!n)
            continue;
        const std::string w = std::to_string(width) + "f";
        r.layers["fig13.ch_vs_rv_pct." + w] = {
            100.0 * std::exp(logRv / static_cast<double>(n)), "%"};
        r.layers["fig13.ch_vs_straight_pct." + w] = {
            100.0 * (std::exp(logS / static_cast<double>(n)) - 1.0), "%"};
    }
}

/** Run the set-up kSetupReps times, timing each. */
void
runSetups(SpanRecorder& spans, PassResult& res)
{
    for (int rep = 0; rep < kSetupReps; ++rep) {
        ScopedSpan s(spans, "set-up " + std::to_string(rep), "bench");
        const auto t0 = Clock::now();
        compileCorpus(rep == 0, spans, s.index());
        res.setupS.push_back(secondsSince(t0));
    }
}

// ---------------------------------------------------------------------
// The farm.
// ---------------------------------------------------------------------

/** A FarmServer serving on its own thread until destroyed. */
class LocalFarm
{
  public:
    LocalFarm(const std::string& address, int workers,
              const std::string& storeDir)
        : address_(address)
    {
        service::FarmOptions fo;
        fo.socket = address;
        fo.workers = workers;
        fo.storeDir = storeDir;
        fo.useStore = true;
        server_ = std::make_unique<service::FarmServer>(std::move(fo));
        server_->start();
        thread_ = std::thread([this] {
            try {
                server_->serve();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "chperf: farm stopped: %s\n",
                             e.what());
            }
        });
    }

    ~LocalFarm()
    {
        server_->requestStop();
        thread_.join();
    }

    LocalFarm(const LocalFarm&) = delete;
    LocalFarm& operator=(const LocalFarm&) = delete;

    const std::string& address() const { return address_; }

  private:
    std::string address_;
    std::unique_ptr<service::FarmServer> server_;
    std::thread thread_;
};

/** Farm counters from a `stats` reply. */
struct FarmStats {
    uint64_t jobsDone = 0;
    uint64_t simulated = 0;
    uint64_t storeHits = 0;
    uint64_t busyReplies = 0;
};

FarmStats
farmStats(service::FarmClient& client)
{
    const std::string reply = client.request("{\"type\":\"stats\"}");
    FarmStats st;
    if (!jsonUint(reply, "jobs_done", &st.jobsDone) ||
        !jsonUint(reply, "simulated", &st.simulated) ||
        !jsonUint(reply, "store_hits", &st.storeHits) ||
        !jsonUint(reply, "busy_replies", &st.busyReplies))
        throw std::runtime_error("farm: malformed stats reply: " + reply);
    return st;
}

void
addFarmLayers(PassResult& r, service::FarmClient& client,
              const FarmStats& st, SpanRecorder& spans, int parent)
{
    std::vector<double> pingUs;
    for (int i = 0; i < 200; ++i) {
        ScopedSpan s(spans, "ping", "service", parent, i);
        const auto t0 = Clock::now();
        const std::string reply = client.request("{\"type\":\"ping\"}");
        pingUs.push_back(1e6 * secondsSince(t0));
        if (reply.find("pong") == std::string::npos)
            r.fail("farm: ping answered '" + reply + "'");
    }
    r.layers["service.farm.ping_us"] = {median(pingUs), "us"};
    r.layers["service.farm.hit_ratio"] = {
        st.jobsDone ? static_cast<double>(st.storeHits) / st.jobsDone : 0,
        "ratio"};
    r.layers["service.farm.simulated"] = {
        static_cast<double>(st.simulated), "count"};
    r.layers["service.farm.busy_replies"] = {
        static_cast<double>(st.busyReplies), "count"};
}

/**
 * Send @p specs through @p client in batches of @p inFlight (a closed
 * loop), timing each request from accept to result.
 */
void
runRequests(service::FarmClient& client, const std::vector<JobSpec>& specs,
            size_t inFlight, SpanRecorder& spans, int parent,
            std::vector<JobResult>& results, std::vector<double>& latMs)
{
    results.assign(specs.size(), JobResult{});
    latMs.assign(specs.size(), 0);
    std::vector<Clock::time_point> accepted(specs.size());
    std::vector<double> acceptedUs(specs.size());
    for (size_t b = 0; b < specs.size(); b += inFlight) {
        const size_t e = std::min(specs.size(), b + inFlight);
        const std::vector<JobSpec> batch(specs.begin() + b,
                                         specs.begin() + e);
        client.runJobs(
            batch, {},
            [&](size_t k, JobResult r) {
                const size_t i = b + k;
                latMs[i] = 1e3 * secondsSince(accepted[i]);
                if (spans.enabled()) {
                    Span s;
                    s.name = "request " + specs[i].id;
                    s.layer = "service";
                    s.startUs = acceptedUs[i];
                    s.endUs = spans.nowUs();
                    s.parent = parent;
                    s.id = static_cast<int64_t>(i);
                    s.lane = 1 + static_cast<int>(k);
                    spans.add(std::move(s));
                }
                results[i] = std::move(r);
            },
            [&](size_t k) {
                accepted[b + k] = Clock::now();
                if (spans.enabled())
                    acceptedUs[b + k] = spans.nowUs();
            });
    }
}

/** A capped run must stop at the cap unless the program ended first. */
bool
cappedRunOk(const JobMetrics& m, uint64_t cap)
{
    return m.exited || m.insts == cap;
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

double
cpuSeconds()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/**
 * SweepRunner::run() timed from outside. Adds the runner layer to
 * @p layers (traced passes only) and one child span per job.
 */
const std::vector<JobResult>&
timedSweep(SweepRunner& runner, const std::string& bench,
           SpanRecorder& spans, int parent, MetricMap& layers,
           double* wallS)
{
    const double cpu0 = cpuSeconds();
    const int runSpan = spans.begin("SweepRunner::run", "runner", parent);
    const double runStartUs = spans.nowUs();
    const auto t0 = Clock::now();
    const std::vector<JobResult>& results = runner.run();
    *wallS = secondsSince(t0);
    spans.end(runSpan);
    const double cpuS = cpuSeconds() - cpu0;
    if (!spans.enabled())
        return results;

    // Host time outside the jobs, and the cache counters the jobs
    // snapshot (absent once the trace cache is gone).
    const int threads = std::min<int>(runner.threadCount(),
                                      static_cast<int>(results.size()));
    double jobS = 0;
    uint64_t hits = 0, misses = 0;
    bool haveCache = false;
    for (const JobResult& r : results) {
        jobS += r.metrics.wallMs / 1e3;
        const auto h = r.metrics.hostCounters.find("trace_cache.hits");
        const auto m = r.metrics.hostCounters.find("trace_cache.misses");
        if (h != r.metrics.hostCounters.end() &&
            m != r.metrics.hostCounters.end()) {
            haveCache = true;
            hits = std::max(hits, h->second);
            misses = std::max(misses, m->second);
        }
    }
    layers["runner.cpu_s"] = {cpuS, "s"};
    layers["runner.nonjob_s"] = {threads * *wallS - jobS, "s"};
    if (haveCache) {
        layers["runner.trace_cache.hits"] = {static_cast<double>(hits),
                                             "count"};
        layers["runner.trace_cache.misses"] = {static_cast<double>(misses),
                                               "count"};
    }
    MetricsOptions mo;
    mo.bench = bench;
    std::vector<double> emitMs;
    for (int i = 0; i < 5; ++i) {
        ScopedSpan s(spans, "metricsJsonString", "runner", parent);
        const auto e0 = Clock::now();
        const std::string doc = metricsJsonString(mo, results);
        emitMs.push_back(1e3 * secondsSince(e0));
    }
    layers["runner.metrics.emit_ms"] = {median(emitMs), "ms"};

    // Job spans: durations are measured (JobMetrics::wallMs); start
    // times replay the runner's in-order dispatch onto its threads,
    // ending where run() ended.
    std::vector<double> laneEnd(static_cast<size_t>(threads), 0);
    std::vector<std::pair<size_t, double>> placed;
    for (const JobResult& r : results) {
        const size_t lane = static_cast<size_t>(
            std::min_element(laneEnd.begin(), laneEnd.end()) -
            laneEnd.begin());
        placed.emplace_back(lane, laneEnd[lane]);
        laneEnd[lane] += 1e3 * r.metrics.wallMs;
    }
    const double busy = *std::max_element(laneEnd.begin(), laneEnd.end());
    const double base = std::max(
        runStartUs, spans.spans()[static_cast<size_t>(runSpan)].endUs - busy);
    for (size_t i = 0; i < results.size(); ++i) {
        Span s;
        s.name = results[i].spec.id;
        s.layer = "uarch";
        s.startUs = base + placed[i].second;
        s.endUs = s.startUs + 1e3 * results[i].metrics.wallMs;
        s.parent = runSpan;
        s.id = static_cast<int64_t>(i);
        s.lane = 1 + static_cast<int>(placed[i].first);
        spans.add(std::move(s));
    }
    return results;
}

void
runGrid(const Options& o, bool sampled, SpanRecorder& spans,
        PassResult& res)
{
    runSetups(spans, res);

    RunnerOptions ro;
    ro.jobs = o.jobs;
    ro.tag = o.workload;
    if (sampled)
        ro.sampling = samplingFor(o.seed);
    SweepRunner runner(ro);
    const std::vector<GridPoint> points = gridPoints();
    for (const GridPoint& p : points)
        runner.addSim(specFor(p, o.maxInsts));
    const std::vector<JobResult>& results =
        timedSweep(runner, o.workload, spans, -1, res.layers, &res.wallS);
    res.peakRssMiB = peakRssMiBOf("self");
    for (const JobResult& r : results)
        res.opMs.push_back(r.metrics.wallMs);

    // Checks: every job ok, exited with the recorded code (or, capped,
    // stopped at the cap), and every program right on all three ISAs.
    const int checkSpan = spans.begin("check", "bench");
    const auto runs = runCorpusToCompletion(spans, checkSpan);
    spans.end(checkSpan);
    const auto verdicts = programVerdicts(runs, o.expectExit);
    for (size_t i = 0; i < results.size(); ++i) {
        const JobResult& r = results[i];
        const JobMetrics& m = r.metrics;
        ++res.attempted;
        res.digest.add(r.spec.id, m);
        res.grid.emplace_back(points[i], m);
        const std::string& verdict = verdicts.at(points[i].workload);
        const auto rec = o.expectExit.find(points[i].workload);
        if (!r.ok) {
            res.fail(r.spec.id + ": " + r.error);
        } else if (!verdict.empty()) {
            res.fail(r.spec.id + ": " + verdict);
        } else if (o.maxInsts == ~0ull && !m.exited) {
            res.fail(r.spec.id + ": did not run to completion");
        } else if (o.maxInsts == ~0ull && m.exitCode != rec->second) {
            res.fail(r.spec.id + ": exit code " +
                     std::to_string(m.exitCode) + ", recorded " +
                     std::to_string(rec->second));
        } else if (o.maxInsts != ~0ull && !cappedRunOk(m, o.maxInsts)) {
            res.fail(r.spec.id + ": ran " + std::to_string(m.insts) +
                     " instructions under a cap of " +
                     std::to_string(o.maxInsts));
        }
    }
    addGridLayers(res, runs);

    if (spans.enabled()) {
        // A one-worker farm for the service layer's probe: one point
        // simulated, then served from the store.
        const int farmSpan = spans.begin("probe farm", "service");
        const std::string store = o.workDir + "/probe-farm-store";
        {
            LocalFarm farm("unix:probe-farm.sock", 1, store);
            service::FarmClient client(farm.address());
            const std::vector<JobSpec> one = {
                specFor(points.front(), o.farmCap)};
            std::vector<JobResult> out;
            std::vector<double> lat;
            runRequests(client, one, 1, spans, farmSpan, out, lat);
            std::vector<JobResult> again;
            runRequests(client, one, 1, spans, farmSpan, again, lat);
            if (!out[0].ok || !again[0].ok ||
                !sameSimulatedOutput(out[0].metrics, again[0].metrics))
                res.fail("probe farm: a store hit differs from its "
                         "simulated result");
            addFarmLayers(res, client, farmStats(client), spans, farmSpan);
        }
        removeTree(store);
        spans.end(farmSpan);
    }
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

/** @p v with every digit a double carries. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
passJson(const Options& o, const PassResult& r)
{
    std::ostringstream os;
    os << "{\"workload\":" << jsonQuote(o.workload) << ",\"seed\":" << o.seed
       << ",\"setup_s\":[";
    for (size_t i = 0; i < r.setupS.size(); ++i)
        os << (i ? "," : "") << num(r.setupS[i]);
    os << "],\"wall_s\":" << num(r.wallS)
       << ",\"peak_rss_mib\":" << num(r.peakRssMiB) << ",\"op_ms\":[";
    for (size_t i = 0; i < r.opMs.size(); ++i)
        os << (i ? "," : "") << num(r.opMs[i]);
    os << "],\"cycles\":{";
    std::map<std::string, double> cycles;
    addCycles(r, cycles);
    bool first = true;
    for (const auto& [k, v] : cycles) {
        os << (first ? "" : ",") << jsonQuote(k) << ":" << num(v);
        first = false;
    }
    os << "},\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"failures\":[";
    for (size_t i = 0; i < r.failures.size(); ++i)
        os << (i ? "," : "") << jsonQuote(r.failures[i]);
    os << "],\"digest\":" << jsonQuote(r.digest.hex())
       << ",\"jobs\":" << o.jobs
       << ",\"compiler\":" << jsonQuote(CHPERF_COMPILER)
       << ",\"build_type\":" << jsonQuote(CHPERF_BUILD_TYPE)
       << ",\"trace_write_s\":" << num(r.traceWriteS) << ",\"layers\":{";
    first = true;
    for (const auto& [k, m] : r.layers) {
        os << (first ? "" : ",") << jsonQuote(k) << ":{\"value\":"
           << num(m.value) << ",\"unit\":" << jsonQuote(m.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

int
runPass(const Options& o)
{
    if (::mkdir(o.workDir.c_str(), 0777) != 0 && errno != EEXIST)
        usage("cannot create --work-dir " + o.workDir);
    if (::chdir(o.workDir.c_str()) != 0)
        usage("cannot enter --work-dir " + o.workDir);
    char cwd[4096];
    Options opt = o;
    if (::getcwd(cwd, sizeof(cwd)))
        opt.workDir = cwd;

    SpanRecorder spans(!opt.traceFile.empty());
    PassResult res;
    ProbeOptions probe;
    probe.emuCap = opt.probeEmuCap;
    probe.simCap = opt.probeSimCap;
    probe.sampling = samplingFor(opt.seed);
    probe.shards = opt.jobs;
    probe.workDir = opt.workDir;

    runGrid(opt, opt.workload == "fig13_sampled", spans, res);
    if (spans.enabled()) {
        ScopedSpan p(spans, "probe", "bench");
        for (const std::string& problem :
             runProbe(probe, spans, p.index(), res.layers))
            res.fail("probe: " + problem);
    }

    if (spans.enabled()) {
        const auto t0 = Clock::now();
        const std::string meta =
            "{\"workload\":" + jsonQuote(opt.workload) +
            ",\"seed\":" + std::to_string(opt.seed) +
            ",\"compiler\":" + jsonQuote(CHPERF_COMPILER) +
            ",\"build_type\":" + jsonQuote(CHPERF_BUILD_TYPE) + "}";
        if (!spans.writeChromeTrace(opt.traceFile, meta)) {
            std::fprintf(stderr, "chperf: cannot write %s\n",
                         opt.traceFile.c_str());
            return 1;
        }
        res.traceWriteS = secondsSince(t0);
    }
    std::printf("%s\n", passJson(opt, res).c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return runPass(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "chperf: %s\n", e.what());
        return 1;
    }
}
