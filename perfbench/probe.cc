/**
 * @file
 * The probe pass of the traced run: after the workload, time each
 * layer's entry point on every (program, ISA) stream of the corpus.
 *
 *   frontc, backend, verify  compileToVCode, compileVModule (whose own
 *                            verifyProgram call is subtracted) and
 *                            verifyProgram, median of three
 *   emu                      Emulator::run with no sink and into a
 *                            counting TraceSink
 *   uarch                    CoreModel::warmInst (a warming sink minus
 *                            the counting sink), simulate() on the
 *                            detailed and fast rungs (minus the stream
 *                            time), simulateSampled() at K=1 and K=nproc
 *   service                  PersistentStore::save and load
 *
 * Every call gets a span, so the Chrome trace shows the probe too.
 */

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "emu/emulator.h"
#include "frontc/codegen.h"
#include "perfbench.h"
#include "service/store.h"
#include "uarch/core_model.h"
#include "uarch/sampling.h"
#include "uarch/sim.h"
#include "verify/verify.h"
#include "workloads/prog_cache.h"
#include "workloads/workloads.h"

using namespace ch;

namespace chperf {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 3;

class CountingSink : public TraceSink
{
  public:
    void onInst(const DynInst&) override { ++count; }

    uint64_t count = 0;
};

/** Functional warming only: the sampled path's per-skipped-inst call. */
class WarmingSink : public TraceSink
{
  public:
    WarmingSink(const MachineConfig& cfg, Isa isa)
        : model_(makeCoreModel(cfg, isa))
    {
    }

    void onInst(const DynInst& di) override { model_->warmInst(di); }

  private:
    std::unique_ptr<CoreModel> model_;
};

struct Stream {
    std::string name;   ///< "coremark/riscv"
    std::string workload;
    Isa isa;
    const Program* prog;
};

std::vector<Stream>
corpusStreams()
{
    std::vector<Stream> out;
    for (const Workload& w : workloads()) {
        for (Isa isa : kIsas) {
            out.push_back({w.name + "/" + isaKey(isa), w.name, isa,
                           &programCache().get(w.name, isa)});
        }
    }
    return out;
}

/** Median over kReps of one capped Emulator::run into @p makeSink(). */
template <typename MakeSink>
double
timeEmulation(const Stream& s, uint64_t cap, SpanRecorder& spans,
              int parent, const std::string& what, MakeSink makeSink,
              uint64_t* insts)
{
    std::vector<double> t;
    for (int rep = 0; rep < kReps; ++rep) {
        Emulator emu(*s.prog);
        auto sink = makeSink();
        ScopedSpan span(spans, "Emulator::run " + what + " " + s.name,
                        "emu", parent);
        const auto t0 = Clock::now();
        const RunResult r = emu.run(cap, sink.get());
        t.push_back(secondsSince(t0));
        *insts = r.instCount;
    }
    return median(t);
}

double
mips(double insts, double seconds)
{
    return seconds > 0 ? insts / seconds / 1e6 : 0;
}

void
probeCompile(SpanRecorder& spans, int parent, MetricMap& out)
{
    double frontS = 0, verifyS = 0;
    double backendS[3] = {0, 0, 0};
    for (const Workload& w : workloads()) {
        for (size_t i = 0; i < 3; ++i) {
            const std::string name = w.name + "/" + isaKey(kIsas[i]);
            std::vector<double> front, back, verify;
            for (int rep = 0; rep < kReps; ++rep) {
                VModule mod;
                {
                    ScopedSpan s(spans, "compileToVCode " + name, "frontc",
                                 parent);
                    const auto t0 = Clock::now();
                    mod = compileToVCode(w.source);
                    front.push_back(secondsSince(t0));
                }
                Program prog;
                {
                    ScopedSpan s(spans, "compileVModule " + name,
                                 "backend", parent);
                    const auto t0 = Clock::now();
                    prog = compileVModule(mod, kIsas[i]);
                    back.push_back(secondsSince(t0));
                }
                ScopedSpan s(spans, "verifyProgram " + name, "verify",
                             parent);
                const auto t0 = Clock::now();
                const VerifyResult vr = verifyProgram(prog);
                verify.push_back(secondsSince(t0));
                (void)vr;
            }
            frontS += median(front);
            verifyS += median(verify);
            // compileVModule verifies its output itself; that part
            // belongs to the verify layer.
            backendS[i] += median(back) - median(verify);
        }
    }
    out["frontc.compile_ms"] = {1e3 * frontS, "ms"};
    out["verify.ms"] = {1e3 * verifyS, "ms"};
    for (size_t i = 0; i < 3; ++i) {
        out[std::string("backend.") + isaKey(kIsas[i]) + ".compile_ms"] = {
            1e3 * backendS[i], "ms"};
    }
}

} // namespace

std::vector<std::string>
runProbe(const ProbeOptions& opt, SpanRecorder& spans, int parent,
         MetricMap& out)
{
    std::vector<std::string> problems;
    probeCompile(spans, parent, out);

    const std::vector<Stream> streams = corpusStreams();
    const MachineConfig detailed = MachineConfig::preset(8);
    MachineConfig fast = detailed;
    fast.coreModel = CoreModelKind::Fast;

    struct PerIsa {
        double insts = 0, bareS = 0, streamS = 0, warmS = 0;
        double simInsts = 0, detailedS = 0, fastS = 0;
    } acc[3];
    double k1S = 0, knS = 0, errSum = 0;
    size_t errN = 0;
    std::vector<double> saveUs, loadUs;
    service::PersistentStore store(opt.workDir + "/probe-store");

    for (const Stream& s : streams) {
        PerIsa& a = acc[static_cast<int>(s.isa)];
        uint64_t n = 0;
        a.bareS += timeEmulation(
            s, opt.emuCap, spans, parent, "no sink",
            [] { return std::unique_ptr<TraceSink>(); }, &n);
        a.insts += static_cast<double>(n);
        const double countS = timeEmulation(
            s, opt.emuCap, spans, parent, "counting sink",
            [] { return std::make_unique<CountingSink>(); }, &n);
        a.streamS += countS;
        a.warmS += timeEmulation(s, opt.emuCap, spans, parent,
                                 "warmInst sink",
                                 [&] {
                                     return std::make_unique<WarmingSink>(
                                         detailed, s.isa);
                                 },
                                 &n) -
                   countS;

        // The timing rungs, each minus the stream time of the same run.
        uint64_t simN = 0;
        const double simStreamS = timeEmulation(
            s, opt.simCap, spans, parent, "counting sink",
            [] { return std::make_unique<CountingSink>(); }, &simN);
        SimResult ref;
        {
            ScopedSpan span(spans, "simulate detailed " + s.name, "uarch",
                            parent);
            const auto t0 = Clock::now();
            ref = simulate(*s.prog, detailed, opt.simCap);
            a.detailedS += secondsSince(t0) - simStreamS;
        }
        {
            ScopedSpan span(spans, "simulate fast " + s.name, "uarch",
                            parent);
            const auto t0 = Clock::now();
            const SimResult r = simulate(*s.prog, fast, opt.simCap);
            a.fastS += secondsSince(t0) - simStreamS;
            (void)r;
        }
        a.simInsts += static_cast<double>(ref.insts);

        SamplingConfig scK = opt.sampling;
        scK.shards = opt.shards;
        SimResult k1;
        {
            ScopedSpan span(spans, "simulateSampled K=1 " + s.name,
                            "uarch", parent);
            const auto t0 = Clock::now();
            k1 = simulateSampled(*s.prog, detailed, opt.sampling,
                                 opt.simCap);
            k1S += secondsSince(t0);
        }
        {
            ScopedSpan span(spans,
                            "simulateSampled K=" +
                                std::to_string(opt.shards) + " " + s.name,
                            "uarch", parent);
            const auto t0 = Clock::now();
            const SimResult kn = simulateSampled(*s.prog, detailed, scK,
                                                 opt.simCap);
            knS += secondsSince(t0);
            (void)kn;
        }
        if (ref.ipc() > 0) {
            errSum += std::fabs(k1.ipc() - ref.ipc()) / ref.ipc();
            ++errN;
        }

        // The store: one record per Table 2 width of this stream.
        JobMetrics m;
        m.exited = ref.exited;
        m.exitCode = ref.exitCode;
        m.cycles = ref.cycles;
        m.insts = ref.insts;
        for (const auto& [k, v] : ref.stats.dump())
            m.counters[k] = v;
        for (int width : kWidths) {
            JobSpec spec;
            spec.id = s.name + "/" + std::to_string(width) + "f";
            spec.workload = s.workload;
            spec.isa = s.isa;
            spec.cfg = MachineConfig::preset(width);
            spec.maxInsts = opt.simCap;
            {
                ScopedSpan span(spans, "PersistentStore::save " + spec.id,
                                "service", parent);
                const auto t0 = Clock::now();
                store.save(spec, *s.prog, m);
                saveUs.push_back(1e6 * secondsSince(t0));
            }
            JobMetrics back;
            bool hit = false;
            {
                ScopedSpan span(spans, "PersistentStore::load " + spec.id,
                                "service", parent);
                const auto t0 = Clock::now();
                hit = store.load(spec, *s.prog, &back);
                loadUs.push_back(1e6 * secondsSince(t0));
            }
            if (!hit || back.cycles != m.cycles || back.insts != m.insts ||
                back.counters != m.counters)
                problems.push_back("store round trip differs for " +
                                   spec.id);
        }
    }

    for (size_t i = 0; i < 3; ++i) {
        const PerIsa& a = acc[i];
        const std::string k = isaKey(kIsas[i]);
        out["emu." + k + ".mips"] = {mips(a.insts, a.bareS), "MIPS"};
        out["emu." + k + ".stream_mips"] = {mips(a.insts, a.streamS),
                                            "MIPS"};
        out["uarch.warm." + k + ".mips"] = {mips(a.insts, a.warmS), "MIPS"};
        out["uarch.detailed." + k + ".mips"] = {
            mips(a.simInsts, a.detailedS), "MIPS"};
        out["uarch.fast." + k + ".mips"] = {mips(a.simInsts, a.fastS),
                                            "MIPS"};
    }
    out["uarch.sampled.k1_s"] = {k1S, "s"};
    out["uarch.sampled.kn_s"] = {knS, "s"};
    out["uarch.sampled.shard_speedup"] = {knS > 0 ? k1S / knS : 0, "ratio"};
    out["uarch.sampled.err_pct"] = {
        errN ? 100.0 * errSum / static_cast<double>(errN) : 0, "%"};
    out["service.store.save_us"] = {median(saveUs), "us"};
    out["service.store.load_us"] = {median(loadUs), "us"};
    return problems;
}

} // namespace chperf
