#ifndef CH_PERFBENCH_PERFBENCH_H
#define CH_PERFBENCH_PERFBENCH_H

/**
 * @file
 * Declarations shared by the benchmark driver (driver.cc) and its probe
 * pass (probe.cc). Only the entry points the benchmark is allowed to
 * drive are used; README.md lists them and selftest.py enforces it.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.h"
#include "spans.h"
#include "uarch/config.h"

namespace chperf {

/** One reported number with its unit. */
struct Metric {
    double value = 0;
    std::string unit;
};

/** Per-layer metrics by name. */
using MetricMap = std::map<std::string, Metric>;

/** The three ISAs in the order every table uses. */
inline constexpr ch::Isa kIsas[3] = {ch::Isa::Riscv, ch::Isa::Straight,
                                     ch::Isa::Clockhands};

/** The fetch widths of Table 2's machines (MachineConfig::preset). */
inline constexpr int kWidths[5] = {4, 6, 8, 12, 16};

/** Metric-name spelling of an ISA: riscv, straight, clockhands. */
const char* isaKey(ch::Isa isa);

double secondsSince(std::chrono::steady_clock::time_point t0);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** What the probe pass needs from the driver. */
struct ProbeOptions {
    uint64_t emuCap = 0;          ///< instructions per emulator probe
    uint64_t simCap = 0;          ///< instructions per timing probe
    ch::SamplingConfig sampling;  ///< the sampled workload's config, K=1
    int shards = 1;               ///< K of the sharded probe (nproc)
    std::string workDir;          ///< scratch directory for the store
};

/**
 * Time each layer's entry point on every (program, ISA) stream and add
 * the per-layer metrics to @p out. Returns the problems found on the
 * way (a store round trip that does not match), one message each.
 */
std::vector<std::string> runProbe(const ProbeOptions& opt,
                                  SpanRecorder& spans, int parent,
                                  MetricMap& out);

} // namespace chperf

#endif // CH_PERFBENCH_PERFBENCH_H
