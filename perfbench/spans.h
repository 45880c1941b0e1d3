#ifndef CH_PERFBENCH_SPANS_H
#define CH_PERFBENCH_SPANS_H

/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The benchmark records a span around each call it makes into a layer
 * of the program (a compile call, SweepRunner::run(), a farm request, a
 * probe call). Spans stay in memory and are written once, at the end of
 * the pass, as Chrome trace-event JSON, which Perfetto
 * (ui.perfetto.dev) and chrome://tracing open. A disabled recorder
 * records nothing, so the untraced pass pays one branch per call site.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace chperf {

/** One closed span. Times are microseconds since the recorder's epoch. */
struct Span {
    std::string name;
    std::string layer;   ///< module the call went into ("bench" = ours)
    double startUs = 0;
    double endUs = 0;
    int parent = -1;     ///< index of the enclosing span; -1 = root
    int64_t id = -1;     ///< job or request id; -1 when none
    int lane = 0;        ///< viewer row ("tid"); job spans use one per thread
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Microseconds since construction. */
    double nowUs() const;

    /** Open a span; returns its index, or -1 when disabled. */
    int begin(const std::string& name, const std::string& layer,
              int parent = -1, int64_t id = -1);

    /** Close span @p index (no-op for -1). */
    void end(int index);

    /** Record an already-measured span; returns its index (-1 if off). */
    int add(Span span);

    const std::vector<Span>& spans() const { return spans_; }

    /** Duration of span @p index in microseconds (0 for -1). */
    double durationUs(int index) const;

    /**
     * Self time of span @p index: its duration minus the part of it
     * that the union of its direct children covers.
     */
    double selfUs(int index) const;

    /**
     * Write every span as Chrome trace-event JSON, with @p metadataJson
     * (a JSON object) as its "otherData"; false on I/O error.
     */
    bool writeChromeTrace(const std::string& path,
                          const std::string& metadataJson) const;

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Scope guard around begin()/end(). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder& rec, const std::string& name,
               const std::string& layer, int parent = -1, int64_t id = -1)
        : rec_(rec), index_(rec.begin(name, layer, parent, id))
    {
    }

    ~ScopedSpan() { rec_.end(index_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder& rec_;
    int index_;
};

/** JSON string literal for @p s, quotes included. */
std::string jsonQuote(const std::string& s);

} // namespace chperf

#endif // CH_PERFBENCH_SPANS_H
