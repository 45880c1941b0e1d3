#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace chperf {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanRecorder::begin(const std::string& name, const std::string& layer,
                    int parent, int64_t id)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = parent;
    s.id = id;
    s.startUs = nowUs();
    s.endUs = s.startUs;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::end(int index)
{
    if (index >= 0)
        spans_[static_cast<size_t>(index)].endUs = nowUs();
}

int
SpanRecorder::add(Span span)
{
    if (!enabled_)
        return -1;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

double
SpanRecorder::durationUs(int index) const
{
    if (index < 0)
        return 0;
    const Span& s = spans_[static_cast<size_t>(index)];
    return s.endUs - s.startUs;
}

double
SpanRecorder::selfUs(int index) const
{
    if (index < 0)
        return 0;
    const Span& self = spans_[static_cast<size_t>(index)];
    std::vector<std::pair<double, double>> kids;
    for (const Span& s : spans_) {
        if (s.parent != index)
            continue;
        const double a = std::max(s.startUs, self.startUs);
        const double b = std::min(s.endUs, self.endUs);
        if (b > a)
            kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    // Children may overlap (parallel job spans): subtract their union.
    double covered = 0;
    double curA = 0, curB = -1;
    for (const auto& [a, b] : kids) {
        if (a > curB) {
            if (curB > curA)
                covered += curB - curA;
            curA = a;
            curB = b;
        } else {
            curB = std::max(curB, b);
        }
    }
    if (curB > curA)
        covered += curB - curA;
    return (self.endUs - self.startUs) - covered;
}

std::string
jsonQuote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string& path,
                               const std::string& metadataJson) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadataJson
       << ",\"traceEvents\":[";
    char num[64];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":" << jsonQuote(s.name)
           << ",\"cat\":" << jsonQuote(s.layer) << ",\"ph\":\"X\"";
        std::snprintf(num, sizeof(num), ",\"ts\":%.3f,\"dur\":%.3f",
                      s.startUs, s.endUs - s.startUs);
        os << num << ",\"pid\":1,\"tid\":" << s.lane << ",\"args\":{"
           << "\"span\":" << i << ",\"parent\":" << s.parent;
        if (s.parent >= 0) {
            os << ",\"parent_name\":"
               << jsonQuote(spans_[static_cast<size_t>(s.parent)].name);
        }
        if (s.id >= 0)
            os << ",\"id\":" << s.id;
        std::snprintf(num, sizeof(num), ",\"self_us\":%.3f",
                      selfUs(static_cast<int>(i)));
        os << num << "}}";
    }
    os << "\n]}\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace chperf
