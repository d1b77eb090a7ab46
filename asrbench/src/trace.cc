#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace asrbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint32_t
SpanLog::begin(const char *name, std::uint32_t parent,
               std::uint64_t stream)
{
    if (!enabled_)
        return kNoSpan;
    const std::int64_t t = nowNs();
    spans.push_back(Span{name, t, t, parent, stream});
    return std::uint32_t(spans.size() - 1);
}

void
SpanLog::end(std::uint32_t id)
{
    if (id != kNoSpan)
        spans[id].end = nowNs();
}

std::uint32_t
SpanLog::record(const char *name, std::int64_t start_ns,
                std::int64_t end_ns, std::uint32_t parent,
                std::uint64_t stream)
{
    if (!enabled_)
        return kNoSpan;
    spans.push_back(Span{name, start_ns, end_ns, parent, stream});
    return std::uint32_t(spans.size() - 1);
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    // Children of each span, as intervals; their union is subtracted
    // (children of one stream may overlap in time).
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans)
        if (s.parent != kNoSpan)
            children[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t cursor = s.start;
        for (const auto &[b, e] : kids) {
            const std::int64_t lo = std::max(b, cursor);
            const std::int64_t hi = std::min(e, s.end);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        self[s.name] += double(s.end - s.start - covered) * 1e-9;
    }
    return self;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t origin = spans.empty() ? 0 : spans[0].start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%lld,"
                     "\"stream\":%llu}}\n",
                     i ? "," : "", s.name,
                     static_cast<unsigned long long>(s.stream),
                     double(s.start - origin) * 1e-3,
                     double(s.end - s.start) * 1e-3, i,
                     s.parent == kNoSpan ? -1LL : (long long)s.parent,
                     static_cast<unsigned long long>(s.stream));
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
}

} // namespace asrbench
