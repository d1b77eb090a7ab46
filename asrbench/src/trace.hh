/**
 * @file
 * In-memory span log of the benchmark's own calls into each layer.
 *
 * A span is one call (or one request/response exchange) the driver
 * made: name, start, end, the span that caused it and the stream it
 * belongs to.  Spans stay in memory while the workload runs and are
 * written out once at the end as Chrome trace-event JSON (open it in
 * chrome://tracing or Perfetto).  Self time -- a span's duration
 * minus the part of it its children cover -- is aggregated per span
 * name for the per-layer report.
 *
 * A disabled log records nothing: begin() returns kNoSpan and end()
 * ignores it, so untraced runs pay one branch per call site.
 * Single-threaded: only the driver thread records.
 */

#ifndef ASRBENCH_TRACE_HH
#define ASRBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace asrbench {

/** Monotonic nanoseconds since an arbitrary epoch. */
std::int64_t nowNs();

class SpanLog
{
  public:
    static constexpr std::uint32_t kNoSpan = 0xffffffffu;

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Open a span starting now; @return its id (kNoSpan if off). */
    std::uint32_t begin(const char *name,
                        std::uint32_t parent = kNoSpan,
                        std::uint64_t stream = 0);

    /** Close span @p id now (no-op for kNoSpan). */
    void end(std::uint32_t id);

    /** Record a finished span with explicit times. */
    std::uint32_t record(const char *name, std::int64_t start_ns,
                         std::int64_t end_ns,
                         std::uint32_t parent = kNoSpan,
                         std::uint64_t stream = 0);

    std::size_t size() const { return spans.size(); }

    /** Total self time per span name, in seconds. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as Chrome trace-event JSON; false on error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::uint32_t parent;
        std::uint64_t stream;
    };

    bool enabled_;
    std::vector<Span> spans;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name,
               std::uint32_t parent = SpanLog::kNoSpan,
               std::uint64_t stream = 0)
        : log(log), id(log.begin(name, parent, stream))
    {
    }
    ~ScopedSpan() { log.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log;
    std::uint32_t id;
};

} // namespace asrbench

#endif // ASRBENCH_TRACE_HH
