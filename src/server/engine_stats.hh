/**
 * @file
 * Aggregate statistics of a decode engine serving many utterances:
 * throughput (utterances/sec), real-time-factor distribution, and
 * session latency percentiles.  Built on sim::Histogram/StatSet so
 * the server layer reports through the same machinery as the
 * cycle-level simulator.
 *
 * Thread-safe: recordUtterance may be called concurrently from any
 * number of worker threads; snapshot() returns a consistent copy.
 */

#ifndef ASR_SERVER_ENGINE_STATS_HH
#define ASR_SERVER_ENGINE_STATS_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "sim/stats.hh"

namespace asr::server {

/** Consistent point-in-time copy of the engine counters. */
struct EngineSnapshot
{
    std::uint64_t utterances = 0;
    double audioSeconds = 0.0;    //!< total speech decoded
    double decodeSeconds = 0.0;   //!< summed per-utterance decode time
    double wallSeconds = 0.0;     //!< engine wall-clock (set by caller)

    double rtfMean = 0.0;         //!< decode seconds per speech second
    double rtfP50 = 0.0;
    double rtfP99 = 0.0;
    double rtfP999 = 0.0;

    // The p99.9 tail exists because open-loop load measurement is
    // about exactly that tail: a closed-loop bench's slow requests
    // self-throttle the offered load and hide it, an open-loop
    // harness keeps arriving on schedule and exposes it.
    double latencyP50Ms = 0.0;    //!< submit-to-result latency
    double latencyP99Ms = 0.0;
    double latencyP999Ms = 0.0;
    double latencyMaxMs = 0.0;

    // Live-stream serving metric: wall-clock from a stream being
    // opened to its first non-empty partial hypothesis (what an
    // interactive client perceives as responsiveness).  Only streams
    // that produced a partial are counted; all zero for engines that
    // served no live streams.
    std::uint64_t firstPartials = 0;   //!< streams that showed one
    double firstPartialP50Ms = 0.0;
    double firstPartialP99Ms = 0.0;
    double firstPartialP999Ms = 0.0;
    double firstPartialMaxMs = 0.0;

    // Decode-time split: where the serving CPU actually goes
    // (search vs DNN), plus the search arena's memory telemetry.
    double searchSeconds = 0.0;   //!< wall-clock in Viterbi search
    double dnnSeconds = 0.0;      //!< wall-clock in acoustic scoring
    std::uint64_t arenaPeakEntries = 0;  //!< worst session high-water
    std::uint64_t arenaGcRuns = 0;       //!< arena collections
    std::uint64_t bpAppendsSkipped = 0;  //!< doomed appends avoided

    // Graph memory traffic of the search (DecodeStats::
    // graphBytesTouched summed over utterances): the DRAM stream the
    // paper's accelerator caches, and the quantity the compact arc
    // layout shrinks.
    std::uint64_t framesDecoded = 0;
    std::uint64_t graphBytesTouched = 0;

    /** Mean graph bytes the search touched per decoded frame. */
    double
    graphBytesPerFrame() const
    {
        return framesDecoded > 0
                   ? double(graphBytesTouched) / double(framesDecoded)
                   : 0.0;
    }

    /** Fraction of (search + DNN) time spent in search. */
    double
    searchShare() const
    {
        const double total = searchSeconds + dnnSeconds;
        return total > 0.0 ? searchSeconds / total : 0.0;
    }

    // Always-on serving (auto-endpointed streams only; all zero
    // otherwise).  Segments also count as utterances above -- these
    // track how many utterances came out of stream segmentation and
    // how many wake gates fired.
    std::uint64_t segments = 0;   //!< auto-endpointed segments emitted
    std::uint64_t gateOpens = 0;  //!< wake-word gates that opened

    // Failure-handling telemetry: streams the overload layer opened
    // with degraded search knobs, and streams whose deadline expired
    // before their result was delivered.
    std::uint64_t degradedStreams = 0;
    std::uint64_t deadlinesExpired = 0;

    // Cross-session batched DNN scoring: one forward pass per tick
    // that had pending frames.
    std::uint64_t dnnBatches = 0;      //!< batched forward passes
    std::uint64_t dnnBatchedFrames = 0;//!< frames scored in them
    double dnnBatchSeconds = 0.0;      //!< wall-clock inside the GEMMs
    double dnnMaxBatchRows = 0.0;      //!< largest single batch

    /** Mean frames coalesced per batched forward pass. */
    double
    dnnMeanBatchRows() const
    {
        return dnnBatches > 0
                   ? double(dnnBatchedFrames) / double(dnnBatches)
                   : 0.0;
    }

    /** Throughput over the engine wall-clock. */
    double
    utterancesPerSecond() const
    {
        return wallSeconds > 0.0 ? double(utterances) / wallSeconds
                                 : 0.0;
    }

    /** Aggregate RTF: total decode time per total speech time. */
    double
    aggregateRtf() const
    {
        return audioSeconds > 0.0 ? decodeSeconds / audioSeconds : 0.0;
    }

    /** Render as a sim::StatSet ("name = value" lines, micro units). */
    sim::StatSet toStatSet() const;

    /** Human-readable multi-line summary. */
    std::string render() const;
};

/** One finished utterance's contribution to the engine aggregates. */
struct UtteranceSample
{
    double audioSeconds = 0.0;    //!< speech duration
    double decodeSeconds = 0.0;   //!< wall-clock the session spent
    double latencySeconds = 0.0;  //!< submit-to-result (queue + decode)
    double searchSeconds = 0.0;   //!< Viterbi share of decodeSeconds
    double dnnSeconds = 0.0;      //!< acoustic share of decodeSeconds
    std::uint64_t arenaPeakEntries = 0;  //!< session arena high-water
    std::uint64_t arenaGcRuns = 0;
    std::uint64_t bpAppendsSkipped = 0;
    std::uint64_t framesDecoded = 0;     //!< frames the search decoded
    std::uint64_t graphBytesTouched = 0; //!< graph bytes it read for them
};

/** Thread-safe accumulator behind EngineSnapshot. */
class EngineStats
{
  public:
    EngineStats();

    /** Fold one finished utterance into the aggregates. */
    void recordUtterance(const UtteranceSample &sample);

    /**
     * Convenience overload for callers without the decode-time
     * split.
     * @param audio_seconds   speech duration of the utterance
     * @param decode_seconds  wall-clock the session spent on it
     * @param latency_seconds submit-to-result latency (queue + decode)
     */
    void
    recordUtterance(double audio_seconds, double decode_seconds,
                    double latency_seconds)
    {
        recordUtterance(UtteranceSample{audio_seconds, decode_seconds,
                                        latency_seconds, 0.0, 0.0, 0,
                                        0, 0});
    }

    /**
     * Fold one cross-session batched forward pass into the
     * aggregates.
     * @param rows    frames coalesced into the pass
     * @param seconds wall-clock of the forward pass
     */
    void recordDnnBatch(std::size_t rows, double seconds);

    /**
     * Record a live stream's time-to-first-partial: wall-clock from
     * open() to the first non-empty partial hypothesis.
     */
    void recordFirstPartial(double seconds);

    /** Record one auto-endpointed segment result emitted. */
    void recordSegment();

    /** Record one wake-word gate opening. */
    void recordGateOpen();

    /** Record one stream opened with degraded search knobs. */
    void recordDegradedStream();

    /** Record one stream cancelled/foreclosed by its deadline. */
    void recordDeadlineExpired();

    /** The histogram-backed metrics quantile() can be asked about. */
    enum class Metric
    {
        Rtf,            //!< real-time factor per utterance
        LatencyMs,      //!< submit-to-result latency, milliseconds
        FirstPartialMs, //!< open-to-first-partial, milliseconds
    };

    /**
     * Generic quantile accessor over the named metric's histogram:
     * the value below which @p fraction of the samples fall
     * (sim::Histogram bucket-boundary estimate).  The snapshot's
     * fixed p50/p99/p99.9 fields come from exactly this; callers
     * needing another cut (a bench sweeping SLO percentiles, say)
     * ask here instead of growing the snapshot.
     */
    double quantile(Metric metric, double fraction) const;

    /** @param wall_seconds engine wall-clock for throughput */
    EngineSnapshot snapshot(double wall_seconds = 0.0) const;

    /** Reset all aggregates. */
    void clear();

  private:
    mutable std::mutex mu;
    std::uint64_t utterances = 0;
    double audioSeconds = 0.0;
    double decodeSeconds = 0.0;
    double searchSeconds = 0.0;
    double dnnSeconds = 0.0;
    std::uint64_t arenaPeakEntries = 0;
    std::uint64_t arenaGcRuns = 0;
    std::uint64_t bpAppendsSkipped = 0;
    std::uint64_t framesDecoded = 0;
    std::uint64_t graphBytesTouched = 0;
    std::uint64_t dnnBatches = 0;
    std::uint64_t dnnBatchedFrames = 0;
    double dnnBatchSeconds = 0.0;
    double dnnMaxBatchRows = 0.0;
    std::uint64_t segments = 0;
    std::uint64_t gateOpens = 0;
    std::uint64_t degradedStreams = 0;
    std::uint64_t deadlinesExpired = 0;
    sim::Histogram rtf;        //!< RTF samples
    sim::Histogram latencyMs;  //!< latency samples in milliseconds
    sim::Histogram firstPartialMs;  //!< time-to-first-partial, ms
};

} // namespace asr::server

#endif // ASR_SERVER_ENGINE_STATS_HH
