/**
 * @file
 * What the three workloads share: the model shapes, set-up, the
 * seeded corpus, the reference decode every timed result must match,
 * the replays that time each layer from outside, and the metric
 * report.
 */

#ifndef ASRBENCH_WORKLOAD_HH
#define ASRBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hh"
#include "frontend/audio.hh"
#include "net/server.hh"
#include "pipeline/model.hh"
#include "server/engine_stats.hh"
#include "trace.hh"
#include "wfst/generate.hh"
#include "wfst/wfst.hh"

namespace asrbench {

using namespace asr;

/** The fixed program configuration a workload serves. */
struct ModelSpec
{
    wfst::GeneratorConfig graph;
    pipeline::AsrSystemConfig model;
    api::EngineOptions engine;
    bool withServer = false;      //!< loopback net::Server in front
    unsigned corpusSize = 0;      //!< distinct utterances, cycled
    unsigned searchReplayUtts = 0;//!< utterances the search replay runs
};

/** @return the spec of a named workload; false when unknown. */
bool specFor(const std::string &name, ModelSpec &spec);

/** A built model and engine: what set-up produces. */
struct Built
{
    // Declaration order is teardown order reversed: the server goes
    // first, the graph last.
    std::unique_ptr<wfst::Wfst> net;
    std::unique_ptr<pipeline::AsrModel> model;
    std::unique_ptr<api::Engine> engine;
    std::unique_ptr<net::Server> server;

    double generateS = 0.0;  //!< wfst::generateWfst
    double trainS = 0.0;     //!< pipeline::AsrModel constructor
    double startS = 0.0;     //!< Engine (+ Server) constructors
    double totalS = 0.0;     //!< all of the above
};

/** Build graph, model, engine and (optionally) server, timed. */
Built build(const ModelSpec &spec, SpanLog &log,
            std::uint32_t parent = SpanLog::kNoSpan);

/** Seeded utterances sampled from the graph and synthesized. */
struct Corpus
{
    std::vector<frontend::AudioSignal> audio;
};

Corpus makeCorpus(const pipeline::AsrModel &model, std::uint64_t seed,
                  unsigned count);

/** One-thread batch-mode decode of every corpus utterance. */
struct Reference
{
    std::vector<pipeline::RecognitionResult> results;

    /** True when @p words / @p score match utterance @p u exactly. */
    bool matches(std::size_t u, const std::vector<wfst::WordId> &words,
                 float score) const;
};

Reference decodeReference(const pipeline::AsrModel &model,
                          const api::EngineOptions &opts,
                          const Corpus &corpus);

/** Operations attempted and failed, across every timed window. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched = 0;  //!< subset of failed
};

/** Process CPU seconds (user + sys). */
double processCpuSeconds();
/** Peak resident set size of the process, MB. */
double peakRssMb();

/**
 * One timed window of a workload.  cpuS is the process CPU (user +
 * sys) the window used; audioS is the audio it decoded.
 */
struct Window
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double audioS = 0.0;
    server::EngineSnapshot before;  //!< engine stats at window start
    server::EngineSnapshot after;   //!< ... and at window end

    std::vector<double> finalMs;         //!< audio complete -> result
    std::vector<double> firstPartialMs;  //!< open -> first PARTIAL
    std::vector<double> pushUs;          //!< PUSH send calls
    std::vector<double> partialRttUs;    //!< PARTIAL request -> reply
    std::vector<double> lateMs;          //!< generator lateness
    std::uint64_t retryAfter = 0;        //!< server RETRY_AFTER count
};

/**
 * Closed loop (offline_dnn, offline_search): keep kOutstanding
 * submit()s in flight, unpaced, for @p seconds after a warm-up.
 */
Window runOffline(Built &b, const Corpus &corpus, const Reference &ref,
                  double seconds, std::uint64_t seed, SpanLog &log,
                  Tally &tally);

/**
 * Open loop (stream_wire): seeded Poisson arrivals, each stream
 * realtime-paced over the wire by one non-blocking driver thread.
 */
Window runStreamWire(Built &b, const Corpus &corpus,
                     const Reference &ref, double seconds,
                     std::uint64_t seed, SpanLog &log, Tally &tally);

/** Layer costs measured by replaying the corpus outside the engine. */
struct LayerReplay
{
    double mfccUsPerFrame = 0.0;
    double acousticUsPerFrame = 0.0;
    double gmacPerS = 0.0;
    double weightBytesPerFrame = 0.0;  //!< computed, not counted
    double ioBytesPerFrame = 0.0;      //!< computed, not counted
    double searchUsPerFrame = 0.0;
    double graphBytesPerFrame = 0.0;   //!< counted by the decoder
    double tokensPerFrame = 0.0;
    bool searchMatched = true;         //!< replay == reference
};

/**
 * Time frontend::Mfcc, acoustic::Backend::scoreBatch (at
 * @p batch_rows rows a call) and the search backend over the corpus.
 */
LayerReplay replayLayers(const pipeline::AsrModel &model,
                         const ModelSpec &spec, const Corpus &corpus,
                         const Reference &ref, double batch_rows,
                         SpanLog &log, std::uint32_t parent);

/** Quantile @p q in [0,1] of @p v (linear interpolation; 0 if empty). */
double quantile(std::vector<double> v, double q);

/** Median of @p v. */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Metric values in the order they were set, printed as JSON. */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /** False when a value is NaN or infinite (printed as 0). */
    bool allFinite() const;

    /** The benchmark's result line. */
    std::string json(bool correct, const Tally &tally) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

} // namespace asrbench

#endif // ASRBENCH_WORKLOAD_HH
