/**
 * @file
 * Open-loop load generation and SLO-tracked capacity search.
 *
 * The defining property is OPEN-LOOP arrivals: streams arrive on a
 * schedule drawn from a seeded stochastic process (Poisson, or
 * diurnally modulated Poisson) and KEEP arriving whether or not the
 * system under test has kept up.  A closed-loop harness -- N client
 * threads issuing the next request when the previous one returns --
 * self-throttles under saturation: its slow responses reduce the
 * offered load exactly when the system is struggling, which hides
 * the latency tail that real independent clients (who do not
 * coordinate) would experience.  Open-loop arrivals expose it; that
 * is why the p99.9 columns exist.  (See docs/ARCHITECTURE.md "Fleet
 * layer" for the longer version.)
 *
 * Two transports, one measurement:
 *  - run() drives an api::StreamEndpoint in-process (an Engine, or a
 *    fleet::ShardRouter -- the capacity bench's mode);
 *  - runNet() drives a loopback/remote asr_server over TCP, one
 *    net::Client connection per stream (the asr_loadgen CLI's mode).
 *
 * Per-request measurements: time-to-first-partial and finish-to-final
 * latency into sim::Histograms (p50/p99/p99.9 via quantile()), plus
 * admission outcomes -- server sheds (RETRY_AFTER), client
 * sheds (the generator's own maxConcurrent cap), deadline expiries,
 * degraded results.
 *
 * findCapacity() turns a "run at rate r" callback into a capacity
 * figure: double the offered rate until the SLO breaks (or a ceiling
 * is hit), then bisect, reporting the highest sustained rate and its
 * Little's-law concurrent-stream equivalent.
 *
 * Everything is seeded and deterministic on the generator side; the
 * measured latencies are of course wall-clock.
 */

#ifndef ASR_FLEET_LOADGEN_HH
#define ASR_FLEET_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "api/stream_endpoint.hh"
#include "common/rng.hh"
#include "frontend/audio.hh"
#include "sim/stats.hh"

namespace asr::fleet {

/** The arrival process: when the next stream shows up. */
struct ArrivalConfig
{
    enum class Kind
    {
        Poisson, //!< memoryless, constant rate
        /** Poisson thinned by a sinusoidal rate profile
         *  rate(t) = ratePerSec * (1 + depth * sin(2*pi*t/period)):
         *  the daily peak/trough cycle a serving fleet is actually
         *  provisioned for, compressed to a bench-sized period. */
        Diurnal,
    };

    Kind kind = Kind::Poisson;

    /** Mean arrival rate (streams/second); the diurnal profile
     *  oscillates around this mean. */
    double ratePerSec = 10.0;

    double diurnalPeriodSec = 30.0;
    double diurnalDepth = 0.5;  //!< peak swing, clamped to [0, 1]

    std::uint64_t seed = 1;
};

/**
 * Deterministic arrival-time generator: next() returns strictly
 * increasing absolute times (seconds from the run's start).  Poisson
 * inter-arrivals are -ln(1-U)/rate; the diurnal profile uses
 * thinning (generate at the peak rate, accept with probability
 * rate(t)/peak), which preserves exactness without inverting the
 * integrated rate.
 */
class ArrivalProcess
{
  public:
    explicit ArrivalProcess(const ArrivalConfig &config);

    /** Next absolute arrival time, in seconds. */
    double next();

  private:
    ArrivalConfig cfg;
    Rng rng;
    double t = 0.0;
};

/** One load run's shape. */
struct LoadConfig
{
    ArrivalConfig arrivals;

    /** Arrival window: streams arriving past this stop the run (the
     *  already-admitted tail still completes and is measured). */
    double durationSec = 2.0;

    /**
     * The generator's own concurrency cap: an arrival finding this
     * many streams still in flight is dropped and counted as a
     * client-side shed, so a saturated target degrades the metrics
     * instead of accumulating unbounded generator threads.
     */
    std::size_t maxConcurrent = 64;

    std::size_t chunkSamples = 640;  //!< 40 ms at 16 kHz
    double sampleRate = 16000.0;

    /**
     * Realtime pacing: ship each chunk on its capture schedule, with
     * per-chunk slow-client jitter (gap scaled by 1 + U*paceJitter --
     * clients on bad networks drift late, never early).  False blasts
     * audio as fast as the target accepts it AND dispatches arrivals
     * without waiting for their nominal times -- the fast mode for
     * functional tests, useless for latency measurement.
     */
    bool pace = true;
    double paceJitter = 0.25;

    /** Per-stream deadline carried in the open (0 = none). */
    std::uint32_t deadlineMs = 0;

    /** Seeds per-stream utterance choice and pacing jitter. */
    std::uint64_t seed = 1;
};

/** What one run measured. */
struct LoadMetrics
{
    std::uint64_t offered = 0;    //!< arrivals the process generated
    std::uint64_t admitted = 0;   //!< streams actually opened
    std::uint64_t shedServer = 0; //!< RETRY_AFTER refusals
    std::uint64_t shedClient = 0; //!< maxConcurrent drops
    std::uint64_t completed = 0;  //!< final results delivered
    std::uint64_t degraded = 0;   //!< results flagged degraded
    std::uint64_t deadlineExpired = 0;
    std::uint64_t errors = 0;     //!< transport/engine failures

    /** Open-to-first-nonempty-partial, per admitted stream that
     *  produced one. */
    sim::Histogram firstPartialMs{1.0, 4096};
    /** finish()-to-final-result: the tail-decode latency a client
     *  blocks on after its last chunk. */
    sim::Histogram finalMs{1.0, 4096};

    double elapsedSec = 0.0;
    double audioSecondsPushed = 0.0;

    /** Refused arrivals (either side) per offered arrival. */
    double
    shedRate() const
    {
        return offered > 0
                   ? double(shedServer + shedClient) / double(offered)
                   : 0.0;
    }

    double
    offeredRatePerSec() const
    {
        return elapsedSec > 0.0 ? double(offered) / elapsedSec : 0.0;
    }
};

/** The generator.  Stateless between runs; safe to reuse. */
class LoadGen
{
  public:
    explicit LoadGen(const LoadConfig &config) : cfg(config) {}

    /** Drive @p endpoint in-process with utterances drawn from
     *  @p corpus (round-robin-ish, seeded per stream). */
    LoadMetrics run(api::StreamEndpoint &endpoint,
                    std::span<const frontend::AudioSignal> corpus);

    /** Drive a running asr_server over TCP: one connection + one
     *  stream per arrival. */
    LoadMetrics runNet(const std::string &host, std::uint16_t port,
                       std::span<const frontend::AudioSignal> corpus);

    const LoadConfig &config() const { return cfg; }

  private:
    /** How one admitted stream ended. */
    struct Outcome
    {
        enum class Kind
        {
            Completed,
            ShedServer,
            DeadlineExpired,
            Error,
        };
        Kind kind = Kind::Error;
        bool degraded = false;
        double firstPartialMs = -1.0;  //!< < 0: never saw one
        double finalMs = 0.0;
        double audioSeconds = 0.0;
    };

    using Driver = std::function<Outcome(
        unsigned stream_index, const frontend::AudioSignal &audio,
        Rng &rng)>;

    /** The shared open-loop skeleton run()/runNet() plug into. */
    LoadMetrics runWith(const Driver &driver,
                        std::span<const frontend::AudioSignal> corpus);

    LoadConfig cfg;
};

/** The serving-quality bar a probe must clear to count as sustained. */
struct SloConfig
{
    double firstPartialP99Ms = 500.0;
    double finalP999Ms = 2000.0;
    double maxShedRate = 0.01;  //!< refused arrivals per offered
};

/** SLO verdict over one run's metrics (false when nothing ran). */
bool meetsSlo(const LoadMetrics &metrics, const SloConfig &slo);

/** One capacity-search probe, kept for reporting. */
struct CapacityProbe
{
    double ratePerSec = 0.0;
    bool met = false;
    LoadMetrics metrics;
};

struct CapacityResult
{
    /** Highest offered rate that met the SLO (0: even start failed). */
    double sustainedRatePerSec = 0.0;

    /**
     * Little's law: sustained concurrent streams = sustained arrival
     * rate x mean utterance duration.  The apples-to-apples capacity
     * number across shard counts.
     */
    double sustainedStreams = 0.0;

    /** SLO still met at @p max_rate: capacity is at least this --
     *  the search was ceiling-bound, not system-bound. */
    bool ceilingReached = false;

    std::vector<CapacityProbe> probes;  //!< in search order
};

/**
 * Binary-search the sustained load: double the rate from
 * @p start_rate until the SLO breaks or @p max_rate holds
 * (ceilingReached), then bisect @p refine_steps times.
 * @param run_at_rate runs one probe at the given offered rate and
 *        returns its metrics (the caller binds LoadGen + target)
 * @param mean_utterance_sec converts rate to concurrent streams
 */
CapacityResult
findCapacity(const std::function<LoadMetrics(double)> &run_at_rate,
             const SloConfig &slo, double start_rate, double max_rate,
             unsigned refine_steps, double mean_utterance_sec);

} // namespace asr::fleet

#endif // ASR_FLEET_LOADGEN_HH
