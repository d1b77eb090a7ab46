/**
 * @file
 * One streaming decode session: audio in frame-sized chunks, partial
 * hypotheses out, a final RecognitionResult at the end.
 *
 * A session pipelines the front-end and the search incrementally,
 * with the DNN in between scored by an external batch scorer
 * (server::BatchScorer) that coalesces frames across sessions into
 * one GEMM -- the paper's split of a throughput device scoring
 * batches while the search consumes them:
 *
 *   pushAudio ──► StreamingMfcc (25 ms windows / 10 ms hop)
 *              ──► context splice into the pending-row buffer
 *   (driver)   ──► exportPending / batched forward
 *              ──► consumePendingScores: frame-synchronous search
 *
 * A frame is spliced as soon as its right DNN context exists, so the
 * decoder lags the audio by contextFrames x 10 ms; flushPending()
 * splices the tail with the same edge replication spliceContext
 * uses.  Because every backend scores rows independently, the final
 * result is bit-identical to the offline path (whole-utterance MFCC,
 * DnnScorer::score, the search backend's decode()).
 *
 * Sessions share one immutable pipeline::AsrModel (never mutated;
 * see model.hh for the thread-safety contract) and privately own all
 * mutable state: the streaming front-end, the search backend
 * instance (selected by name from the search::Backend registry), and
 * a deterministic per-session RNG derived from (base seed, session
 * id) so concurrent runs reproduce bit-exactly regardless of thread
 * scheduling.
 */

#ifndef ASR_SERVER_SESSION_HH
#define ASR_SERVER_SESSION_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "acoustic/backend.hh"
#include "acoustic/matrix.hh"
#include "common/rng.hh"
// Not used by the session itself since the search::Backend registry
// took over backend selection, but part of this header's established
// include surface (callers compare sessions against bare decoders).
#include "decoder/viterbi.hh"
#include "frontend/mfcc.hh"
#include "pipeline/model.hh"
#include "pipeline/recognition.hh"
#include "search/backend.hh"

namespace asr::server {

/**
 * The per-session search/reproducibility knobs every engine surface
 * shares.  SessionConfig and api::EngineOptions both embed this one
 * struct (by inheritance, so the field names stay flat) and hand it
 * down by slice assignment -- a new knob added here flows through
 * every layer with no copy-through to forget.
 */
struct SessionKnobs
{
    /**
     * Search backend registry name ("viterbi", "baseline", "accel",
     * or anything registered via search::registerBackend).  Empty
     * selects the legacy useAccelerator switch below.
     */
    std::string searchBackend;

    /** Legacy backend switch, honoured when searchBackend is empty. */
    bool useAccelerator = false;

    /** Accel cycle simulation per frame (cannot change results). */
    bool runTiming = false;

    /**
     * Uniform dither amplitude added to incoming samples from the
     * session RNG (0 disables).  Real front-ends dither to avoid
     * log(0) on digital silence; here it also exercises the
     * deterministic per-session seeding: results depend on the RNG
     * stream, so scheduling-independent reproducibility is testable.
     */
    float ditherAmplitude = 0.0f;

    /** Beam override; <= 0 uses the model's configured beam. */
    float beam = 0.0f;

    /** Histogram-pruning cap (0 = off), as DecoderConfig::maxActive. */
    std::uint32_t maxActive = 0;

    /**
     * Backpointer-arena GC watermark for the software search, as
     * DecoderConfig::arenaGcWatermark (entries; 0 = off).  Long
     * streaming sessions should set this: the arena otherwise grows
     * for the life of the utterance (exact backtracking keeps the
     * full trace).  Collection never changes results.
     */
    std::uint64_t arenaGcWatermark = 0;

    /** The registry name the knobs resolve to. */
    std::string_view
    effectiveSearchBackend() const
    {
        if (!searchBackend.empty())
            return searchBackend;
        return useAccelerator ? "accel" : "viterbi";
    }
};

/** Per-session configuration: the shared knobs plus identity. */
struct SessionConfig : SessionKnobs
{
    std::uint64_t id = 0;          //!< session id (stats, seeding)
    std::uint64_t baseSeed = 1;    //!< engine-wide base seed
};

/**
 * A single streaming utterance decode over a shared model.  The
 * driver loop is
 *   pushAudio ... / flushPending -> exportPending -> (batched
 *   forward) -> consumePendingScores -> finalizeFinish,
 * scoring whatever rows are pending as often as it likes.
 */
class StreamingSession
{
  public:
    StreamingSession(const pipeline::AsrModel &model,
                     const SessionConfig &cfg);
    ~StreamingSession();

    /** Feed the next chunk of audio samples (any size, even empty). */
    void pushAudio(std::span<const float> samples);

    /**
     * Best word sequence so far (no epsilon closure) -- the partial
     * hypothesis a live client would display while speaking.
     */
    std::vector<wfst::WordId> partialWords() const;

    // -- Scoring protocol --------------------------------------------

    /** Spliced frames waiting for the external batch scorer. */
    std::size_t pendingRows() const { return pendingRows_; }

    /** Width of one spliced row ((2*context+1) * feature dim). */
    std::size_t splicedDim() const;

    /**
     * Copy the pending spliced rows into rows [base, base+pendingRows)
     * of @p batch (the cross-session input matrix).
     */
    void exportPending(acoustic::Matrix &batch, std::size_t base) const;

    /**
     * Accept log-softmax scores for the previously exported rows
     * (rows [base, base+pendingRows) of @p logp) and feed them to the
     * frame-synchronous search in order.  @p acoustic_seconds is this
     * session's share of the batched forward's wall-clock.
     */
    void consumePendingScores(const acoustic::Matrix &logp,
                              std::size_t base,
                              double acoustic_seconds);

    /**
     * Finish, step 1: no more audio; flush-splice the tail frames
     * (edge replication) into the pending buffer.
     */
    void flushPending();

    /**
     * Finish, step 2 (requires pendingRows() == 0): epsilon-close,
     * backtrack, return the final result.
     */
    pipeline::RecognitionResult finalizeFinish();

    /** Frames fed to the search so far. */
    std::uint64_t framesDecoded() const { return framesFed; }

    /** Samples accepted so far. */
    std::uint64_t samplesPushed() const { return streamingMfcc.samplesPushed(); }

    const SessionConfig &config() const { return cfg; }

    /** The session's private deterministic RNG. */
    Rng &rng() { return rng_; }

  private:
    /** Park every frame whose context allows it as a pending row. */
    void drainReadyFrames(bool flush);

    /** Append raw feature frame @p f, spliced with edge-clamped
     *  context, to the pending rows. */
    void parkFrame(std::size_t f, std::size_t total_hint);

    const pipeline::AsrModel &model;
    SessionConfig cfg;
    Rng rng_;

    frontend::StreamingMfcc streamingMfcc;

    /**
     * Sliding window of extracted feature frames.  Only the trailing
     * 2*contextFrames+1 frames are ever re-read (the splice window),
     * so frames that have left it are dropped as scoring advances;
     * rawBase is the absolute index of rawFeats.front().  This keeps
     * the front-end side of a session bounded.  With
     * cfg.arenaGcWatermark set, the software decoder also collects
     * the dead part of its backpointer trace, which keeps long
     * utterances near the watermark in practice (beam paths merge,
     * so live chains share one backbone) -- but the *live* trace
     * still grows with hypothesis length, and the accelerator
     * backend never collects, so sessions should still finish at
     * utterance boundaries rather than stream forever.
     */
    std::deque<std::vector<float>> rawFeats;
    std::size_t rawBase = 0;
    std::size_t splicedUpTo = 0;       //!< frames parked as rows
    std::uint64_t framesFed = 0;
    bool finished = false;

    /** The likelihood row handed to the search, reused per frame. */
    std::vector<float> likesScratch;

    /**
     * Spliced rows (pendingRows_ x splicedDim, row major) waiting
     * for the external batch scorer.
     */
    std::vector<float> pendingSpliced;
    std::size_t pendingRows_ = 0;

    /** The search, resolved from the registry at construction. */
    std::unique_ptr<search::Backend> search_;

    double frontendSeconds = 0.0;
    double acousticSeconds = 0.0;
    double searchSeconds = 0.0;
};

} // namespace asr::server

#endif // ASR_SERVER_SESSION_HH
