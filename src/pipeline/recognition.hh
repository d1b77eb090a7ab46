/**
 * @file
 * The result type every recognition path returns: server sessions,
 * the api::Engine and everything above it speak it.
 */

#ifndef ASR_PIPELINE_RECOGNITION_HH
#define ASR_PIPELINE_RECOGNITION_HH

#include <cstdint>
#include <vector>

#include "accel/stats.hh"
#include "decoder/result.hh"
#include "wfst/types.hh"

namespace asr::pipeline {

/** Result of recognizing one audio signal. */
struct RecognitionResult
{
    std::vector<wfst::WordId> words;
    wfst::LogProb score = wfst::kLogZero;
    double audioSeconds = 0.0;     //!< duration of the input audio
    double frontendSeconds = 0.0;  //!< MFCC wall-clock
    double acousticSeconds = 0.0;  //!< DNN wall-clock
    double searchSeconds = 0.0;    //!< decoder wall-clock (host)
    std::uint64_t sessionId = 0;   //!< set by the server layer
    accel::AccelStats accelStats;  //!< valid when the accel ran

    /**
     * Search workload counters (both backends).  For the software
     * decoder this includes the backpointer-arena telemetry
     * (arenaPeakEntries, arenaGcRuns, bpAppendsSkipped) the server
     * layer aggregates into EngineStats.
     */
    decoder::DecodeStats searchStats;

    /** Host real-time factor: decode wall-clock per audio second. */
    double
    realTimeFactor() const
    {
        return audioSeconds > 0.0
                   ? (frontendSeconds + acousticSeconds +
                      searchSeconds) /
                         audioSeconds
                   : 0.0;
    }
};

} // namespace asr::pipeline

#endif // ASR_PIPELINE_RECOGNITION_HH
