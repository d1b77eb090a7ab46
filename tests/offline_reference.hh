/**
 * @file
 * The offline whole-utterance pipeline, as a test oracle.
 *
 * Every serving path -- one-shot submit(), live streams at any push
 * size, auto-endpointed segments, any thread count or batch
 * composition -- must reproduce this result bit for bit:
 *
 *   model.mfcc().compute(audio)     whole-utterance MFCC
 *   -> model.scorer().score(feats)  one batch over every frame
 *   -> search backend decode()      the same backend, fresh
 *
 * Dither is applied up front exactly as a session applies it while
 * streaming: one uniform draw per sample, in order, from the RNG
 * seeded by deriveSeed(baseSeed, sessionId).
 */

#ifndef ASR_TESTS_OFFLINE_REFERENCE_HH
#define ASR_TESTS_OFFLINE_REFERENCE_HH

#include <cstdint>

#include "api/options.hh"
#include "common/rng.hh"
#include "decoder/result.hh"
#include "frontend/audio.hh"
#include "pipeline/model.hh"
#include "search/backend.hh"

namespace asr::test {

/**
 * Decode @p audio offline with the per-session knobs of @p opts (the
 * search backend, beam, maxActive, arena watermark, timing and
 * dither), as session @p session_id of an engine configured by them.
 */
inline decoder::DecodeResult
offlineDecode(const pipeline::AsrModel &model,
              const frontend::AudioSignal &audio,
              const api::EngineOptions &opts = api::EngineOptions(),
              std::uint64_t session_id = 0)
{
    frontend::AudioSignal input = audio;
    if (opts.ditherAmplitude > 0.0f) {
        Rng rng(deriveSeed(opts.baseSeed, session_id));
        for (float &s : input.samples)
            s += opts.ditherAmplitude * float(rng.uniform(-1.0, 1.0));
    }
    const acoustic::AcousticLikelihoods scores =
        model.scorer().score(model.mfcc().compute(input));

    search::BackendConfig bcfg;
    bcfg.decoder.beam = opts.beam > 0.0f ? opts.beam : model.config().beam;
    bcfg.decoder.maxActive = opts.maxActive;
    bcfg.decoder.arenaGcWatermark = opts.arenaGcWatermark;
    bcfg.runTiming = opts.runTiming;
    return search::createBackend(opts.effectiveSearchBackend(),
                                 model.net(), bcfg)
        ->decode(scores);
}

} // namespace asr::test

#endif // ASR_TESTS_OFFLINE_REFERENCE_HH
